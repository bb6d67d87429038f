"""Benchmark worker: one fresh process per run, so its peak RSS is its own.

Reads a job (JSON) on stdin, imports lcfield from ``<root>/src``, builds the
program-side inputs several times (the set-up), runs the closed loop and
writes one JSON object on stdout. Results are serialized without lcfield's
renderer, so the oracle checks them independently.

The loop is closed with a single client: the next op starts when the
previous one returns. An op's latency covers only its call into lcfield.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

import calibrate

LAYERS = ("errors", "number", "expr", "calculus", "shadows", "sequences", "cli", "svg")


def import_lcfield(src: str) -> dict:
    """Import every lcfield module afresh; returns layer name -> module."""
    for name in [n for n in sys.modules if n == "lcfield" or n.startswith("lcfield.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    return {layer: importlib.import_module(f"lcfield.{layer}") for layer in LAYERS}


def terms_of(n) -> list:
    return [[[str(q), str(c)] for q, c in n.terms], None if n.trunc is None else str(n.trunc)]


# ---------------------------------------------------------------------------
# Program-side inputs: each function returns a list of (key, call, serialize).
# ---------------------------------------------------------------------------


def _series_deep(m: dict, spec: dict) -> list:
    calculus, sequences, expr = m["calculus"], m["sequences"], m["expr"]
    depth, embed_depth = spec["depth"], spec["embed_depth"]
    exprs = [expr.parse(c["src"]) for c in spec["cases"]]
    seqs = [sequences.parse_sequence(s["src"]) for s in spec["sequences"]]
    ops = []
    for kind, i in spec["ops"]:
        f, x0 = exprs[i], Fraction(spec["cases"][i]["x0"])
        if kind == "derivative":
            ops.append((f"{kind}/{i}",
                        lambda f=f, x0=x0: calculus.derivative(f, x0, depth),
                        lambda r: [str(r.derivative_value), terms_of(r.pre_shadow)]))
        elif kind == "second_derivative":
            ops.append((f"{kind}/{i}",
                        lambda f=f, x0=x0: calculus.second_derivative(f, x0, depth), str))
        else:
            ops.append((f"{kind}/{i}",
                        lambda s=seqs[i]: sequences.asymptotic_embed(s, embed_depth), terms_of))
    return ops


def _compare_batch(m: dict, depth: int, c: dict):
    number, errors = m["number"], m["errors"]
    u, v, w, w2, s, o = (number.parse(c[k]) for k in ("u", "v", "w", "w2", "s", "o"))
    one, n = number.LCNumber.from_rational(1), c["n"]

    queries = [
        lambda: (u * v + w).compare(v * u),
        lambda: (u * v).compare(v * u),
        lambda: (u * u.inv(depth) + w2).compare(one),
        lambda: (u * u.inv(depth)).compare(one),
        lambda: s.nth_root(n, depth).pow_int(n, depth).compare(s),
        lambda: (u + o).compare(u),
    ]

    def call():
        out = []
        for q in queries:
            try:
                out.append(q().name)
            except errors.UndecidableError:
                out.append("UndecidableError")
        return out

    return call


def _mixed_exponents(m: dict, spec: dict) -> list:
    expr, shadows, number = m["expr"], m["shadows"], m["number"]
    depth = spec["depth"]
    compares = [_compare_batch(m, depth, c) for c in spec["compares"]]
    transfers = [(expr.parse(t["lhs"]), expr.parse(t["rhs"]), t["seed"]) for t in spec["transfers"]]
    conics = [(number.parse(c["H"]), [Fraction(s) for s in c["samples"]], Fraction(c["x"]))
              for c in spec["conics"]]
    ops = []
    for kind, i in spec["ops"]:
        key = f"{kind}/{i}"
        if kind == "compare":
            ops.append((key, compares[i], list))
        elif kind == "transfer_check":
            lhs, rhs, seed = transfers[i]
            ops.append((key,
                        lambda lhs=lhs, rhs=rhs, seed=seed: expr.transfer_check(lhs, rhs, 20, depth, seed),
                        lambda r: [r.ok, len(r.failures), r.rational_trials, r.field_trials,
                                   r.failures[0].detail if r.failures else None]))
        elif kind == "conic_shadow":
            H, samples, _ = conics[i]
            ops.append((key,
                        lambda H=H, samples=samples: shadows.conic_shadow(H, samples, depth),
                        lambda st: [[str(a) for a in st.shadow_coeffs],
                                    [[str(x), str(y)] for x, y in st.points]]))
        else:
            H, _, x = conics[i]
            ops.append((key,
                        lambda H=H, x=x: shadows.conic_chain_residuals(H, x, depth),
                        lambda rs: [terms_of(r) for r in rs]))
    return ops


def _cli_session(m: dict, spec: dict) -> list:
    cli = m["cli"]

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return [rc, out.getvalue(), err.getvalue()]

    ops = []
    for kind, i in spec["ops"]:
        argvs = [inv["argv"] for inv in spec["sessions"][i]]
        ops.append((f"{kind}/{i}", lambda argvs=argvs: [invoke(a) for a in argvs], list))
    return ops


PREPARE = {
    "series-deep": _series_deep,
    "mixed-exponents": _mixed_exponents,
    "cli-session": _cli_session,
}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_loop(ops: list, seconds: float, tracer=None) -> dict:
    """Run ops round-robin for `seconds`; keep each key's first output and
    count later outputs that differ from it.

    Between ops, a calibration slice is timed every EVERY_S seconds; its time
    is left out of `wall_s`. Each op gets the speed factor of its segment,
    the mean of the calibration rates before and after it, scaled.
    """
    latencies, first, differ = [], {}, {}
    rates, segment_of = [], []
    i, n = 0, len(ops)
    calib_s = 0.0
    start = perf_counter()
    deadline = start + seconds
    next_calib = start
    while True:
        if perf_counter() >= next_calib:
            c0 = perf_counter()
            rates.append(calibrate.rate())
            calib_s += perf_counter() - c0
            next_calib = perf_counter() + calibrate.EVERY_S
        key, call, serialize = ops[i % n]
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result = call()
            t1 = perf_counter()
            out = serialize(result)
        except Exception as exc:  # recorded as the op's output and judged by the oracle
            t1 = perf_counter()
            out = ["raise", type(exc).__name__, str(exc)]
        latencies.append(t1 - t0)
        segment_of.append(len(rates) - 1)
        if key not in first:
            first[key] = out
            differ[key] = 0
        elif out != first[key]:
            differ[key] += 1
        i += 1
        if t1 >= deadline:
            break
    wall = perf_counter() - start - calib_s
    rates.append(calibrate.rate())
    factors = [calibrate.scale((rates[k] + rates[k + 1]) / 2) for k in segment_of]
    return {"latencies": latencies, "factors": factors, "wall_s": wall, "first": first,
            "differ": differ}


def profile_one(ops: list) -> str:
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.runcall(ops[0][1])
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(10)
    return buf.getvalue()


def main() -> None:
    job = json.load(sys.stdin)
    spec, seconds = job["spec"], job["seconds"]
    os.environ.pop("LC_DEPTH", None)
    prepare = PREPARE[spec["workload"]]

    setup, setup_rates = [], []
    calibrate.rate()  # the calibration chunk's own bytecode is specialised first
    for _ in range(job["setup_repeats"]):
        setup_rates.append(calibrate.rate())
        t0 = perf_counter()
        mods = import_lcfield(job["src"])
        ops = prepare(mods, spec)
        setup.append(perf_counter() - t0)
    gc.collect()

    out = {"setup_s": setup, "setup_rates": setup_rates}
    if job.get("profile"):
        out["profile"] = profile_one(ops)
    # One untimed op, so lazily built state (regex caches, specialised
    # bytecode) is in place before timing starts.
    run_loop(ops[:1], 0.0)

    if not job["trace"]:
        out["untraced"] = run_loop(ops, seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer

        out["untraced"] = run_loop(ops, seconds / 2)
        tracer = Tracer()
        tracer.install(mods)
        traced = run_loop(ops, seconds / 2, tracer)
        tracer.uninstall()
        traced["root_s"] = tracer.root_s
        traced["self_total_s"] = tracer.self_total()
        traced["layers"] = tracer.metrics()
        traced["spans"] = len(tracer.spans)
        traced["dropped_spans"] = tracer.dropped
        out["traced"] = traced
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
