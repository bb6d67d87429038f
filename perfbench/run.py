"""lcfield benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload series-deep --seed 1 --seconds 25 --trace 0

The run makes its inputs from the seed (cases.py), measures them in a fresh
worker process (worker.py), times cold CLI starts, checks every output
against references that do not come from lcfield (oracle.py), prints each
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, from a run that wraps lcfield's functions (tracer.py).

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

prints, per workload and metric, medians, quartiles and ratios of two sets
of runs recorded with ``--out``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import cases  # noqa: E402

SETUP_REPEATS = 9
# Short invocations timed as fresh interpreters; every workload reports them.
COLD_ARGV = [
    ["diff", "x^2", "--at", "1"],
    ["eval", "(x+dx)*(y+dy) - x*y", "--at", "x=2,y=3,dx=eps,dy=eps", "--json"],
    ["seq", "n/(n+1)"],
]
COLD_EXPECT = {0: "2\npre_shadow = 2 + eps\n"}
COLD_ROUNDS = 8
# Start-up time of a bare interpreter that cold starts are scaled to (about
# CPython 3.11's on a 2-vCPU x86-64 VM).
BARE_REFERENCE_MS = 45.0


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: the
    (n-10)-th smallest of n latencies. Returns (percentile, value, beyond).

    Taken exactly rather than from a ladder of round percentiles, so a run
    with a few more or fewer ops does not jump to another percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    rank = n - beyond
    return 100 * rank / n, ordered[rank - 1], beyond


def run_worker(root: str, spec: dict, seconds: float, trace: bool, profile: bool) -> dict:
    job = {
        "spec": spec,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": SETUP_REPEATS,
        "src": os.path.join(root, "src"),
        "profile": profile,
    }
    if trace:
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        job["spans_out"] = os.path.join(root, ".perfbench", f"spans-{spec['workload']}-{spec['seed']}.tsv")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=seconds + 90,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def cold_start(root: str) -> dict:
    """Median wall time of `python -m lcfield.cli ...` runs, raw and scaled.

    Each round times a bare interpreter (`python -c pass`) before and after
    its CLI runs; a CLI run is scaled by BARE_REFERENCE_MS / (their mean),
    so a host state that slows every process start reads the same.
    """
    env = {k: v for k, v in os.environ.items() if k != "LC_DEPTH"}
    env["PYTHONPATH"] = os.path.join(root, "src")

    def timed(cmd):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root, timeout=30)
        return perf_counter() - t0, proc

    bare_cmd = [sys.executable, "-c", "pass"]
    timed([sys.executable, "-m", "lcfield.cli"] + COLD_ARGV[0])  # bytecode cache in place
    cli, scaled, bare, outputs, wrong = [], [], [], {}, 0
    for _ in range(COLD_ROUNDS):
        before = timed(bare_cmd)[0]
        runs = []
        for i, argv in enumerate(COLD_ARGV):
            dt, proc = timed([sys.executable, "-m", "lcfield.cli"] + argv)
            runs.append(dt)
            out = outputs.setdefault(i, proc.stdout)
            if proc.returncode != 0 or proc.stdout != out or COLD_EXPECT.get(i, out) != out:
                wrong += 1
        round_bare = (before + timed(bare_cmd)[0]) / 2
        bare.append(round_bare)
        cli += runs
        scaled += [dt * BARE_REFERENCE_MS / (round_bare * 1e3) for dt in runs]
    return {"cli_ms": statistics.median(cli) * 1e3, "bare_ms": statistics.median(bare) * 1e3,
            "cli_ref_ms": statistics.median(scaled) * 1e3, "runs": len(cli), "wrong": wrong}


def op_counts(spec: dict, executed: int) -> dict:
    """How many times each op key ran in a round-robin loop of `executed` ops."""
    n = len(spec["ops"])
    counts = {}
    for j, (kind, i) in enumerate(spec["ops"]):
        counts[f"{kind}/{i}"] = executed // n + (1 if j < executed % n else 0)
    return counts


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "lcfield", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def judge(spec: dict, phases: list, root: str) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every op of every phase."""
    import oracle

    first = {}
    for phase in phases:
        for key, out in phase["first"].items():
            first.setdefault(key, out)
    verdicts = oracle.check(spec, first, root)
    attempted = failed = 0
    messages = []
    for phase in phases:
        executed = len(phase["latencies"])
        attempted += executed
        for key, count in op_counts(spec, executed).items():
            if count == 0:
                continue
            if verdicts.get(key) is not None:
                failed += count
            elif phase["first"][key] != first[key]:
                failed += count
                verdicts[key] = "output differs between phases"
            else:
                failed += phase["differ"][key]
                if phase["differ"][key]:
                    messages.append(f"{key}: {phase['differ'][key]} repeats differ from the first output")
    messages += [f"{key}: {msg}" for key, msg in verdicts.items() if msg]
    return attempted, failed, messages


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lcfield", "__init__.py")):
        print("error: src/lcfield not found; run from the repository root", file=sys.stderr)
        return 2
    bench = load_benchmark(root)
    spec = cases.build(args.workload, args.seed)
    result = run_worker(root, spec, args.seconds, bool(args.trace), args.profile)
    cold = cold_start(root)
    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted, failed, messages = judge(spec, phases, root)
    attempted += cold["runs"]
    failed += cold["wrong"]
    for msg in messages[:20]:
        print(f"wrong: {msg}")
    if cold["wrong"]:
        print(f"wrong: {cold['wrong']} cold-start runs exited non-zero or printed other bytes")
    if "profile" in result:
        print(result["profile"])

    untraced = result["untraced"]
    n_ops = len(untraced["latencies"])
    scaled_lat = [t * f for t, f in zip(untraced["latencies"], untraced["factors"])]
    f_loop = sum(scaled_lat) / sum(untraced["latencies"])
    correct = failed == 0
    print(f"workload {args.workload} seed {args.seed}: {n_ops} ops in {untraced['wall_s']:.2f} s, "
          f"closed loop, 1 client{' (untraced half)' if args.trace else ''}")
    print(f"info: src/lcfield lines = {src_lines(root)}")
    print(f"host speed / reference in the loop: {f_loop:.3f}; times are scaled to reference "
          f"speed (calibrate.py), raw wall-clock values in brackets")
    if not args.trace:
        p, tail, beyond = tail_latency(scaled_lat)
        setup_ref = [t * calibrate.scale(r) for t, r in zip(result["setup_s"], result["setup_rates"])]
        raw = {
            "ops_per_s": n_ops / untraced["wall_s"],
            "latency_p50_ms": statistics.median(untraced["latencies"]) * 1e3,
            "latency_tail_ms": tail_latency(untraced["latencies"])[1] * 1e3,
            "setup_s": statistics.median(result["setup_s"]),
            "cold_start_ms": cold["cli_ms"],
        }
        values = {
            "ops_per_s": n_ops / (untraced["wall_s"] * f_loop),
            "latency_p50_ms": statistics.median(scaled_lat) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": result["peak_rss_mb"],
            "cold_start_ms": cold["cli_ref_ms"],
        }
        print(f"latency_tail_ms is p{p:.2f} of {n_ops} samples ({beyond} beyond it)")
        print(f"cold_start_ms is the median of {cold['runs']} runs of `python -m lcfield.cli`; "
              f"a bare interpreter took {cold['bare_ms']:.1f} ms raw")
        print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
        declared = bench["end_to_end"]
    else:
        traced = result["traced"]
        f_traced = (sum(t * f for t, f in zip(traced["latencies"], traced["factors"]))
                    / sum(traced["latencies"]))
        raw = {}
        values = dict(traced["layers"])
        values["cli.cold_start_overhead_ms"] = cold["cli_ref_ms"] - BARE_REFERENCE_MS
        values["trace.overhead_ratio"] = (
            (n_ops / (untraced["wall_s"] * f_loop))
            / (len(traced["latencies"]) / (traced["wall_s"] * f_traced))
        )
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.outside_s"] = traced["wall_s"] - traced["root_s"]
        gap = traced["self_total_s"] + values["trace.outside_s"] - traced["wall_s"]
        print(f"trace: {traced['spans']} spans ({traced['dropped_spans']} not kept); "
              f"sum of self_s + outside_s - wall_s = {gap:.3g} s (per-layer times are raw wall-clock)")
        if abs(gap) > 1e-6 * max(1.0, traced["wall_s"]):
            print("wrong: per-layer self times do not add up to the traced wall time")
            correct = False
        declared = bench["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        bracket = f" [{raw[m['name']]:.6g}]" if m["name"] in raw else ""
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{bracket}")
    report = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": report}) + "\n")
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's result as one JSON line to this file")
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile top-10 of the workload's first op")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two files written with --out, instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        compare.main(args.compare[0], args.compare[1], load_benchmark(os.getcwd()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
