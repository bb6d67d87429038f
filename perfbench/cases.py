"""Seeded inputs for the three workloads, built with the standard library only.

Every case is plain data (strings, ints, Fraction strings), so the same case
list can be handed to the worker process, which builds lcfield objects from
it, and to the oracle, which builds independent sympy references from it.

Inputs are chosen so that every operation has a defined answer: radicands
have perfect-power standard parts, denominators do not vanish at the chosen
points, and unlimited parameters are decidably unlimited.
"""

from __future__ import annotations

import random
from fractions import Fraction

SERIES_DEPTH = 48
EMBED_DEPTH = 64
MIXED_DEPTH = 16
SERIES_CASES = 24
MIXED_CASES = 12
SESSIONS = 6

# Rational powers p/q and points used by series-deep. Case i takes power
# i % 6 and point i % 4, so every seed has the same mix of shapes and only
# coefficients vary. A negative power costs an inverse and a root of a long
# series, several times a positive one.
_RATIONAL_POWERS = [(3, 2), (1, 3), (2, 3), (-1, 2), (-2, 3), (-1, 3)]
_POINTS = [-2, -1, 1, 2]

# Denominators of the sparse exponent lattices in mixed-exponents.
_LATTICE = [2, 3, 5, 7, 11]


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------


def poly_src(coeffs: list[int], var: str) -> str:
    """Descending integer coefficients as an expression, e.g. 3*x^2 - x + 5."""
    deg = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        k = deg - i
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"


def number_src(terms: list[tuple[Fraction, Fraction]], trunc: Fraction | None) -> str:
    """A number literal in the grammar of lcfield.number.parse."""
    parts = []
    for q, c in sorted(terms):
        mag = abs(c)
        body = str(mag) if q == 0 else f"{mag}*eps^({q})"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    if trunc is not None:
        tail = f"O(eps^({trunc}))"
        parts.append(f" + {tail}" if parts else tail)
    return "".join(parts)


# ---------------------------------------------------------------------------
# series-deep
# ---------------------------------------------------------------------------


def _quadratic_around(rng: random.Random, x0: int, value: int) -> list[int]:
    """a*(x - x0)^2 + s*(x - x0) + value, expanded. Its series at x0 + eps is
    value + s*eps + a*eps^2 whatever x0 is, which keeps case costs alike."""
    a = rng.randint(1, 3)
    slope = rng.choice([-3, -2, -1, 1, 2, 3])
    return [a, slope - 2 * a * x0, value - slope * x0 + a * x0 * x0]


def _series_case(rng: random.Random, i: int) -> dict:
    x0 = _POINTS[i % len(_POINTS)]
    p, q = _RATIONAL_POWERS[i % len(_RATIONAL_POWERS)]
    num = [rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-5, 5)]
    components = [
        # A multi-term inverse, a square root and a rational power, each of a
        # quadratic whose value at x0 is a nonzero integer or a perfect power.
        {"kind": "div", "num": num,
         "den": _quadratic_around(rng, x0, rng.choice([-3, -2, 2, 3]))},
        {"kind": "sqrt", "poly": _quadratic_around(rng, x0, rng.choice([4, 9]))},
        {"kind": "pow", "poly": _quadratic_around(rng, x0, 2**q), "p": p, "q": q},
    ]
    for comp in components:
        comp["scale"] = rng.choice([-3, -2, -1, 1, 2, 3])
    return {"x0": x0, "components": components, "src": _series_src(components)}


def _series_src(components: list[dict]) -> str:
    pieces = []
    for comp in components:
        if comp["kind"] == "div":
            body = f"({poly_src(comp['num'], 'x')})/({poly_src(comp['den'], 'x')})"
        elif comp["kind"] == "sqrt":
            body = f"sqrt({poly_src(comp['poly'], 'x')})"
        else:
            body = f"({poly_src(comp['poly'], 'x')})^({comp['p']}/{comp['q']})"
        s = comp["scale"]
        term = body if abs(s) == 1 else f"{abs(s)}*{body}"
        if not pieces:
            pieces.append(f"-{term}" if s < 0 else term)
        else:
            pieces.append(f"{'-' if s < 0 else '+'} {term}")
    return " ".join(pieces)


def _sequence_case(rng: random.Random) -> dict:
    """p(n)/q(n) with a multi-term denominator and deg p <= deg q."""
    dq = rng.choice([2, 3])
    while True:
        q = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(dq)]
        if sum(1 for c in q if c) >= 3:
            break
    dp = rng.randint(0, dq)
    p = [rng.randint(1, 4)] + [rng.randint(-4, 4) for _ in range(dp)]
    return {"p": p, "q": q, "src": f"({poly_src(p, 'n')})/({poly_src(q, 'n')})"}


def series_deep(seed: int) -> dict:
    rng = random.Random(seed)
    cases = [_series_case(rng, i) for i in range(SERIES_CASES)]
    sequences = [_sequence_case(rng) for _ in range(SERIES_CASES // 2)]
    # Op latencies form five clusters: embeddings, then derivatives and
    # second derivatives of positive powers, then of negative powers. With
    # one embedding per two expressions each cluster is a fifth of the ops,
    # so p50, p75 and p90 each fall inside a cluster rather than at an edge.
    ops = []
    for i in range(SERIES_CASES):
        ops += [["derivative", i], ["second_derivative", i]]
        if i % 2 == 0:
            ops.append(["embed", i // 2])
    return {
        "workload": "series-deep",
        "depth": SERIES_DEPTH,
        "embed_depth": EMBED_DEPTH,
        "cases": cases,
        "sequences": sequences,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# mixed-exponents
# ---------------------------------------------------------------------------


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _sparse_terms(rng: random.Random, n: int, lead: Fraction) -> list:
    """`n` terms from `lead` upward, each exponent on its own lattice 1/q."""
    terms = [(lead, _rand_coeff(rng))]
    used = {lead}
    while len(terms) < n:
        q = rng.choice(_LATTICE)
        e = lead + Fraction(rng.randint(1, 2 * q), q)
        if e not in used:
            used.add(e)
            terms.append((e, _rand_coeff(rng)))
    return sorted(terms)


def _with_tail(rng: random.Random, terms: list) -> Fraction | None:
    """A truncation order above every term, or None for an exact value."""
    if rng.random() < 0.5:
        return None
    return max(q for q, _ in terms) + Fraction(rng.randint(1, 3), rng.choice(_LATTICE))


def _compare_case(rng: random.Random) -> dict:
    u = _sparse_terms(rng, rng.randint(3, 5), Fraction(0))
    v = _sparse_terms(rng, rng.randint(3, 5), Fraction(rng.randint(0, 2), rng.choice(_LATTICE)))
    tu, tv = _with_tail(rng, u), _with_tail(rng, v)
    lu, lv = u[0][0], v[0][0]
    # The unknown part of u*v starts at min(Tu + lv, Tv + lu); w must lead below it.
    bounds = [t + l for t, l in ((tu, lv), (tv, lu)) if t is not None]
    ceiling = min(bounds) if bounds else Fraction(3)
    lw = ceiling - Fraction(rng.randint(1, 4), rng.choice(_LATTICE))
    w = _sparse_terms(rng, rng.randint(1, 3), lw)
    # Leading below zero, so it decides against u*inv(u) = 1 + O(eps^T), T > 0.
    w2 = _sparse_terms(rng, rng.randint(1, 3), -Fraction(rng.randint(0, 3), rng.choice(_LATTICE)))
    n = rng.choice([2, 3, 5])
    s_lead = Fraction(rng.randint(0, 2 * n), n)
    s = _sparse_terms(rng, rng.randint(2, 4), s_lead)
    s[0] = (s[0][0], Fraction(rng.randint(1, 3) ** n, rng.choice([1, 2]) ** n))
    o_tail = Fraction(rng.randint(1, 11), rng.choice(_LATTICE))
    return {
        "u": number_src(u, tu),
        "v": number_src(v, tv),
        "w": number_src(w, None),
        "w2": number_src(w2, None),
        "s": number_src(s, None),
        "n": n,
        "o": number_src([], o_tail),
        "uv_exact": tu is None and tv is None,
        "sign_w": 1 if w[0][1] > 0 else -1,
        "sign_w2": 1 if w2[0][1] > 0 else -1,
    }


# Identities (lhs, rhs) in which the difference is zero for every binding
# where both sides are defined. Fractional powers of random rationals fail
# often, so transfer_check discards and redraws many bindings.
_IDENTITIES = [
    ("({a}*x^(1/2) + y^(1/3))^2", "{a2}*x + {a2x2}*x^(1/2)*y^(1/3) + y^(2/3)"),
    ("(x^(1/5) + {a})*(x^(1/5) - {a})", "x^(2/5) - {a2}"),
    ("(x + y^(1/7))^2/(x + y^(1/7))", "x + y^(1/7)"),
    ("x^(1/11)*x^(10/11) + {a}*y", "x + {a}*y"),
    ("(x^(1/2))^2*y - x*y + {a}", "{a}"),
    ("(x^(1/3))^3 + (y^(1/2))^2", "x + y"),
]


def _transfer_case(rng: random.Random, i: int) -> dict:
    lhs, rhs = _IDENTITIES[i % len(_IDENTITIES)]
    a = rng.randint(1, 4)
    fill = {"a": a, "a2": a * a, "a2x2": 2 * a}
    return {"lhs": lhs.format(**fill), "rhs": rhs.format(**fill), "seed": rng.randint(0, 10**6)}


def _unlimited_src(rng: random.Random, q: int) -> str:
    """H = c*eps^(-k/q) + b: decidably unlimited and positive, as eps^(-1/2) + 3.

    A third term on another lattice can leave conic_point with no decidably
    limited root at depth 16 (it then raises ArithmeticError), so H keeps two.
    """
    b = Fraction(rng.randint(-3, 3) or 1, rng.choice([1, 2]))
    return number_src([(Fraction(-rng.randint(1, q), q), Fraction(rng.randint(1, 3))), (Fraction(0), b)], None)


_SAMPLE_POOL = [Fraction(v) for v in range(-3, 5)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)]


def _conic_case(rng: random.Random, i: int) -> dict:
    samples = rng.sample(_SAMPLE_POOL, 3)
    return {
        "H": _unlimited_src(rng, _LATTICE[i % len(_LATTICE)]),
        "samples": [str(s) for s in samples],
        "x": str(rng.choice(_SAMPLE_POOL)),
    }


def mixed_exponents(seed: int) -> dict:
    rng = random.Random(seed)
    compares = [_compare_case(rng) for _ in range(MIXED_CASES)]
    # Case i takes identity i % 6 and lattice i % 5 for H, so every seed has
    # the same mix of shapes.
    transfers = [_transfer_case(rng, i) for i in range(MIXED_CASES)]
    conics = [_conic_case(rng, i) for i in range(MIXED_CASES)]
    ops = []
    for i in range(MIXED_CASES):
        ops += [["compare", i], ["transfer_check", i], ["conic_shadow", i], ["conic_chain", i]]
    return {
        "workload": "mixed-exponents",
        "depth": MIXED_DEPTH,
        "compares": compares,
        "transfers": transfers,
        "conics": conics,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _cli_variants(rng: random.Random) -> list[dict]:
    """One short invocation per subcommand, with what it must print."""
    out = []
    # eval: a polynomial in bound variables; bindings are short literals.
    a, b = rng.randint(1, 5), rng.randint(-4, 4) or 1
    c, d = rng.randint(1, 3), rng.choice([1, 2, 3])
    out.append({
        "argv": ["eval", "(x+dx)*(y+dy) - x*y", "--at", f"x={a},y={b},dx={c}*eps,dy=eps^(1/{d})"],
        "check": {"kind": "eval", "expr": "(x+dx)*(y+dy) - x*y",
                  "at": {"x": [[0, a]], "y": [[0, b]], "dx": [[1, c]], "dy": [[f"1/{d}", 1]]}},
    })
    # diff: short rational expressions at points where radicands are squares.
    x0 = rng.randint(-2, 3)
    k = rng.randint(1, 4)
    templates = [
        f"x^3 - {k}*x",
        f"(x^2 + {k})/(x^2 + 1)",
        f"sqrt(x^2 + {(k + abs(x0)) ** 2 - x0 * x0})",
    ]
    src = rng.choice(templates)
    out.append({"argv": ["diff", src, "--at", str(x0)], "check": {"kind": "diff", "src": src, "x0": x0}})
    # shadow and tlh: literals built from known terms; shadow's are limited.
    terms = [(Fraction(rng.randint(-1, 0)), Fraction(rng.randint(1, 9))),
             (Fraction(1), Fraction(rng.randint(-5, 5) or 2)),
             (Fraction(rng.randint(2, 3)), Fraction(-1))]
    limited = [t for t in terms if t[0] >= 0]
    st = limited[0][1] if limited[0][0] == 0 else 0
    out.append({"argv": ["shadow", number_src(limited, None)], "check": {"kind": "shadow", "expect": str(st)}})
    lead_q, lead_c = terms[0]
    out.append({"argv": ["tlh", number_src(terms, None)],
                "check": {"kind": "tlh", "lead": [str(lead_q), str(lead_c)]}})
    # conic: three distinct sample abscissas.
    samples = rng.sample(_SAMPLE_POOL, 3)
    out.append({"argv": ["conic", "--samples=" + ",".join(str(s) for s in samples)],
                "check": {"kind": "conic", "samples": [str(s) for s in samples]}})
    # seq: a short rational function of n.
    seq = _sequence_case(rng)
    out.append({"argv": ["seq", seq["src"]], "check": {"kind": "seq", "p": seq["p"], "q": seq["q"]}})
    # zoom: a standard part plus an infinitesimal.
    zst = rng.randint(-3, 3)
    zc = rng.choice([-2, -1, 1, 2])
    zterms = [(Fraction(0), Fraction(zst))] if zst else []
    zterms.append((Fraction(1), Fraction(zc)))
    # "--" keeps a literal with a leading minus from reading as an option.
    out.append({"argv": ["zoom", "--", number_src(zterms, None)], "check": {"kind": "zoom", "st": str(zst)}})
    return out


def cli_session(seed: int) -> dict:
    """Sessions of `lc` invocations: each runs all seven subcommands once,
    all in text or all with --json, plus one question the truncation model
    cannot answer (exit 1 with a message).

    An op is a whole session, so ops cost about the same and the latency
    median and tail do not sit between the clusters of cheap and costly
    subcommands.
    """
    rng = random.Random(seed)
    sessions = []
    for _ in range(SESSIONS // 2):
        variants = _cli_variants(rng)
        t = Fraction(-rng.randint(0, 3), rng.choice([1, 2]))
        text = variants + [{"argv": ["shadow", number_src([], t)], "check": {"kind": "error"}}]
        json_mode = [{"argv": v["argv"][:1] + ["--json"] + v["argv"][1:], "check": dict(v["check"], json=True)}
                     for v in variants]
        json_mode.append({"argv": ["tlh", "--json", number_src([], t + 1)], "check": {"kind": "error"}})
        sessions += [text, json_mode]
    return {
        "workload": "cli-session",
        "sessions": sessions,
        "ops": [["session", i] for i in range(len(sessions))],
    }


WORKLOADS = {
    "series-deep": series_deep,
    "cli-session": cli_session,
    "mixed-exponents": mixed_exponents,
}


def build(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload](seed)
    spec["seed"] = seed
    return spec
