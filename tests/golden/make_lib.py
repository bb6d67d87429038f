"""Write the golden corpus of library outcomes, ``tests/golden/lib.jsonl``.

    PYTHONPATH=src python3 tests/golden/make_lib.py

Each row is one library call, as the Python text that makes it, and its outcome:
``str`` of the result, or the error's class name and message.  The call texts are
built from fixed seeds, never from any output:

- the kernel operations ``+ - * inv nth_root pow_rational pow_int compare st tlh
  order_class`` at depths 1, 4 and 16, on the exponent lattices 1/1 ... 1/11, with
  ``O()`` tails, term-less values and some coefficients near 10^30;
- ``eval_field``, ``eval_rational`` and ``render`` of seeded expression trees;
- ``derivative``, ``second_differential_check``, ``conic_shadow``, ``conic_point``,
  ``line_LH_shadow``, ``asymptotic_embed`` and ``decompose``;
- ``repr`` of every result record type, of ``OrderClass`` and of syntax-tree nodes,
  and calls whose text or power is past the digit limit.

A call text is evaluated in the names of :func:`_namespace`.  There ``N('2@0 -1/3@1/2 O@3')`` is the
number 2 - 1/3*eps^(1/2) + O(eps^(3)): each ``c@e`` is a term c*eps^(e), and ``O@T``
the truncation order.  Every call runs at CPython's default limit of 4,300 digits on
int-string conversion.  A change that means to alter a row regenerates the file in
the same change.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import random
import sys
from fractions import Fraction as F

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
CORPUS = HERE / "lib.jsonl"
DEPTHS = (1, 4, 16)
LATTICES = range(1, 12)
BIG = 10**30


def _number(spec: str):
    """The number that ``spec`` writes as ``c@e`` terms and an optional ``O@T``."""
    from lcfield.number import LCNumber

    terms, trunc = [], None
    for item in spec.split():
        c, e = item.split("@")
        if c == "O":
            trunc = F(e)
        else:
            terms.append((F(e), F(c)))
    return LCNumber(terms, trunc)


def _namespace() -> dict:
    from lcfield import calculus, expr, number, sequences, shadows

    names = {"F": F, "N": _number, "H": shadows.default_unlimited()}
    for module, public in [
        (number, "EPS LCNumber rational_nth_root rational_text"),
        (expr, "Lit Pow Var eval_field eval_rational parse render transfer_check "
               "TransferFailure TransferReport"),
        (calculus, "derivative product_rule_trace second_differential_check DiffResult "
                   "ProductRuleTrace SecondDifferentialReport"),
        (shadows, "ConicState conic_point conic_shadow line_LH_shadow"),
        (sequences, "DecimalTruncation Decomposition RationalFunctionOfN asymptotic_embed "
                    "decompose parse_sequence"),
    ]:
        names.update((name, getattr(module, name)) for name in public.split())
    return names


# ---------------------------------------------------------------------------
# Seeded inputs, written as call text
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, big: bool = False) -> F:
    c = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return c + BIG if big else c


def _spec(rng: random.Random, lattice: int, big: bool = False) -> str:
    """A seeded number on the lattice (1/lattice)Z, as ``N``'s text: up to four terms,
    the leading coefficient a sixth power half the time (so that its square and cube
    roots exist), and an ``O()`` tail a third of the time or when it has no terms."""
    count = rng.choice((0, 1, 1, 2, 3, 4))
    exponents = sorted(rng.sample(range(-lattice, 3 * lattice), count))
    coefficients = [_rational(rng, big) for _ in exponents]
    if coefficients and rng.random() < 0.5:
        coefficients[0] = rng.choice((-1, 1, 1)) * _rational(rng) ** 6
    parts = [f"{c}@{F(e, lattice)}" for e, c in zip(exponents, coefficients)]
    if not parts or rng.random() < 1 / 3:
        top = exponents[-1] + 1 if exponents else rng.randint(-lattice, 2 * lattice)
        parts.append(f"O@{F(rng.randint(top, top + 2 * lattice), lattice)}")
    return f"N('{' '.join(parts)}')"


def _kernel_calls() -> list[str]:
    calls = []
    for lattice in LATTICES:
        for depth in DEPTHS:
            rng = random.Random(f"kernel {lattice} {depth}")
            for _ in range(2):
                big = depth < 16 and rng.random() < 0.25
                a, b = _spec(rng, lattice, big), _spec(rng, rng.choice(LATTICES))
                alpha = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                calls += [
                    f"{a} + {b}", f"{a} - {b}", f"{a} * {b}", f"{a}.compare({b})",
                    f"{a}.inv({depth})", f"{a}.nth_root({rng.randint(2, 3)}, {depth})",
                    f"{a}.pow_rational(F({alpha.numerator}, {alpha.denominator}), {depth})",
                    f"{a}.pow_int({rng.randint(-3, 4)}, {depth})",
                    f"{a}.st()", f"{a}.tlh()", f"{a}.order_class()",
                ]
    return calls


def _tree(rng: random.Random, names: str, depth: int = 3) -> str:
    """A seeded expression source over the variables in ``names``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*names, *names, str(rng.randint(1, 9)), f"0.{rng.randint(1, 99)}"])
    a, b = _tree(rng, names, depth - 1), _tree(rng, names, depth - 1)
    op = rng.choice("+-*/^^ns")
    if op == "^":
        exponent = rng.choice(("2", "3", "-1", "(1/2)", "(-1/3)", "(2/3)"))
        return f"({a})^{exponent}"
    if op == "n":
        return f"-({a})"
    if op == "s":
        return f"sqrt({a})"
    return f"({a}) {op} ({b})"


def _binding(rng: random.Random, names: str, value) -> str:
    return "{" + ", ".join(f"'{name}': {value(rng)}" for name in names) + "}"


def _expression_calls() -> list[str]:
    rng = random.Random("expressions")
    calls = []
    for depth in DEPTHS:
        for _ in range(12):
            src = _tree(rng, "xy")
            binding = _binding(rng, "xy", lambda r: _spec(r, r.choice((1, 2, 3, 6))))
            calls.append(f"eval_field(parse('{src}'), {binding}, {depth})")
    for _ in range(30):
        src = _tree(rng, "xy")
        binding = _binding(rng, "xy", lambda r: f"F('{_rational(r) ** r.choice((1, 6))}')")
        calls.append(f"eval_rational(parse('{src}'), {binding})")
    for _ in range(20):
        src = _tree(rng, "xyz")
        calls += [f"render(parse('{src}'))", f"repr(parse('{src}'))"]
    return calls


def _analysis_calls() -> list[str]:
    rng = random.Random("analyses")
    calls = []
    for depth in DEPTHS:
        for _ in range(6):
            f, x0 = _tree(rng, "x", 2), _rational(rng)
            calls.append(f"derivative(parse('{f}'), F('{x0}'), {depth})")
        for _ in range(3):
            v, g = _tree(rng, "x", 2), f"x^2 + {rng.randint(1, 5)}*x"
            a, t0 = _rational(rng), _rational(rng)
            calls.append(f"second_differential_check(parse('{v}'), F('{a}'), parse('{g}'), "
                         f"F('{t0}'), {depth})")
        unlimited = ["H", "N('1@-1 2@0')", "N('3@-2 O@1')", "N('1@-1/2 O@1/2')", "5", "N('O@-1')"]
        for H in unlimited:
            samples = ", ".join(f"F('{_rational(rng)}')" for _ in range(3))
            x = _rational(rng)
            calls += [
                f"conic_shadow({H}, [{samples}], {depth})",
                f"conic_point({H}, F('{x}'), {depth})",
                f"line_LH_shadow(F('{x}'), {H}, {depth})",
            ]
        calls.append(f"line_LH_shadow({rng.randint(-9, 9)}, None, {depth})")
        for _ in range(4):
            p, q = _tree(rng, "n", 1), _tree(rng, "n", 2).replace("^(1/2)", "^2")
            src = f"({p})/({q})".replace("sqrt", "")
            calls += [f"asymptotic_embed(parse_sequence('{src}'), {depth})",
                      f"decompose(parse_sequence('{src}'))"]
    calls += ["decompose(parse_sequence('const:pi:5'))", "decompose(parse_sequence('1 + 1/n'))",
              "decompose(parse_sequence('n'))"]
    return calls


#: The repr of every record type, of OrderClass and of nodes, and text past the digit
#: limit; the last rows raise a power past it, and one of them cancels it again.
_REPR_CALLS = [
    "repr(derivative(parse('x^3 - 2*x'), F(2), 4))",
    "repr(product_rule_trace(F(2), F(-1, 3), N('1@1'), N('2@1 O@3')))",
    "repr(second_differential_check(parse('x'), F(2), parse('t^2 + t'), F(1), 4))",
    "repr(conic_shadow(H, [0, 2, 4], 4))",
    "repr(transfer_check(parse('(x + 1)^2'), parse('x^2 + 2*x + 1'), trials=2))",
    "repr(transfer_check(parse('x*x'), parse('x + x'), trials=1))",
    "repr(TransferFailure('field', {'x': '2'}, 'difference 3'))",
    "repr(TransferReport(0, 1, []))",
    "repr(parse_sequence('(n^2 + 1)/(2*n^2 - 3)'))",
    "repr(parse_sequence('const:sqrt2:7'))",
    "repr(DecimalTruncation('pi', 5, F(-2, 7)))",
    "repr(Decomposition(F(3, 4), -1))",
    "repr(Decomposition('e', 1))",
    "repr(DiffResult(F(True), N('1@0')))",
    "repr(ConicState((F(1, 4), F(0), F(-1)), ((F(0), F(-1)),)))",
    "repr(N('-3@1/2 1@1').order_class())",
    "repr(N('O@2').order_class())",
    "repr(Lit(F(3, 2)))",
    "repr(Var('x_1'))",
    "repr(Pow(Var('x'), F(-2, 3)))",
    "repr(Lit(F(10**4400)))",
    "repr(Pow(Var('x'), F(1, 10**4400)))",
    "repr(Decomposition(F(10**4400), 1))",
    "repr(derivative(parse('x^3'), 10**2200))",
    "repr(conic_shadow(H, [10**2200, 0, 1]))",
    "repr(DecimalTruncation('pi', 5, F(10**4400)))",
    "repr(LCNumber.monomial(1, 10**4400).order_class())",
    "repr(ConicState((F(10**4400), 0, 0), ()))",
    "str(LCNumber.from_rational(10**4400))",
    "str(N('1@0 1@1').pow_int(3) * 10**4400)",
    "rational_text(rational_nth_root(F(2), 1, 20000))",
    "rational_text(rational_nth_root(F(9, 4), 2, 30000))",
    "rational_nth_root(F(2), 1, 20000) / rational_nth_root(F(2), 1, 19999)",
    "N('2@0').pow_int(20000) - N('2@0').pow_int(20000)",
    "N('3@1/2 1@1 O@2').pow_int(20000, 4)",
    "N('3@0 O@1').pow_int(20000) - N('3@0 O@1').pow_int(20000)",
    "N('1/2@0').pow_rational(F(-20000, 1), 4)",
    "eval_rational(parse('x^3/x^2'), {'x': 2 * 10**2200})",
    "eval_field(parse('x^3/x^2'), {'x': 2 * 10**2200})",
    "eval_field(parse('x^(20000/3) - x^(20000/3)'), {'x': 8})",
]


def calls() -> list[str]:
    """Every call text of the corpus, in order."""
    return _kernel_calls() + _expression_calls() + _analysis_calls() + _REPR_CALLS


def outcome(call: str, namespace: dict) -> str:
    """``str`` of the call's result, or ``Class: message`` of the LCError it raises."""
    from lcfield.errors import LCError

    try:
        return str(eval(call, namespace))
    except LCError as exc:
        return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def default_digit_limit():
    """CPython's default limit of 4,300 digits on int-string conversion, restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def rows() -> list[str]:
    """The corpus, one JSON line per call."""
    namespace = _namespace()
    with default_digit_limit():
        return [json.dumps({"call": call, "outcome": outcome(call, namespace)}) + "\n"
                for call in calls()]


def main() -> None:
    lines = rows()
    CORPUS.write_text("".join(lines))
    print(f"{len(lines)} rows written to {CORPUS.relative_to(REPO)}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    main()
