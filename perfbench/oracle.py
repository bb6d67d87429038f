"""References that do not come from lcfield, and the checks against them.

* series coefficients and derivative values: sympy (``diff`` for values,
  ``ring_series`` over QQ for the inverse, root and power series);
* conic points: ``y0 = x0^2/4 - 1``;
* identities, compare answers and expected ``UndecidableError``: by
  construction of the inputs (see cases.py);
* CLI output: the JSON schema in ``schemas/`` and the values above, read
  back from the printed text with a parser of the documented canonical form.

Each check returns None when the output is right and a message otherwise.
Everything here runs after the timed loop, outside every timed span.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import jsonschema
import sympy as sp
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_nth_root, rs_pow, rs_series_inversion
from sympy.polys.rings import ring

_X, _E = sp.symbols("x e")
_RING, _T = ring("T", QQ)


def _frac(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _coeffs(series, upto: int) -> dict:
    """{k: coefficient of T^k} for 0 <= k < upto, nonzero ones only."""
    out = {}
    for (k,), c in series.items():
        if k < upto and c:
            out[k] = _frac(c)
    return out


def _terms(out) -> tuple[dict, Fraction | None]:
    terms, trunc = out
    return {Fraction(q): Fraction(c) for q, c in terms}, None if trunc is None else Fraction(trunc)


# ---------------------------------------------------------------------------
# series-deep
# ---------------------------------------------------------------------------


def _sym_poly(coeffs, var):
    return sum(c * var ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))


def _sym_expr(components):
    f = 0
    for comp in components:
        if comp["kind"] == "div":
            body = _sym_poly(comp["num"], _X) / _sym_poly(comp["den"], _X)
        elif comp["kind"] == "sqrt":
            body = sp.sqrt(_sym_poly(comp["poly"], _X))
        else:
            body = _sym_poly(comp["poly"], _X) ** sp.Rational(comp["p"], comp["q"])
        f += comp["scale"] * body
    return f


def _ring_poly_at(coeffs, x0):
    """The polynomial evaluated at x0 + T, as a ring element."""
    p = _RING(0)
    for c in coeffs:
        p = p * (x0 + _T) + c
    return p


def _ring_series(components, x0, prec):
    """Power series of f(x0 + T) up to T^prec, by sympy's ring_series."""
    total = _RING(0)
    for comp in components:
        if comp["kind"] == "div":
            body = rs_mul(_ring_poly_at(comp["num"], x0),
                          rs_series_inversion(_ring_poly_at(comp["den"], x0), _T, prec), _T, prec)
        elif comp["kind"] == "sqrt":
            body = rs_nth_root(_ring_poly_at(comp["poly"], x0), 2, _T, prec)
        else:
            p, q = comp["p"], comp["q"]
            body = rs_nth_root(rs_pow(_ring_poly_at(comp["poly"], x0), abs(p), _T, prec), q, _T, prec)
            if p < 0:
                body = rs_series_inversion(body, _T, prec)
        total += comp["scale"] * body
    return total


def _check_truncated(got: dict, trunc, floor, ceiling, reference) -> str | None:
    """`got` must equal the reference below `trunc`, with floor <= trunc <= ceiling.

    An exact result (no truncation order) must equal the reference up to the
    ceiling. `reference(k)` gives {exponent: coeff} for every exponent below k.
    """
    if trunc is None:
        # Claimed exact: the reference must end below the ceiling.
        want = reference(ceiling)
        trunc = ceiling
    elif not floor <= trunc <= ceiling:
        return f"truncation order {trunc} outside [{floor}, {ceiling}]"
    else:
        want = reference(trunc)
    if got != want:
        bad = sorted(set(got) ^ set(want) | {q for q in got if q in want and got[q] != want[q]})
        return f"coefficients differ from the reference at exponents {[str(b) for b in bad[:5]]}"
    return None


def _quotient_reference(components, x0):
    """k -> coefficients of (f(x0+e) - f(x0))/e below e^k."""
    def ref(k):
        upto = math.ceil(k)
        s = _ring_series(components, x0, upto + 1)
        return {Fraction(j - 1): c for j, c in _coeffs(s, upto + 1).items() if j >= 1 and j - 1 < k}
    return ref


def _embed_reference(p, q):
    """k -> coefficients of p(1/e)/q(1/e) below e^k."""
    shift = (len(q) - 1) - (len(p) - 1)

    def ref(k):
        upto = max(0, math.ceil(k - shift))
        num = sum((c * _T**i for i, c in enumerate(p)), _RING(0))
        den = sum((c * _T**i for i, c in enumerate(q)), _RING(0))
        s = rs_mul(num, rs_series_inversion(den, _T, upto), _T, upto)
        return {Fraction(j + shift): c for j, c in _coeffs(s, upto).items() if j + shift < k}
    return ref, shift


def _is_raise(out) -> bool:
    return isinstance(out, list) and len(out) == 3 and out[0] == "raise"


def check_series_deep(spec: dict, key: str, out) -> str | None:
    depth, embed_depth = spec["depth"], spec["embed_depth"]
    kind, i = key.split("/")
    i = int(i)
    if kind == "embed":
        seq = spec["sequences"][i]
        ref, shift = _embed_reference(seq["p"], seq["q"])
        got, trunc = _terms(out)
        return _check_truncated(got, trunc, shift + embed_depth, shift + 4 * embed_depth, ref)
    case = spec["cases"][i]
    f, x0 = _sym_expr(case["components"]), case["x0"]
    order = 1 if kind == "derivative" else 2
    want = sp.diff(f, _X, order).subs(_X, x0)
    value = out[0] if kind == "derivative" else out
    if not want.is_Rational or Fraction(value) != Fraction(str(want)):
        return f"derivative {value} != reference {want}"
    if kind == "second_derivative":
        return None
    got, trunc = _terms(out[1])
    return _check_truncated(got, trunc, depth - 1, 4 * depth,
                            _quotient_reference(case["components"], x0))


# ---------------------------------------------------------------------------
# mixed-exponents
# ---------------------------------------------------------------------------

_SIGN = {1: "GT", -1: "LT"}


def check_mixed_exponents(spec: dict, key: str, out) -> str | None:
    kind, i = key.split("/")
    i = int(i)
    if kind == "compare":
        c = spec["compares"][i]
        want = [_SIGN[c["sign_w"]], "EQ" if c["uv_exact"] else "UndecidableError",
                _SIGN[c["sign_w2"]], "UndecidableError", "UndecidableError", "UndecidableError"]
        return None if out == want else f"answers {out} != {want}"
    if kind == "transfer_check":
        ok, n_failures = out[0], out[1]
        return None if ok is True and n_failures == 0 else f"identity reported broken: {out[4]}"
    if kind == "conic_shadow":
        samples = [Fraction(s) for s in spec["conics"][i]["samples"]]
        want = [["1/4", "0", "-1"], [[str(x), str(x * x / 4 - 1)] for x in samples]]
        return None if out == want else f"conic {out} != {want}"
    nonzero = [r for r in out if r[0]]
    return None if len(out) == 4 and not nonzero else f"residuals with terms: {nonzero[:1]}"


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?eps(?:\^\(([^)]+)\))?$|^(\d+(?:/\d+)?)$")
_TAIL_RE = re.compile(r"(?:^| \+ )O\(eps\^\(([^)]+)\)\)$")


def parse_canonical(text: str) -> tuple[dict, Fraction | None]:
    """Read a number printed in the canonical form of docs/grammar.md."""
    trunc = None
    m = _TAIL_RE.search(text)
    if m:
        trunc = Fraction(m.group(1))
        text = text[: m.start()]
    terms = {}
    if text in ("", "0"):
        return terms, trunc
    sign, pieces = 1, re.split(r" ([+-]) ", text)
    if pieces[0].startswith("-"):
        sign, pieces[0] = -1, pieces[0][1:]
    for j, body in enumerate(pieces):
        if j % 2 == 1:
            sign = 1 if body == "+" else -1
            continue
        t = _TERM_RE.match(body)
        if not t:
            raise ValueError(f"not a canonical term: {body!r}")
        if t.group(3) is not None:
            q, c = Fraction(0), Fraction(t.group(3))
        else:
            q = Fraction(t.group(2)) if t.group(2) else Fraction(1)
            c = Fraction(t.group(1)) if t.group(1) else Fraction(1)
        terms[q] = sign * c
    return terms, trunc


def _sym_series_terms(expr) -> dict:
    out = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        c, q = term.as_coeff_exponent(_E)
        if c:
            out[Fraction(str(q))] = out.get(Fraction(str(q)), 0) + Fraction(str(c))
    return {q: c for q, c in out.items() if c}


class CliOracle:
    def __init__(self, root: str):
        with open(f"{root}/schemas/cli-output.schema.json") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self._diff_refs: dict = {}

    def _diff_ref(self, src: str, x0: int):
        if (src, x0) not in self._diff_refs:
            f = sp.sympify(src.replace("^", "**"), locals={"x": _X})
            value = sp.diff(f, _X).subs(_X, x0)
            quotient = (f.subs(_X, x0 + _E) - f.subs(_X, x0)) / _E

            def ref(k, quotient=quotient):
                s = sp.series(quotient, _E, 0, math.ceil(k)).removeO()
                return {q: c for q, c in _sym_series_terms(s).items() if q < k}

            self._diff_refs[src, x0] = (value, ref)
        return self._diff_refs[src, x0]

    def check(self, inv: dict, out) -> str | None:
        rc, stdout, stderr = out
        c = inv["check"]
        if c["kind"] == "error":
            if rc == 1 and stdout == "" and stderr.startswith("error: "):
                return None
            return f"expected exit 1 with a message, got {rc}: {stderr!r}"
        if rc != 0 or stderr:
            return f"exit {rc}: {stderr!r}"
        if c.get("json"):
            payload = json.loads(stdout)
            errors = list(self.validator.iter_errors(payload))
            if errors:
                return f"schema: {errors[0].message}"
            fields = payload["result"]
        else:
            fields = None
        return getattr(self, f"_{c['kind']}")(c, stdout, fields)

    def _eval(self, c, stdout, fields):
        text = fields["value"] if fields else stdout.rstrip("\n")
        at = {k: sum(Fraction(co) * _E ** sp.Rational(str(q)) for q, co in v) for k, v in c["at"].items()}
        f = sp.sympify(c["expr"].replace("^", "**"), locals={k: sp.Symbol(k) for k in at})
        want = _sym_series_terms(f.subs({sp.Symbol(k): v for k, v in at.items()}))
        return None if parse_canonical(text) == (want, None) else f"eval {text} != {want}"

    def _diff(self, c, stdout, fields):
        if fields:
            value, pre = fields["derivative"], fields["pre_shadow"]
        else:
            value, _, pre = stdout.rstrip("\n").partition("\npre_shadow = ")
        want, ref = self._diff_ref(c["src"], c["x0"])
        if Fraction(value) != Fraction(str(want)):
            return f"derivative {value} != {want}"
        got, trunc = parse_canonical(pre)
        return _check_truncated(got, trunc, 15, 64, ref)

    def _shadow(self, c, stdout, fields):
        got = fields["standard_part"] if fields else stdout.rstrip("\n")
        return None if got == c["expect"] else f"shadow {got} != {c['expect']}"

    def _tlh(self, c, stdout, fields):
        got = parse_canonical(fields["value"] if fields else stdout.rstrip("\n"))
        want = ({Fraction(c["lead"][0]): Fraction(c["lead"][1])}, None)
        return None if got == want else f"tlh {got} != {want}"

    def _conic(self, c, stdout, fields):
        xs = [Fraction(s) for s in c["samples"]]
        pts = [(x, x * x / 4 - 1) for x in xs]
        if fields:
            want = {"coefficients": {"A": "1/4", "B": "0", "C": "-1"}, "equation": "y0 = 1/4*x0^2 - 1",
                    "points": [{"x": str(x), "y": str(y)} for x, y in pts]}
            return None if fields == want else f"conic {fields} != {want}"
        want = "y0 = 1/4*x0^2 - 1; points: " + " ".join(f"({x},{y})" for x, y in pts) + "\n"
        return None if stdout == want else f"conic {stdout!r} != {want!r}"

    def _seq(self, c, stdout, fields):
        p, q = c["p"], c["q"]
        limit = Fraction(p[0], q[0]) if len(p) == len(q) else Fraction(0)
        # Residue p - limit*q, descending, aligned on the degree of q.
        padded = [0] * (len(q) - len(p)) + p
        residue = [a - limit * b for a, b in zip(padded, q)]
        lead = next((r for r in residue if r), 0)
        if lead == 0:
            sign = "zero"
        else:
            sign = "positive" if (lead > 0) == (q[0] > 0) else "negative"
        if fields:
            st, res, emb = (fields["decomposition"]["standard_part"],
                            fields["decomposition"]["residue_sign"], fields.get("embedding", ""))
        else:
            lines = dict(line.split(": ", 1) for line in stdout.rstrip("\n").split("\n"))
            st, res, emb = lines["standard part"], lines["residue sign"], lines.get("embedding", "")
        if st != str(limit) or res != sign:
            return f"decomposition ({st}, {res}) != ({limit}, {sign})"
        ref, shift = _embed_reference(p, q)
        got, trunc = parse_canonical(emb)
        return _check_truncated(got, trunc, shift + 16, shift + 64, ref)

    def _zoom(self, c, stdout, fields):
        if fields:
            return None if fields["standard_part"] == c["st"] else f"zoom st {fields['standard_part']}"
        ok = stdout.startswith("<svg") and f"eps-scale around {c['st']}<" in stdout
        return None if ok else "zoom svg lacks the standard-part pane"


def check(spec: dict, first: dict, root: str) -> dict:
    """Verdict per op key: None when its output is right, else a message."""
    if spec["workload"] == "series-deep":
        def one(key, out):
            return check_series_deep(spec, key, out)
    elif spec["workload"] == "mixed-exponents":
        def one(key, out):
            return check_mixed_exponents(spec, key, out)
    else:
        oracle = CliOracle(root)

        def one(key, out):
            session = spec["sessions"][int(key.split("/")[1])]
            for inv, result in zip(session, out):
                msg = oracle.check(inv, result)
                if msg:
                    return f"{' '.join(inv['argv'])}: {msg}"
            return None if len(out) == len(session) else "session cut short"
    verdicts = {}
    for key, out in first.items():
        if _is_raise(out):
            verdicts[key] = f"raised {out[1]}: {out[2]}"
            continue
        try:
            verdicts[key] = one(key, out)
        except Exception as exc:  # output the checks cannot read is wrong output
            verdicts[key] = f"output not readable: {exc!r}"
    return verdicts
