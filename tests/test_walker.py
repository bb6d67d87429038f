"""The one tree walk (expr._preorder) behind every evaluator and every node method.

The recursive evaluators the walker replaced, and the recursive ``repr`` and
``==`` that dataclass nodes had, are kept below as the reference.  Random
trees must give the same value (or string, or name set) both ways; where one
side raises, the other must raise too.  Trees far deeper than Python's
recursion limit must evaluate, compare, hash, print and pickle without
recursion.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from lcfield import expr
from lcfield.errors import (
    NotAnNthPowerError,
    NotAPerfectSquareError,
    UnboundVariableError,
    ZeroDivisionLCError,
)
from lcfield.expr import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Node,
    Pow,
    Sqrt,
    Sub,
    Var,
    _RENDER,
    _REPR,
    _decimal_str,
    _render_exponent,
    eval_field,
    eval_rational,
    free_vars,
    parse,
    random_field_value,
    render,
)
from lcfield.number import EPS, LCNumber, rational_nth_root
from test_expr import expr_trees

# ---------------------------------------------------------------------------
# Reference: one recursive isinstance chain per evaluator
# ---------------------------------------------------------------------------


def ref_free_vars(e):
    if isinstance(e, Var):
        return frozenset([e.name])
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return ref_free_vars(e.left) | ref_free_vars(e.right)
    if isinstance(e, (Neg, Sqrt)):
        return ref_free_vars(e.operand)
    if isinstance(e, Pow):
        return ref_free_vars(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def ref_render(e):
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        if e.value < 0:
            return f"(-{ref_render(Lit(-e.value))})"
        dec = _decimal_str(e.value)
        if dec is not None:
            return dec
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Add):
        return f"({ref_render(e.left)} + {ref_render(e.right)})"
    if isinstance(e, Sub):
        return f"({ref_render(e.left)} - {ref_render(e.right)})"
    if isinstance(e, Mul):
        return f"({ref_render(e.left)}*{ref_render(e.right)})"
    if isinstance(e, Div):
        return f"({ref_render(e.left)}/{ref_render(e.right)})"
    if isinstance(e, Neg):
        return f"(-{ref_render(e.operand)})"
    if isinstance(e, Pow):
        return f"({ref_render(e.base)}^{_render_exponent(e.exponent)})"
    if isinstance(e, Sqrt):
        return f"sqrt({ref_render(e.operand)})"
    raise TypeError(f"not an expression node: {e!r}")


def ref_eval_field(e, binding, depth=16):
    if isinstance(e, Var):
        try:
            value = binding[e.name]
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
        return LCNumber._coerce(value)
    if isinstance(e, Lit):
        return LCNumber.from_rational(e.value)
    if isinstance(e, Add):
        return ref_eval_field(e.left, binding, depth) + ref_eval_field(e.right, binding, depth)
    if isinstance(e, Sub):
        return ref_eval_field(e.left, binding, depth) - ref_eval_field(e.right, binding, depth)
    if isinstance(e, Mul):
        return ref_eval_field(e.left, binding, depth) * ref_eval_field(e.right, binding, depth)
    if isinstance(e, Div):
        num = ref_eval_field(e.left, binding, depth)
        den = ref_eval_field(e.right, binding, depth)
        return num * den.inv(depth)
    if isinstance(e, Neg):
        return -ref_eval_field(e.operand, binding, depth)
    if isinstance(e, Pow):
        base = ref_eval_field(e.base, binding, depth)
        q = e.exponent
        if q.denominator == 1:
            return base.pow_int(q.numerator, depth)
        return base.pow_rational(q, depth)
    if isinstance(e, Sqrt):
        return ref_eval_field(e.operand, binding, depth).nth_root(2, depth)
    raise TypeError(f"not an expression node: {e!r}")


def ref_eval_rational(e, binding):
    """Evaluates a Div's right operand first; the walker goes left to right."""
    if isinstance(e, Var):
        try:
            return F(binding[e.name])
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Add):
        return ref_eval_rational(e.left, binding) + ref_eval_rational(e.right, binding)
    if isinstance(e, Sub):
        return ref_eval_rational(e.left, binding) - ref_eval_rational(e.right, binding)
    if isinstance(e, Mul):
        return ref_eval_rational(e.left, binding) * ref_eval_rational(e.right, binding)
    if isinstance(e, Div):
        den = ref_eval_rational(e.right, binding)
        if den == 0:
            raise ZeroDivisionLCError("division by zero")
        return ref_eval_rational(e.left, binding) / den
    if isinstance(e, Neg):
        return -ref_eval_rational(e.operand, binding)
    if isinstance(e, Pow):
        base = ref_eval_rational(e.base, binding)
        q = e.exponent
        if q < 0 and base == 0:
            raise ZeroDivisionLCError("zero to a negative power")
        if q.denominator == 1:
            return base**q.numerator
        return rational_nth_root(base**q.numerator, q.denominator)
    if isinstance(e, Sqrt):
        val = ref_eval_rational(e.operand, binding)
        try:
            return rational_nth_root(val, 2)
        except NotAnNthPowerError:
            raise NotAPerfectSquareError(f"{val} is not a perfect rational square") from None
    raise TypeError(f"not an expression node: {e!r}")


def ref_repr(e):
    if isinstance(e, Var):
        return f"Var(name={e.name!r})"
    if isinstance(e, Lit):
        return f"Lit(value={e.value!r})"
    if isinstance(e, (Add, Sub, Mul, Div)):
        return f"{type(e).__name__}(left={ref_repr(e.left)}, right={ref_repr(e.right)})"
    if isinstance(e, (Neg, Sqrt)):
        return f"{type(e).__name__}(operand={ref_repr(e.operand)})"
    if isinstance(e, Pow):
        return f"Pow(base={ref_repr(e.base)}, exponent={e.exponent!r})"
    raise TypeError(f"not an expression node: {e!r}")


def ref_eq(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Lit):
        return a.value == b.value
    if isinstance(a, (Add, Sub, Mul, Div)):
        return ref_eq(a.left, b.left) and ref_eq(a.right, b.right)
    if isinstance(a, (Neg, Sqrt)):
        return ref_eq(a.operand, b.operand)
    if isinstance(a, Pow):
        return a.exponent == b.exponent and ref_eq(a.base, b.base)
    raise TypeError(f"not an expression node: {a!r}")


def outcome(fn, *args):
    """("ok", value) or ("raise", class name, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


class TestAgainstReference:
    @given(expr_trees())
    @settings(max_examples=300)
    def test_render_and_free_vars(self, tree):
        assert render(tree) == ref_render(tree)
        assert free_vars(tree) == ref_free_vars(tree)

    @given(expr_trees(), st.integers(0, 2**32), st.sampled_from([1, 4, 16]))
    @settings(max_examples=300)
    def test_eval_field(self, tree, seed, depth):
        # Field evaluation kept its left-to-right order: values and errors match.
        rng = random.Random(seed)
        binding = {name: random_field_value(rng) for name in "xyz"}
        assert outcome(eval_field, tree, binding, depth) == outcome(ref_eval_field, tree, binding, depth)

    @given(expr_trees(), rationals, rationals, rationals)
    @settings(max_examples=300)
    def test_eval_rational(self, tree, x, y, z):
        binding = {"x": x, "y": y, "z": z}
        got = outcome(eval_rational, tree, binding)
        expected = outcome(ref_eval_rational, tree, binding)
        if "ok" in (got[0], expected[0]):
            assert got == expected
        # Both raise; with two faults in one tree each order may report the other one.

    @given(expr_trees(), expr_trees())
    @settings(max_examples=300)
    def test_repr_eq_and_hash(self, a, b):
        assert repr(a) == ref_repr(a)
        assert (a == b) == ref_eq(a, b) and (a != b) != ref_eq(a, b)
        if a == b:
            assert hash(a) == hash(b)
        rebuilt = pickle.loads(pickle.dumps(a))
        assert rebuilt is not a and rebuilt == a and ref_eq(rebuilt, a)
        assert hash(rebuilt) == hash(a) and repr(rebuilt) == repr(a)

    def test_two_faults_report_the_left_one(self):
        tree = parse("sqrt(0.5)/0")
        with pytest.raises(NotAPerfectSquareError):
            eval_rational(tree, {})
        with pytest.raises(ZeroDivisionLCError):
            ref_eval_rational(tree, {})


SUM = "+".join(["x"] * 5000)
CHAIN = "x" + "^1" * 3000


class TestDeepTrees:
    """Far deeper than the recursion limit; the reference would overflow."""

    def test_long_sum(self):
        tree = parse(SUM)
        assert eval_field(tree, {"x": EPS}) == EPS * 5000
        assert eval_rational(tree, {"x": F(3, 2)}) == 7500
        assert render(tree) == "(" * 4999 + "x" + " + x)" * 4999
        assert free_vars(tree) == {"x"}

    def test_long_power_chain(self):
        tree = parse(CHAIN)
        assert eval_field(tree, {"x": EPS + 2}) == EPS + 2
        assert eval_rational(tree, {"x": F(-3)}) == -3
        assert render(tree) == "(" * 3000 + "x" + "^1)" * 3000
        assert free_vars(tree) == {"x"}

    def test_long_negation_chain(self):
        tree = parse("0+" + "-" * 1001 + "x")
        assert eval_rational(tree, {"x": F(2)}) == -2
        assert render(tree) == "(0 + " + "(-" * 1001 + "x" + ")" * 1002


    @pytest.mark.parametrize("src, head", [(SUM, "Add(left=Add("), (CHAIN, "Pow(base=Pow(")])
    def test_node_methods(self, src, head):
        tree, again = parse(src), parse(src)
        assert tree == again and hash(tree) == hash(again)
        assert repr(tree).startswith(head)
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree


class TestNodes:
    def test_equality_follows_the_dataclass_rules(self):
        assert Lit(1) == Lit(F(1)) and hash(Lit(1)) == hash(Lit(F(1)))
        assert Add(Var("a"), Var("b")) != Sub(Var("a"), Var("b"))
        assert Var("x") != "x" and Var("x").__eq__("x") is NotImplemented
        assert Var("x").__eq__(Lit(1)) is NotImplemented

    def test_fields_cannot_be_assigned(self):
        tree = Add(Var("x"), Lit(F(1)))
        with pytest.raises(AttributeError):
            tree.left = Var("y")
        with pytest.raises(AttributeError):
            del tree.right
        with pytest.raises(AttributeError):
            tree.extra = 1
        assert tree.left == Var("x")

    @pytest.mark.parametrize(
        "make",
        [lambda: Add(Var("x")), lambda: Neg(), lambda: Pow(Var("x"), F(2), F(3)), lambda: Var()],
    )
    def test_wrong_arity_is_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_every_total_table_covers_every_node_type(self, monkeypatch):
        rings = []
        fold = expr.fold
        monkeypatch.setattr(expr, "fold", lambda e, ring: rings.append(ring) or fold(e, ring))
        eval_field(parse("x"), {"x": EPS})
        eval_rational(parse("x"), {"x": F(1)})
        nodes = set(Node.__subclasses__())
        assert len(nodes) == 9 and len(rings) == 2
        for table in (_RENDER, _REPR, *rings):
            assert set(table) == nodes
