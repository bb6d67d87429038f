"""A small expression language evaluated verbatim over the enriched field.

The same syntax tree can be evaluated over plain rationals (:func:`eval_rational`)
or over :class:`~lcfield.number.LCNumber` values (:func:`eval_field`); each is a
table of rules for :func:`fold`.  The node table states the tree's shape once, and
every walk over a tree, ``==``, ``hash``, ``repr`` and pickle included, is one loop.
Nothing in the evaluator special-cases infinitesimal or unlimited inputs: rules
instituted on finite rationals are applied unchanged to inassignable values, and
:func:`transfer_check` probes that this actually preserves identities.

Grammar (also in docs/grammar.md)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , { "^" , exponent } ;
    atom     = NUMBER | NAME | "sqrt" , "(" , expr , ")" | "(" , expr , ")" ;
    exponent = [ "-" ] , NUMBER
             | "(" , [ "-" ] , NUMBER , [ "/" , NUMBER ] , ")" ;

NUMBER is an unsigned integer or decimal literal of digits ``[0-9]`` (read
exactly, never as a float); NAME matches ``[a-zA-Z][a-zA-Z0-9_]*``.  ``^`` binds
tighter than unary minus; ``*``/``/`` and ``+``/``-`` are left-associative.  ``(``
and ``sqrt(`` nest at most :data:`MAX_NESTING` deep.
"""

from __future__ import annotations

import operator
import random
import re
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional

from .errors import (
    CoercionError,
    InvalidArgumentError,
    NotAnNthPowerError,
    NotAPerfectSquareError,
    ParseError,
    UnboundVariableError,
    UndecidableError,
    ZeroDivisionLCError,
)
from .number import (
    DEFAULT_DEPTH, LCNumber, _Cursor, _exact, _typed, rational_nth_root, rational_text, record,
)


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------


class Node:
    """An immutable, slotted syntax-tree node.  Its type is a row of the table below:
    ``OPERANDS`` names the subtree fields in evaluation order, ``DATA`` the field whose
    value follows theirs into a ring, or ``None``.  Arities are fixed, so the flat
    ``(type, data)`` :func:`_preorder` that ``==``, ``hash`` and pickle use fixes the tree."""

    __slots__ = ()
    OPERANDS: tuple = ()
    DATA: Optional[str] = None

    def __init__(self, *values):
        """The fields in slot order, operands first; each operand must be a node.  The base
        class has no row in any table, so it cannot be built."""
        if type(self) is Node:
            raise CoercionError("Expr is the base of the node types and cannot be built")
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        operands = len(self.OPERANDS)
        for i, value in enumerate(values):
            object.__setattr__(self, fields[i], _checked(value) if i < operands else value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return _preorder(self) == _preorder(other) if same_type else NotImplemented

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        return _typed(fold, self, _REPR)

    def __reduce__(self):
        return _evaluate, (_preorder(self), _NODES)


_REPR: dict = {}  # each node type to the format of a dataclass repr; its data prints by {!r}


def _checked(node):
    """``node`` if it is a syntax-tree node; anything else cannot be walked."""
    if not isinstance(node, Node):
        raise CoercionError(f"not an expression node: {node!r}")
    return node


def _node(name: str, operands: tuple, data: Optional[str]) -> type:
    """The node type ``name`` with the given operand fields and data field."""
    fields = operands + ((data,) if data else ())
    cls = type(name, (Node,), {"__slots__": fields, "OPERANDS": operands, "DATA": data})
    shown = [f + "={}" for f in operands] + ([data + "={!r}"] if data else [])
    _REPR[cls] = f"{name}({', '.join(shown)})".format
    return cls


Var = _node("Var", (), "name")
Lit = _node("Lit", (), "value")
Add, Sub, Mul, Div = (_node(name, ("left", "right"), None) for name in "Add Sub Mul Div".split())
Neg, Sqrt = (_node(name, ("operand",), None) for name in ("Neg", "Sqrt"))
Pow = _node("Pow", ("base",), "exponent")
Expr = Node
_NODES = {cls: cls for cls in _REPR}  # evaluating a preorder with it rebuilds the tree


def _preorder(e: Expr) -> list:
    """The ``(type, data)`` pair of every node of ``e``, each before its operands,
    the last operand's subtree first: reversed, it is the left-to-right postorder.
    A loop over an explicit stack stands in for recursion, so no tree is too deep."""
    pairs, stack = [], [_checked(e)]
    while stack:
        node = stack.pop()
        cls = type(node)
        pairs.append((cls, cls.DATA and getattr(node, cls.DATA)))
        for name in cls.OPERANDS:
            stack.append(getattr(node, name))
    return pairs


def _evaluate(preorder: list, ring: Mapping[type, Callable]):
    """Call ``ring[type]`` at every node of a :func:`_preorder`, operands first."""
    values: list = []
    for cls, data in reversed(preorder):
        arity = len(cls.OPERANDS)
        if arity:  # a leaf, about half of any tree, skips the slicing
            args = values[-arity:]
            del values[-arity:]
        else:
            args = []
        if cls.DATA is not None:
            args.append(data)
        values.append(ring[cls](*args))
    return values[0]


def fold(e: Expr, ring: Mapping[type, Callable]):
    """Evaluate ``e`` bottom-up, calling ``ring[type(node)]`` at every node.

    A Var's entry gets its name, a Lit's its value, a Pow's its base's value
    and then the exponent, and every other node's entry its operands' values,
    evaluated left to right: one loop down the tree and one back up."""
    return _evaluate(_preorder(e), ring)


def free_vars(e: Expr) -> frozenset:
    return frozenset(data for cls, data in _preorder(e) if cls is Var)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


#: Deepest nesting of "(" and "sqrt(" the parser accepts.  Each level costs
#: six frames of recursive descent; this keeps them far below Python's limit.
MAX_NESTING = 100


class _Parser(_Cursor):
    TOKEN_RE = re.compile(r"([0-9]+\.[0-9]+|[0-9]+)|([a-zA-Z][a-zA-Z0-9_]*)|([+\-*/^()])|(\S)")
    KINDS = ("num", "name", "op")
    nesting = 0

    def expr(self) -> Expr:
        return self.binary(self.term, {"+": Add, "-": Sub})

    def term(self) -> Expr:
        return self.binary(self.unary, {"*": Mul, "/": Div})

    def binary(self, operand: Callable[[], Expr], ops: dict) -> Expr:
        """``operand { op operand }`` for the operators in ``ops``, folded to the left."""
        node = operand()
        while (tok := self.peek()) is not None and tok[1] in ops:
            self.next()
            node = ops[tok[1]](node, operand())
        return node

    def unary(self) -> Expr:
        signs = 0
        while self.accept("-"):
            signs += 1
        node = self.power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def power(self) -> Expr:
        node = self.atom()
        while self.accept("^"):
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> Fraction:
        paren = self.accept("(")
        val = -self.number() if self.accept("-") else self.number()
        if paren:
            if self.accept("/"):
                den_tok = self.peek()
                den = self.number()
                if den.denominator != 1:
                    raise ParseError("denominator must be an integer", den_tok[2])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                val /= den
            self.expect(")")
        return val

    def number(self) -> Fraction:
        tok = self.next()
        if tok[0] != "num":
            raise ParseError(f"expected a number, got {tok[1]!r}", tok[2])
        return Fraction(tok[1])

    def atom(self) -> Expr:
        tok = self.next()
        if tok[0] == "num":
            return Lit(Fraction(tok[1]))
        if tok[0] == "name":
            if tok[1] == "sqrt":
                self.expect("(")
                return Sqrt(self.group(tok))
            if self.at("("):
                raise ParseError(f"unknown function {tok[1]!r}", tok[2])
            return Var(tok[1])
        if tok[1] == "(":
            return self.group(tok)
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def group(self, opener: tuple[str, str, int]) -> Expr:
        """``expr ")"``, one nesting level below the ``opener`` token."""
        if self.nesting == MAX_NESTING:
            raise ParseError("expression nested too deeply", opener[2])
        self.nesting += 1
        inner = self.expr()
        self.expect(")")
        self.nesting -= 1
        return inner

    def parse(self) -> Expr:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node


def parse(src: str) -> Expr:
    return _Parser(_exact(src, (str,))).parse()


# ---------------------------------------------------------------------------
# Rendering (fully parenthesized; parse(render(e)) == e whenever every
# literal has an exact decimal representation)
# ---------------------------------------------------------------------------


def _decimal_str(value: Fraction) -> Optional[str]:
    """Exact decimal string for value >= 0, or None if the denominator
    has a prime factor other than 2 and 5."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    k = max(twos, fives)
    scaled = value.numerator * 10**k // value.denominator
    digits = rational_text(scaled).rjust(k + 1, "0")
    if k == 0:
        return digits
    return f"{digits[:-k]}.{digits[-k:]}"


def _render_exponent(q: Fraction) -> str:
    return rational_text(q) if q.denominator == 1 else f"({rational_text(q)})"


def _render_literal(value: Fraction) -> str:
    mag = abs(value)
    dec = _decimal_str(mag)
    text = dec if dec is not None else f"({rational_text(mag)})"
    return f"(-{text})" if value < 0 else text


_RENDER = {
    Var: str,
    Lit: _render_literal,
    Neg: "(-{})".format,
    Sqrt: "sqrt({})".format,
    Pow: lambda base, exponent: f"({base}^{_render_exponent(exponent)})",
    Add: "({} + {})".format,
    Sub: "({} - {})".format,
    Mul: "({}*{})".format,
    Div: "({}/{})".format,
}


def render(e: Expr) -> str:
    return fold(e, _RENDER)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _lookup(binding: Mapping, convert: Callable) -> Callable:
    """The Var entry of a ring: the bound value of a name, converted."""

    def var(name: str):
        if name not in binding:
            raise UnboundVariableError(f"variable {name!r} is not bound")
        return convert(binding[name])

    return var


# The entries that hold in both rings and do not depend on the call.
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Neg: operator.neg}
_FIELD = {**_ARITHMETIC, Lit: LCNumber.from_rational}


def eval_field(
    e: Expr, binding: Mapping[str, LCNumber], depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """Evaluate over the field, applying finite-realm rules verbatim."""

    def pow_(base: LCNumber, q: Fraction) -> LCNumber:
        if q.denominator == 1:
            return base.pow_int(q.numerator, depth)
        return base.pow_rational(q, depth)

    ring = {**_FIELD, Var: _lookup(binding, LCNumber._coerce), Pow: pow_}
    ring[Div] = lambda num, den: num * den.inv(depth)
    ring[Sqrt] = lambda value: value.nth_root(2, depth)
    return fold(e, ring)


def _rational_div(num: Fraction, den: Fraction) -> Fraction:
    if den == 0:
        raise ZeroDivisionLCError("division by zero")
    return num / den


def _rational_pow(base: Fraction, q: Fraction) -> Fraction:
    if q < 0 and base == 0:
        raise ZeroDivisionLCError("zero to a negative power")
    return rational_nth_root(base, q.denominator, q.numerator)


def _rational_sqrt(value: Fraction) -> Fraction:
    try:
        return rational_nth_root(value, 2)
    except NotAnNthPowerError:
        text = rational_text(value)
        raise NotAPerfectSquareError(f"{text} is not a perfect rational square") from None


_RATIONAL = {
    **_ARITHMETIC,
    Lit: lambda value: value,
    Div: _rational_div,
    Pow: _rational_pow,
    Sqrt: _rational_sqrt,
}


def eval_rational(e: Expr, binding: Mapping[str, Fraction]) -> Fraction:
    """Evaluate over plain rationals (the finite-realm baseline)."""
    return fold(e, {**_RATIONAL, Var: _lookup(binding, lambda value: Fraction(_exact(value)))})


# ---------------------------------------------------------------------------
# Equational transfer check
# ---------------------------------------------------------------------------


@record
class TransferFailure:
    kind: str  # "rational", "field", or "undecidable"
    binding: dict
    detail: str


@record
class TransferReport:
    rational_trials: int
    field_trials: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first_counterexample(self) -> Optional[TransferFailure]:
        return self.failures[0] if self.failures else None


def _random_rational(rng: random.Random, power: int) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9)) ** power


def random_field_value(rng: random.Random, power: int = 1) -> LCNumber:
    """A random binding value: standard, infinitesimal, unlimited, or mixed.

    Each coefficient is a drawn rational raised to ``power``, so every root whose
    index divides ``power`` accepts the value's leading coefficient."""
    kind = rng.randrange(5)
    terms = [(0, _random_rational(rng, power))]
    for sign in (1, -1):  # a coefficient, then its exponent: c*eps^(k), then c*eps^(-k)
        c = _random_rational(rng, power)
        while not c:
            c = _random_rational(rng, power)
        terms.append((sign * rng.randint(1, 3), c))
    std, small, big = terms
    return LCNumber(([std], [small], [big], [std, small], [big, std, small])[kind])


#: Largest root order L that :func:`transfer_check` draws for; a variable with a larger
#: L is drawn as for L = 1.  A coefficient drawn as an L-th power has L times the digits.
#: ``x^(p/q)`` takes the root before the power, so checking ``x^(59/60)`` took 0.003 s,
#: ``x^(119/120)`` 0.005 s and ``x^(209/210)`` 0.011 s; but ``x^(1/7)*x^(1/11)*x^(1/13)``
#: (L = 1001) took 1.4 s, against 0.005 s drawn as for L = 1 (x86-64, Python 3.11).
MAX_ROOT_ORDER = 60


def transfer_check(
    lhs: Expr,
    rhs: Expr,
    trials: int = 20,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
) -> TransferReport:
    """Probe lhs == rhs at random finite bindings and at random bindings
    containing infinitesimal and unlimited values.

    Each variable has a root order L: the lcm of ``q.denominator`` over every
    ``Pow(Var(v), q)`` and of 2 over every ``Sqrt(Var(v))`` in either side, or 1.
    Its finite values are drawn as r**L for a random rational r, and its field
    values by :func:`random_field_value` with every coefficient raised to L, so
    each root taken directly of a variable succeeds; with L = 1 the draws are
    those of a tree without roots.  A variable whose L exceeds
    :data:`MAX_ROOT_ORDER` is drawn with L = 1.

    Evaluation errors (division by zero, imperfect roots, such as a root of a
    sum) discard the binding and draw again, up to 20 attempts per trial asked
    for; undecidable comparisons are reported as failures with their own tag
    rather than silently passed.
    """
    if _exact(trials, (int,)) < 1:
        raise InvalidArgumentError(f"trials must be at least 1, got {rational_text(trials)}")
    rng = random.Random(seed)
    pairs = _preorder(Sub(lhs, rhs))
    orders = {name: 1 for cls, name in pairs if cls is Var}
    # A one-operand node's operand is the pair right after it in a preorder, so a
    # Pow or Sqrt pair followed by a Var pair is a root taken directly of that variable.
    for (cls, data), (operand, name) in zip(pairs, pairs[1:]):
        if operand is Var and cls in (Pow, Sqrt):
            orders[name] = lcm(orders[name], 2 if cls is Sqrt else data.denominator)
    powers = [(name, k if k <= MAX_ROOT_ORDER else 1) for name, k in sorted(orders.items())]
    failures: list = []

    def probe(kind: str, draw: Callable, evaluate: Callable, differs: Callable) -> int:
        """Trials of one ring, each at a fresh binding; returns how many were decided."""
        done = attempts = 0
        while done < trials and attempts < trials * 20:
            attempts += 1
            binding = {name: draw(rng, power) for name, power in powers}
            try:
                diff = evaluate(lhs, binding) - evaluate(rhs, binding)
                failure = (kind, f"difference {LCNumber._coerce(diff)}") if differs(diff) else None
            except UndecidableError as exc:
                failure = ("undecidable", str(exc))
            except (ZeroDivisionLCError, NotAnNthPowerError):
                continue
            done += 1
            if failure is not None:
                shown = {k: str(LCNumber._coerce(v)) for k, v in binding.items()}
                failures.append(TransferFailure(failure[0], shown, failure[1]))
        return done

    rational_trials = probe("rational", _random_rational, eval_rational, lambda d: d != 0)
    field_trials = probe(
        "field", random_field_value, lambda e, b: eval_field(e, b, depth), lambda d: d.has_terms
    )
    return TransferReport(rational_trials, field_trials, failures)
