"""Two rules every module of lcfield keeps, checked on its syntax tree.

Computation never touches a float: no module names ``float``, writes a float literal
or calls a float-valued ``math`` function.  No module holds an ``assert``: ``python -O``
strips it, so a check that must hold raises an LCError instead.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcfield"
FLOAT_MATH = {"log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "sqrt", "cbrt", "pow",
              "fsum", "hypot", "dist", "ldexp", "frexp", "fabs", "fmod"}


def float_uses(tree):
    """(line, what) for every float name, literal or float-valued math function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH)


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_is_float_free(path):
    assert list(float_uses(ast.parse(path.read_text(), str(path)))) == []


def test_the_guard_sees_each_kind_of_float_use():
    src = "import math\nfrom math import log2, gcd\nx = float(3) + 0.5 + math.sqrt(2)\n"
    assert sorted(float_uses(ast.parse(src))) == [
        (2, "math.log2"), (3, "0.5"), (3, "float"), (3, "math.sqrt")]


def asserts(tree):
    """The line of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_assert(path):
    assert asserts(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_an_assert():
    src = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert asserts(ast.parse(src)) == [3]


def test_every_module_is_checked():
    assert {"cli.py", "number.py", "svg.py"} <= {p.name for p in MODULES}
    assert len(MODULES) >= 9
