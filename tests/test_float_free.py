"""Rules every module of lcfield keeps, the first three checked on its syntax tree.

Computation never touches a float: no module names ``float``, writes a float literal
or calls a float-valued ``math`` function.  No module holds an ``assert``: ``python -O``
strips it, so a check that must hold raises an LCError instead.  No module but
``__init__.py``, which re-exports, imports a name that it does not use.  No module warns:
the ``filterwarnings`` line in pyproject.toml makes a warning raised from lcfield an error.
"""

import ast
import pathlib
import warnings

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


def unused_imports(tree):
    """(line, name) for every name an import binds that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport os.path, re\n"
           "from math import gcd as g, lcm\ndef f(x: lcm) -> int:\n    from sys import argv\n"
           "    return os.sep\n")
    assert unused_imports(ast.parse(src)) == [(2, "re"), (3, "g"), (5, "argv")]


def test_a_warning_from_lcfield_is_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("x", DeprecationWarning, "number.py", 1, module="lcfield.number")


def test_every_module_is_checked():
    assert {"cli.py", "number.py", "svg.py"} <= {p.name for p in MODULES}
    assert len(MODULES) >= 9
