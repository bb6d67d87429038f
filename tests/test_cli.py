"""End-to-end command-line behavior: text output, JSON contract, exit codes."""

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import lcfield
from conftest import golden
from lcfield import svg
from lcfield.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_PATH = REPO_ROOT / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


_BIG = "2" + "0" * 2200  # 2,201 digits, so its square has more than 4,300
_NINES = "9" * 4300  # the longest digit run a literal may have


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    import jsonschema  # here, so that a Python whose jsonschema cannot load still collects
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestHumanOutput:
    def test_diff(self, capsys):
        code, out, _ = run(["diff", "x^2", "--at", "1"], capsys)
        assert code == 0
        assert out == "2\npre_shadow = 2 + eps\n"

    def test_eval(self, capsys):
        code, out, _ = run(["eval", "(x+dx)^2 - x^2", "--at", "x=3,dx=eps"], capsys)
        assert code == 0
        assert out == "6*eps + eps^(2)\n"

    def test_shadow(self, capsys):
        code, out, _ = run(["shadow", "3 + 5*eps - eps^(2)"], capsys)
        assert code == 0
        assert out == "3\n"

    def test_tlh(self, capsys):
        code, out, _ = run(["tlh", "5*eps + eps^(2)"], capsys)
        assert code == 0
        assert out == "5*eps\n"

    def test_conic(self, capsys):
        code, out, _ = run(["conic", "--samples", "0,2,4"], capsys)
        assert code == 0
        assert out == "y0 = 1/4*x0^2 - 1; points: (0,-1) (2,0) (4,3)\n"

    def test_seq(self, capsys):
        code, out, _ = run(["seq", "n/(n+1)", "--depth", "3"], capsys)
        assert code == 0
        assert out == (
            "sequence: (n)/(1 + n)\n"
            "standard part: 1\n"
            "residue sign: negative\n"
            "embedding: 1 - eps + eps^(2) + O(eps^(3))\n"
        )

    def test_seq_constant_stream(self, capsys):
        code, out, _ = run(["seq", "const:pi"], capsys)
        assert code == 0
        assert "standard part: pi" in out
        assert "residue sign: negative" in out
        assert "embedding" not in out

    def test_determinism(self, capsys):
        # A value that starts with "-" must be attached with "=", or argparse reads it as an option.
        argv = ["conic", "--samples=-4,-2,0,2,4"]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second
        assert first == (0, "y0 = 1/4*x0^2 - 1; points: (-4,3) (-2,0) (0,-1) (2,0) (4,3)\n", "")


class TestJsonOutput:
    def test_every_command_validates(self, capsys, tmp_path):
        corpora = [
            ["eval", "x^2", "--at", "x=1+eps"],
            ["diff", "x^3", "--at", "2"],
            ["shadow", "2 + eps"],
            ["tlh", "5*eps + eps^(2)"],
            ["conic", "--samples", "0,2,4"],
            ["seq", "1/n"],
            ["seq", "const:sqrt2:10"],
            ["zoom", "1 + eps", "--svg", str(tmp_path / "z.svg")],
        ]
        for argv in corpora:
            run_json(argv, capsys)

    def test_diff_payload(self, capsys):
        payload = run_json(["diff", "x^2", "--at", "1"], capsys)
        assert payload["command"] == "diff"
        assert payload["result"] == {"derivative": "2", "pre_shadow": "2 + eps"}

    def test_human_numbers_appear_in_json(self, capsys):
        _, human, _ = run(["tlh", "5*eps + eps^(2)"], capsys)
        payload = run_json(["tlh", "5*eps + eps^(2)"], capsys)
        assert payload["result"]["value"] == human.strip()

    def test_depth_flag_is_recorded(self, capsys):
        payload = run_json(["eval", "1/(1+x)", "--at", "x=eps", "--depth", "5"], capsys)
        assert payload["depth"] == 5
        assert payload["result"]["value"].endswith("O(eps^(5))")


class TestSvg:
    def test_conic_svg_written(self, capsys, tmp_path):
        target = tmp_path / "parabola.svg"
        code, out, _ = run(["conic", "--svg", str(target)], capsys)
        assert code == 0
        assert f"svg written to {target}" in out
        markup = target.read_text()
        assert markup.startswith("<svg")
        assert "circle" in markup

    @pytest.mark.parametrize("samples, sha256", [
        ([], "f9fd610e97f9779935a97983077abb7bd2169f0e15c86e4eb8e19f0122aa96ca"),
        (["--samples=-3/2,1/3,5/2"],
         "4bbc41cec83c69a0e018c6af18feb52d7a9f3edeb300838b17aef2c137006fab"),
    ])
    def test_conic_svg_bytes(self, capsys, tmp_path, samples, sha256):
        target = tmp_path / "parabola.svg"
        assert run(["conic", *samples, "--svg", str(target)], capsys)[0] == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == sha256

    def test_polyline_is_printed_by_fmt(self, monkeypatch):
        fmt = svg._fmt
        monkeypatch.setattr(svg, "_fmt", lambda v: "fmt:" + fmt(v))
        markup = svg.parabola_svg((Fraction(1, 4), Fraction(0), Fraction(-1)), [])
        points = re.search(r'<polyline points="([^"]*)"', markup).group(1)
        numbers = [n for pair in points.split(" ") for n in pair.split(",")]
        assert len(numbers) == 194 and all(n.startswith("fmt:") for n in numbers)

    def test_zoom_svg_to_stdout(self, capsys):
        code, out, _ = run(["zoom", "2 + eps"], capsys)
        assert code == 0
        assert out.startswith("<svg")

    def test_zoom_svg_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["zoom", "1 - eps + 3*eps^(2)", "--svg", str(a)], capsys)
        run(["zoom", "1 - eps + 3*eps^(2)", "--svg", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["zoom", "1 + eps"], ["zoom", "2 + eps"], ["zoom", "1 - eps + 3*eps^(2)"], ["zoom", "3"],
        ["zoom", "2 + 1" + "0" * 400 + "*eps"], ["zoom", "2 + 2*eps"], ["conic"],
        ["conic", "--samples=-4,-2,0,2,4"], ["conic", "--samples", "0,2,1" + "0" * 400],
    ])
    def test_every_coordinate_is_exact(self, capsys, monkeypatch, tmp_path, argv):
        # The AST guard of test_float_free.py cannot see a float made by int / int.
        seen, fmt = [], svg._fmt
        monkeypatch.setattr(svg, "_fmt", lambda v: seen.append(type(v)) or fmt(v))
        assert run(argv + ["--svg", str(tmp_path / "plot.svg")], capsys)[0] == 0
        assert seen and set(seen) <= {int, Fraction}

    def test_coordinates_round_half_to_even(self):
        values = [0, 170, Fraction(1, 8), Fraction(3, 8), Fraction(2, 3), Fraction(-1, 1000),
                  Fraction(-5, 8), Fraction(94033, 200), 10**15 + Fraction(2, 3)]
        assert [svg._fmt(v) for v in values] == [
            "0.00", "170.00", "0.12", "0.38", "0.67", "-0.00", "-0.62", "470.16",
            "1000000000000000.67"]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, _ = run(["diff", "x^2"], capsys)  # missing --at
        assert code == 2

    def test_unknown_command_is_2(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    def test_evaluation_error_is_1(self, capsys):
        code, _, err = run(["shadow", "eps^(-1)"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_power_of_a_sum_past_the_cap_is_1(self, capsys):
        # (1 + eps)^100000 is never expanded: the exponent is refused first.
        code, out, err = run(["diff", "x^100000", "--at", "1"], capsys)
        message = "exponent 100000 is above 1000, the limit for an exact sum"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_parse_error_is_1(self, capsys):
        code, _, err = run(["eval", "1 + $"], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["shadow", "1/0"], "zero denominator (at position 2)"),
            (["tlh", "O(eps^(1/0))"], "zero denominator (at position 9)"),
            (["eval", "x^(1/0)", "--at", "x=1"], "zero denominator (at position 5)"),
        ],
    )
    def test_zero_denominator_is_parse_error(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_undecidable_is_1(self, capsys):
        code, _, _ = run(["tlh", "O(eps^(3))"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "source, message",
        [
            ("x^(-3)", "operand is zero up to O(eps^(2)); inverse undecidable"),
            ("x^(3/2)", "operand is zero up to O(eps^(2)); root undecidable"),
        ],
    )
    def test_undecidable_power_names_the_operands_order(self, capsys, source, message):
        code, out, err = run(["eval", source, "--at", "x=O(eps^(2))"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["diff", "x", "--at", "1/0"], "argument --at: invalid rational value: '1/0'"),
            (["diff", "x", "--at", "abc"], "argument --at: invalid rational value: 'abc'"),
            # Fraction reads `_` on Python 3.11 but not on 3.10, and any Unicode digit.
            (["diff", "x^2", "--at", "1_0"], "argument --at: invalid rational value: '1_0'"),
            (["diff", "x^2", "--at", "\u0661"], "argument --at: invalid rational value: '\u0661'"),
            (["conic", "--samples", "0,2_0,4"], "argument --samples: invalid rational value: '2_0'"),
            (["conic", "--samples", "1/0,2,4"], "argument --samples: invalid rational value: '1/0'"),
            (["conic", "--samples", "0,abc"], "argument --samples: invalid rational value: 'abc'"),
            # Only -?[0-9]+ with an optional .[0-9]+ or /[0-9]+; Fraction reads these too.
            (["diff", "x^2", "--at", "1e3"], "argument --at: invalid rational value: '1e3'"),
            (["diff", "x^2", "--at", "1E3"], "argument --at: invalid rational value: '1E3'"),
            (["diff", "x^2", "--at", "+2"], "argument --at: invalid rational value: '+2'"),
            (["diff", "x^2", "--at", ".5"], "argument --at: invalid rational value: '.5'"),
            (["diff", "x^2", "--at", "5."], "argument --at: invalid rational value: '5.'"),
            (["conic", "--samples", "0,1e3,4"], "argument --samples: invalid rational value: '1e3'"),
            (["conic", "--samples", "0,+2,.5"], "argument --samples: invalid rational value: '+2'"),
        ],
    )
    def test_bad_rational_is_usage_error(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize(
        "at, message",
        [("=3", "binding '=3' has an empty name"), (" = 3, x=2", "binding '= 3' has an empty name")],
    )
    def test_empty_binding_name_is_1(self, capsys, at, message):
        code, out, err = run(["eval", "x", "--at", at], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_empty_binding_is_skipped(self, capsys):
        assert run(["eval", "x", "--at", "x=2,"], capsys) == (0, "2\n", "")

    @pytest.mark.parametrize("argv", [["shadow", "\u0663"], ["eval", "\u0663+x", "--at", "x=1"]])
    def test_non_ascii_digit_is_a_parse_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", "error: unexpected character '\u0663' (at position 0)\n")

    def test_no_break_space_between_tokens_is_whitespace(self, capsys):
        assert run(["eval", "2\u00a0+\u00a0x", "--at", "x=1"], capsys) == (0, "3\n", "")
        assert run(["shadow", "3\u00a0+\u00a0eps"], capsys) == (0, "3\n", "")

    def test_decimal_rationals_are_accepted(self, capsys):
        assert run(["diff", "x^2", "--at", "0.5"], capsys) == (0, "1\npre_shadow = 1 + eps\n", "")
        code, out, _ = run(["conic", "--samples", "0.5,2,4"], capsys)
        assert (code, out) == (0, "y0 = 1/4*x0^2 - 1; points: (1/2,-15/16) (2,0) (4,3)\n")

    def test_too_few_distinct_samples_is_1(self, capsys):
        code, out, err = run(["conic", "--samples", "0,0,2"], capsys)
        assert (code, out, err) == (1, "", "error: need at least 3 distinct sample abscissas\n")

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code, out, err = run(["eval", "(" * 1000 + "x" + ")" * 1000, "--at", "x=1"], capsys)
        assert (code, out, err) == (1, "", "error: expression nested too deeply (at position 100)\n")

    @pytest.mark.parametrize("command", ["eval", "shadow"])
    def test_literal_past_the_digit_limit_is_1_without_traceback(self, command):
        # 4,411 digits: past CPython's default limit of 4,300 on int-string conversion.
        proc = subprocess.run(
            [sys.executable, "-m", "lcfield.cli", command, "1" * 4411],
            capture_output=True, text=True, env=_child_env(PYTHONINTMAXSTRDIGITS="4300"), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: number has more than 4300 digits (at position 0)\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "x^20000", "--at", "x=10"],
        ["eval", "sqrt(x*x*x)", "--at", f"x={_BIG}"],
        ["eval", "x^3", "--at", f"x={_BIG}"],
        ["eval", "1/x", "--at", f"x={_BIG} + eps"],
        ["diff", "x^5", "--at", _BIG],
        ["conic", "--samples=0,2," + "9" * 3000],
        ["conic", "--samples=0,2," + "9" * 3000, "--svg"],
        ["seq", "1/(n-1" + "0" * 1000 + ")"],
        ["seq", f"n^{_NINES}*n^{_NINES}/(n^{_NINES}*n^{_NINES} + 1)"],
        ["shadow", f"{_NINES} + {_NINES}"],
        ["zoom", f"{_NINES} + {_NINES}"],
        # Never computed: the sizes of 10^100000 and 2^(10^11) put them past the limit.
        ["diff", "x^100000", "--at", "10"],
        ["eval", "2^100000000000"],
    ])
    def test_result_past_the_digit_limit_is_1(self, capsys, tmp_path, argv):
        # In-process: an error that cli.main does not catch fails the test instead of exiting 1.
        if argv[-1] == "--svg":
            argv = argv + [str(tmp_path / "plot.svg")]
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(argv, capsys)
        finally:
            sys.set_int_max_str_digits(before)
        assert (code, out) == (1, "")
        assert err == ("error: Exceeds the limit (4300 digits) for integer string conversion; "
                       "use sys.set_int_max_str_digits() to increase the limit\n")

    @pytest.mark.parametrize("argv", [["zoom", "1 + eps"], ["conic"]])
    def test_failed_svg_write_is_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(argv + ["--svg", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestLongInputs:
    """Trees far deeper than Python's recursion limit still evaluate."""

    SUM = "+".join(["x"] * 2000)

    def test_eval_long_sum(self, capsys):
        assert run(["eval", self.SUM, "--at", "x=1+eps"], capsys) == (0, "2000 + 2000*eps\n", "")

    def test_eval_long_negation_chain(self, capsys):
        assert run(["eval", "0+" + "-" * 1000 + "x", "--at", "x=3"], capsys) == (0, "3\n", "")

    def test_diff_long_sum(self, capsys):
        assert run(["diff", self.SUM, "--at", "2"], capsys) == (0, "2000\npre_shadow = 2000\n", "")

    def test_seq_long_sum(self, capsys):
        code, out, err = run(["seq", "+".join(["1/n"] * 2000)], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "sequence: (2000*n^1999)/(n^2000)\n"
            "standard part: 0\n"
            "residue sign: positive\n"
            "embedding: 2000*eps\n"
        )


class TestDepthEnvironment:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LC_DEPTH", "4")
        payload = run_json(["eval", "1/(1+x)", "--at", "x=eps"], capsys)
        assert payload["depth"] == 4

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LC_DEPTH", "4")
        payload = run_json(["eval", "x", "--at", "x=eps", "--depth", "7"], capsys)
        assert payload["depth"] == 7

    def test_garbage_env_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("LC_DEPTH", "banana")
        payload = run_json(["eval", "x", "--at", "x=eps"], capsys)
        assert payload["depth"] == 16

    def test_nonpositive_env_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("LC_DEPTH", "0")
        payload = run_json(["eval", "x", "--at", "x=eps"], capsys)
        assert payload["depth"] == 16

    @pytest.mark.parametrize("depth", ["0", "-5"])
    def test_nonpositive_flag_is_usage_error(self, capsys, depth):
        code, out, err = run(["eval", "1/(1+x)", "--at", "x=eps", "--depth", depth], capsys)
        assert code == 2
        assert out == ""
        assert f"argument --depth: depth must be at least 1, got {depth}" in err

    @pytest.mark.parametrize("depth", ["abc", "\u0661\u0666", "1_6", "+16"])
    def test_non_digit_flag_is_usage_error(self, capsys, depth):
        code, out, err = run(["diff", "x^2", "--at", "1", "--depth", depth], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument --depth: invalid int value: {depth!r}\n")

    @pytest.mark.parametrize("depth", ["\u0664", "1_4", "+4"])
    def test_non_digit_env_falls_back(self, capsys, monkeypatch, depth):
        monkeypatch.setenv("LC_DEPTH", depth)
        payload = run_json(["eval", "x", "--at", "x=eps"], capsys)
        assert payload["depth"] == 16


# The --help output of `lc` and of each subcommand at 80 columns, byte for byte.
HELP = {
    "": """\
usage: lc [-h] {eval,diff,shadow,tlh,conic,seq,zoom} ...

Exact arithmetic with infinitesimals: evaluate, differentiate, reduce, and
plot.

positional arguments:
  {eval,diff,shadow,tlh,conic,seq,zoom}
    eval                evaluate an expression over the field
    diff                derivative at a rational point
    shadow              standard part of a number literal
    tlh                 keep only the dominant term
    conic               shadow parabola of the deformed ellipse
    seq                 decompose and embed a sequence
    zoom                two-pane zoom plot around a point

options:
  -h, --help            show this help message and exit
""",
    "eval": """\
usage: lc eval [-h] [--at AT] [--depth DEPTH] [--json] expression

positional arguments:
  expression

options:
  -h, --help     show this help message and exit
  --at AT        comma-separated name=value bindings
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
    "diff": """\
usage: lc diff [-h] --at AT [--depth DEPTH] [--json] expression

positional arguments:
  expression

options:
  -h, --help     show this help message and exit
  --at AT        rational point
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
    "shadow": """\
usage: lc shadow [-h] [--depth DEPTH] [--json] number

positional arguments:
  number

options:
  -h, --help     show this help message and exit
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
    "tlh": """\
usage: lc tlh [-h] [--depth DEPTH] [--json] number

positional arguments:
  number

options:
  -h, --help     show this help message and exit
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
    "conic": """\
usage: lc conic [-h] [--samples SAMPLES] [--svg SVG] [--depth DEPTH] [--json]

options:
  -h, --help         show this help message and exit
  --samples SAMPLES  comma-separated abscissas
  --svg SVG          write an SVG plot to this path
  --depth DEPTH      truncation depth
  --json             emit JSON
""",
    "seq": """\
usage: lc seq [-h] [--depth DEPTH] [--json] sequence

positional arguments:
  sequence       "p(n)/q(n)" or "const:pi[:digits]"

options:
  -h, --help     show this help message and exit
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
    "zoom": """\
usage: lc zoom [-h] [--svg SVG] [--depth DEPTH] [--json] number

positional arguments:
  number

options:
  -h, --help     show this help message and exit
  --svg SVG      write the SVG to this path
  --depth DEPTH  truncation depth
  --json         emit JSON
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(([command] if command else []) + ["--help"], capsys)
    assert (code, out, err) == (0, HELP[command], "")


def _declared_lc_command():
    """The ``lc`` target of ``[project.scripts]``, run as its console-script wrapper runs it."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["lc"].partition(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_entry_point_runs():
    # The installed `lc` script exists only after `pip install`; the declared
    # target runs from an uninstalled checkout too. Either way the child gets
    # the `lcfield` this process imported, not some other installed copy.
    src = pathlib.Path(lcfield.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    commands = [_declared_lc_command()]
    installed = shutil.which("lc")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["diff", "x^2", "--at", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\npre_shadow = 2 + eps\n"


class TestMoreExitCodes:
    def test_binding_without_equals_is_1(self, capsys):
        code, out, err = run(["eval", "x", "--at", "x"], capsys)
        assert (code, out, err) == (1, "", "error: binding 'x' is not of the form name=value\n")

    def test_diff_of_two_variables_is_1(self, capsys):
        code, out, err = run(["diff", "x*y", "--at", "1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: expected a univariate expression, got variables ['x', 'y']\n"


class TestZoomPanes:
    @staticmethod
    def circles(out):
        return re.findall(r'<circle cx="([^"]+)"', out)

    def test_standard_value_has_label_zero(self, capsys):
        code, out, _ = run(["zoom", "3"], capsys)
        assert code == 0
        assert self.circles(out) == ["170.00", "470.00"]
        assert (
            '<text x="470.00" y="268.00" text-anchor="middle" font-size="14" '
            'font-family="monospace">0</text>'
        ) in out

    def test_huge_coefficient_is_clamped_to_the_pane(self, capsys):
        huge = run(["zoom", "2 + 1" + "0" * 400 + "*eps"], capsys)
        two = run(["zoom", "2 + 2*eps"], capsys)
        assert (huge[0], huge[2], two[0]) == (0, "", 0)
        assert self.circles(huge[1]) == self.circles(two[1]) == ["170.00", "580.00"]


def _child_env(**overrides):
    """Environment of an ``lc`` child that imports the ``lcfield`` this process imported."""
    src = pathlib.Path(lcfield.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.pop("PYTHONUNBUFFERED", None)
    env.update(overrides)
    return env


@pytest.mark.parametrize("overrides", [{}, {"PYTHONUNBUFFERED": "1"}])
def test_closed_stdout_is_1_without_traceback(overrides):
    # The read end is closed before the child starts, so its write (unbuffered)
    # or its flush (buffered) fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lcfield.cli", "zoom", "2 + eps"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(**overrides),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_seq_with_a_distant_root_is_quick():
    proc = subprocess.run(
        [sys.executable, "-m", "lcfield.cli", "seq", "1/(n-1000000000)", "--depth", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "sequence: (1)/(-1000000000 + n)\n"
        "standard part: 0\n"
        "residue sign: positive\n"
        "embedding: eps + 1000000000*eps^(2) + 1000000000000000000*eps^(3) + O(eps^(4))\n"
    )


def test_conic_svg_with_a_huge_sample(capsys, tmp_path):
    # Exact values beyond float range are clamped far outside the pane, then plotted.
    target = tmp_path / "huge.svg"
    huge = "1" + "0" * 400
    code, out, err = run(["conic", "--samples", f"0,2,{huge}", "--svg", str(target)], capsys)
    assert (code, err) == (0, "")
    assert f"svg written to {target}" in out
    markup = target.read_text()
    assert markup.startswith("<svg") and markup.endswith("</svg>\n")
    assert f"({huge}," in markup


def _session_argvs(seed):
    """Every argv of the benchmark's cli-session sessions for one seed, from the cases module
    that the golden corpus writer loads without writing bytecode."""
    cases = golden("make_cli")._cases()
    return [inv["argv"] for session in cases.cli_session(seed)["sessions"] for inv in session]


def _fresh_run(columns, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "lcfield.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(COLUMNS=columns),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_keeps_no_state_between_runs(capsys, monkeypatch):
    # One process runs usage errors, an evaluation error, every --help at three
    # widths and whole benchmark sessions through the one parser; each run must
    # print what a fresh interpreter prints for the same argv.
    steps = [("80", ["eval", "x", "--at", "x=1", "--depth", "0"]), ("80", ["frobnicate"]),
             ("80", ["diff", "x^2"]), ("80", ["shadow", "eps^(-1)"])]
    helps = [([command] if command else []) + ["--help"] for command in HELP]
    for columns in ("40", "200", "80"):
        steps += [(columns, argv) for argv in helps]
    steps += [("80", argv) for argv in _session_argvs(4242)]
    monkeypatch.delenv("LC_DEPTH", raising=False)
    in_process = []
    for columns, argv in steps:
        monkeypatch.setenv("COLUMNS", columns)
        in_process.append(run(argv, capsys))
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        fresh = list(pool.map(lambda step: _fresh_run(*step), steps))
    for step, mine, theirs in zip(steps, in_process, fresh):
        assert mine == theirs, step
    assert [code for code, _, _ in in_process[:4]] == [2, 2, 2, 1]
    at_80 = [out for (columns, argv), (_, out, _) in zip(steps, in_process)
             if columns == "80" and argv in helps]
    assert at_80 == list(HELP.values())


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run(["shadow", "1"], capsys)  # warm-up: builds the parser if no earlier test did
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argvs = [["eval", "x", "--at", "x=eps"], ["diff", "x^2", "--at", "1"], ["shadow", "2 + eps"],
             ["tlh", "eps"], ["conic"], ["seq", "1/n"], ["zoom", "1"], ["diff", "x^2"],
             ["seq", "--help"], ["shadow", "eps^(-1)"]]
    assert [run(argv, capsys)[0] for argv in argvs] == [0] * 7 + [2, 0, 1]
    assert built == []


def test_subcommand_modules_load_on_first_use():
    # A later top-level import in cli would quietly undo the cold-start saving.
    script = """
import contextlib, io, json, sys
import lcfield.cli as cli

def loaded():
    return sorted(n for n in sys.modules if n.startswith("lcfield."))

stages = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["eval", "x", "--at", "x=1"])
    stages.append(loaded())
    cli.main(["diff", "x^2", "--at", "1"])
    stages.append(loaded())
    cli.main(["conic"])
    stages.append(loaded())
print(json.dumps(stages))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lazy = {f"lcfield.{name}" for name in ("calculus", "sequences", "shadows", "svg")}
    after_import, after_eval, after_diff, after_conic = (
        set(stage) & lazy for stage in json.loads(proc.stdout)
    )
    assert (after_import, after_eval, after_diff) == (set(), set(), {"lcfield.calculus"})
    # conic prints its parabola with number.poly_text, so sequences stays unloaded.
    assert after_conic == {"lcfield.calculus", "lcfield.shadows", "lcfield.svg"}
