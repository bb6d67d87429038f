"""Command-line front door.

Subcommands: ``eval`` (evaluate an expression over the field), ``diff``
(derivative by standard part), ``shadow`` (standard part of a number
literal), ``tlh`` (dominant-term reduction), ``conic`` (shadow parabola of
the deformed ellipse), ``seq`` (sequence decomposition and embedding), and
``zoom`` (two-pane SVG around a point).

Output is deterministic: identical argv yields byte-identical stdout, every
number printed exactly by ``lcfield.number``.  Exit codes: 0 success, 1 an
``LCError`` (a number past the digit limit too) or ``OSError``, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import InvalidArgumentError, LCError
from .expr import eval_field, parse as parse_expr
from .number import DEFAULT_DEPTH, LCNumber, poly_text, rational_text
from .number import parse as parse_number


def _default_depth() -> int:
    """LC_DEPTH when ``--depth`` takes it, else DEFAULT_DEPTH."""
    try:
        return _depth_arg(os.environ.get("LC_DEPTH", ""))
    except argparse.ArgumentTypeError:
        return DEFAULT_DEPTH


def _depth_arg(text: str) -> int:
    """argparse type of --depth: an integer >= 1 in ASCII digits, else a usage error."""
    try:
        if not re.fullmatch(r"\s*-?[0-9]+\s*", text, re.ASCII):  # int() also reads 1_6 and +16
            raise ValueError(text)
        depth = int(text)
    except ValueError:  # another shape, or past the digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"depth must be at least 1, got {depth}")
    return depth


def _rational_arg(text: str) -> Fraction:
    """argparse type of a rational such as 2, -1/3 or 0.5, else a usage error."""
    if re.fullmatch(r"\s*-?[0-9]+(\.[0-9]+|/[0-9]+)?\s*", text, re.ASCII):  # not 1e3, +2, 1_0
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # past the digit limit, or a zero denominator
            pass
    raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}")


def _samples_arg(text: str) -> list[Fraction]:
    """argparse type of --samples: comma-separated rationals."""
    return [_rational_arg(s) for s in text.split(",") if s.strip()]


def _parse_binding_list(text: str) -> dict[str, LCNumber]:
    binding: dict[str, LCNumber] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidArgumentError(f"binding {part!r} is not of the form name=value")
        name, _, value = part.partition("=")
        if not name.strip():
            raise InvalidArgumentError(f"binding {part!r} has an empty name")
        binding[name.strip()] = parse_number(value)
    return binding


def _write_svg(path: str, markup: str, result: dict) -> str:
    """Write markup to path, record the path in result, return the line reporting it."""
    with open(path, "w") as fh:
        fh.write(markup)
    result["svg_path"] = path
    return f"svg written to {path}"


# Each handler returns the JSON result object and the human-readable lines.
def _cmd_eval(args, depth: int) -> tuple[dict, list[str]]:
    expr = parse_expr(args.expression)
    binding = _parse_binding_list(args.at)
    value = eval_field(expr, binding, depth)
    return {"value": str(value)}, [str(value)]


def _cmd_diff(args, depth: int) -> tuple[dict, list[str]]:
    from . import calculus
    expr = parse_expr(args.expression)
    result = calculus.derivative(expr, args.at, depth)
    derivative = rational_text(result.derivative_value)
    return (
        {"derivative": derivative, "pre_shadow": str(result.pre_shadow)},
        [derivative, f"pre_shadow = {result.pre_shadow}"],
    )


def _cmd_shadow(args, depth: int) -> tuple[dict, list[str]]:
    value = parse_number(args.number)
    st = rational_text(value.st())
    return {"input": str(value), "standard_part": st}, [st]


def _cmd_tlh(args, depth: int) -> tuple[dict, list[str]]:
    value = parse_number(args.number)
    reduced = value.tlh()
    return {"value": str(reduced)}, [str(reduced)]


def _cmd_conic(args, depth: int) -> tuple[dict, list[str]]:
    from . import shadows, svg
    state = shadows.conic_shadow(shadows.default_unlimited(), args.samples, depth)
    equation = f"y0 = {poly_text(zip((2, 1, 0), state.shadow_coeffs), 'x0')}"
    points = [(rational_text(x), rational_text(y)) for x, y in state.points]
    result = {
        "coefficients": {k: rational_text(c) for k, c in zip("ABC", state.shadow_coeffs)},
        "equation": equation,
        "points": [{"x": x, "y": y} for x, y in points],
    }
    lines = [f"{equation}; points: {' '.join(f'({x},{y})' for x, y in points)}"]
    if args.svg:
        markup = svg.parabola_svg(state.shadow_coeffs, state.points)
        lines.append(_write_svg(args.svg, markup, result))
    return result, lines


_SIGN_NAMES = {-1: "negative", 0: "zero", 1: "positive"}


def _cmd_seq(args, depth: int) -> tuple[dict, list[str]]:
    from . import sequences
    seq = sequences.parse_sequence(args.sequence)
    decomposition = sequences.decompose(seq)
    st = decomposition.standard_part  # a constant's label, or a rational
    st = st if isinstance(st, str) else rational_text(st)
    result = {
        "sequence": str(seq),
        "kind": type(seq).__name__,
        "decomposition": {
            "standard_part": st,
            "residue_sign": _SIGN_NAMES[decomposition.residue_sign],
        },
    }
    lines = [
        f"sequence: {seq}",
        f"standard part: {st}",
        f"residue sign: {_SIGN_NAMES[decomposition.residue_sign]}",
    ]
    if isinstance(seq, sequences.RationalFunctionOfN):
        embedded = sequences.asymptotic_embed(seq, depth)
        result["embedding"] = str(embedded)
        lines.append(f"embedding: {embedded}")
    return result, lines


def _cmd_zoom(args, depth: int) -> tuple[dict, list[str]]:
    from . import svg
    value = parse_number(args.number)
    markup = svg.zoom_svg(value)
    result = {"input": str(value), "standard_part": rational_text(value.st())}
    if args.svg:
        return result, [_write_svg(args.svg, markup, result)]
    return result, [markup.rstrip("\n")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one ``lc`` parser, built on first use; callers must not add to it.

    Reuse is safe: parsing leaves the parser unchanged, ``prog`` is fixed, string
    defaults are converted on every parse, and help reads ``COLUMNS`` when printed.
    """
    parser = argparse.ArgumentParser(
        prog="lc",
        description="Exact arithmetic with infinitesimals: evaluate, "
        "differentiate, reduce, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over the field")
    p.set_defaults(handler=_cmd_eval)
    p.add_argument("expression")
    p.add_argument("--at", default="", help="comma-separated name=value bindings")

    p = sub.add_parser("diff", help="derivative at a rational point")
    p.set_defaults(handler=_cmd_diff)
    p.add_argument("expression")
    p.add_argument("--at", type=_rational_arg, required=True, help="rational point")

    p = sub.add_parser("shadow", help="standard part of a number literal")
    p.set_defaults(handler=_cmd_shadow)
    p.add_argument("number")

    p = sub.add_parser("tlh", help="keep only the dominant term")
    p.set_defaults(handler=_cmd_tlh)
    p.add_argument("number")

    p = sub.add_parser("conic", help="shadow parabola of the deformed ellipse")
    p.set_defaults(handler=_cmd_conic)
    p.add_argument(
        "--samples", type=_samples_arg, default="0,2,4", help="comma-separated abscissas"
    )
    p.add_argument("--svg", default=None, help="write an SVG plot to this path")

    p = sub.add_parser("seq", help="decompose and embed a sequence")
    p.set_defaults(handler=_cmd_seq)
    p.add_argument("sequence", help='"p(n)/q(n)" or "const:pi[:digits]"')

    p = sub.add_parser("zoom", help="two-pane zoom plot around a point")
    p.set_defaults(handler=_cmd_zoom)
    p.add_argument("number")
    p.add_argument("--svg", default=None, help="write the SVG to this path")

    # Added last, so they follow each subcommand's own options in --help.
    for p in sub.choices.values():
        p.add_argument("--depth", type=_depth_arg, default=None, help="truncation depth")
        p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    depth = args.depth if args.depth is not None else _default_depth()
    try:
        result, lines = args.handler(args, depth)
    except (LCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    envelope = {"command": args.command, "depth": depth, "result": result}
    text = json.dumps(envelope, indent=2, sort_keys=True) if args.json else "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early. Point it at devnull, so that the
        # flush at exit finds nothing to write to the closed pipe.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
