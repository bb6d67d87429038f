"""Command-line front door.

Subcommands: ``eval`` (evaluate an expression over the field), ``diff``
(derivative by standard part), ``shadow`` (standard part of a number
literal), ``tlh`` (dominant-term reduction), ``conic`` (shadow parabola of
the deformed ellipse), ``seq`` (sequence decomposition and embedding), and
``zoom`` (two-pane SVG around a point).

Output is deterministic: identical argv yields byte-identical stdout.  Exit
codes: 0 success, 1 evaluation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import calculus, sequences, shadows, svg
from .errors import LCError
from .expr import eval_field, parse as parse_expr
from .number import DEFAULT_DEPTH, LCNumber
from .number import parse as parse_number


def _default_depth() -> int:
    """LC_DEPTH when it is a positive integer, else DEFAULT_DEPTH."""
    try:
        depth = int(os.environ.get("LC_DEPTH", ""))
    except ValueError:
        return DEFAULT_DEPTH
    return depth if depth >= 1 else DEFAULT_DEPTH


def _depth_arg(text: str) -> int:
    """argparse type of --depth: an integer >= 1, else a usage error."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"depth must be at least 1, got {depth}")
    return depth


def _parse_binding_list(text: str) -> dict[str, LCNumber]:
    binding: dict[str, LCNumber] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise LCError(f"binding {part!r} is not of the form name=value")
        name, _, value = part.partition("=")
        binding[name.strip()] = parse_number(value)
    return binding


def _format_poly_in(coeffs, variable: str) -> str:
    """Render A*var^2 + B*var + C with exact coefficients."""
    A, B, C = coeffs
    parts = []
    for coeff, power in ((A, f"{variable}^2"), (B, variable), (C, "")):
        if coeff == 0:
            continue
        mag = abs(coeff)
        if power and mag == 1:
            body = power
        elif power:
            body = f"{mag}*{power}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(parts) if parts else "0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lc",
        description="Exact arithmetic with infinitesimals: evaluate, "
        "differentiate, reduce, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--depth", type=_depth_arg, default=None, help="truncation depth")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("eval", help="evaluate an expression over the field")
    p.add_argument("expression")
    p.add_argument("--at", default="", help="comma-separated name=value bindings")
    common(p)

    p = sub.add_parser("diff", help="derivative at a rational point")
    p.add_argument("expression")
    p.add_argument("--at", required=True, help="rational point")
    common(p)

    p = sub.add_parser("shadow", help="standard part of a number literal")
    p.add_argument("number")
    common(p)

    p = sub.add_parser("tlh", help="keep only the dominant term")
    p.add_argument("number")
    common(p)

    p = sub.add_parser("conic", help="shadow parabola of the deformed ellipse")
    p.add_argument("--samples", default="0,2,4", help="comma-separated abscissas")
    p.add_argument("--svg", default=None, help="write an SVG plot to this path")
    common(p)

    p = sub.add_parser("seq", help="decompose and embed a sequence")
    p.add_argument("sequence", help='"p(n)/q(n)" or "const:pi[:digits]"')
    common(p)

    p = sub.add_parser("zoom", help="two-pane zoom plot around a point")
    p.add_argument("number")
    p.add_argument("--svg", default=None, help="write the SVG to this path")
    common(p)

    return parser


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_eval(args, depth: int) -> int:
    expr = parse_expr(args.expression)
    binding = _parse_binding_list(args.at)
    value = eval_field(expr, binding, depth)
    _emit(
        args,
        {"command": "eval", "depth": depth, "result": {"value": str(value)}},
        [str(value)],
    )
    return 0


def _cmd_diff(args, depth: int) -> int:
    expr = parse_expr(args.expression)
    x0 = Fraction(args.at)
    result = calculus.derivative(expr, x0, depth)
    _emit(
        args,
        {
            "command": "diff",
            "depth": depth,
            "result": {
                "derivative": str(result.derivative_value),
                "pre_shadow": str(result.pre_shadow),
            },
        },
        [str(result.derivative_value), f"pre_shadow = {result.pre_shadow}"],
    )
    return 0


def _cmd_shadow(args, depth: int) -> int:
    value = parse_number(args.number)
    st = value.st()
    _emit(
        args,
        {
            "command": "shadow",
            "depth": depth,
            "result": {"input": str(value), "standard_part": str(st)},
        },
        [str(st)],
    )
    return 0


def _cmd_tlh(args, depth: int) -> int:
    value = parse_number(args.number)
    reduced = value.tlh()
    _emit(
        args,
        {"command": "tlh", "depth": depth, "result": {"value": str(reduced)}},
        [str(reduced)],
    )
    return 0


def _cmd_conic(args, depth: int) -> int:
    samples = [Fraction(s) for s in args.samples.split(",") if s.strip()]
    state = shadows.conic_shadow(shadows.default_unlimited(), samples, depth)
    equation = f"y0 = {_format_poly_in(state.shadow_coeffs, 'x0')}"
    points_text = " ".join(f"({x},{y})" for x, y in state.points)
    payload = {
        "command": "conic",
        "depth": depth,
        "result": {
            "coefficients": {
                "A": str(state.shadow_coeffs[0]),
                "B": str(state.shadow_coeffs[1]),
                "C": str(state.shadow_coeffs[2]),
            },
            "equation": equation,
            "points": [{"x": str(x), "y": str(y)} for x, y in state.points],
        },
    }
    lines = [f"{equation}; points: {points_text}"]
    if args.svg:
        markup = svg.parabola_svg(state.shadow_coeffs, state.points)
        with open(args.svg, "w") as fh:
            fh.write(markup)
        payload["result"]["svg_path"] = args.svg
        lines.append(f"svg written to {args.svg}")
    _emit(args, payload, lines)
    return 0


_SIGN_NAMES = {-1: "negative", 0: "zero", 1: "positive"}


def _cmd_seq(args, depth: int) -> int:
    seq = sequences.parse_sequence(args.sequence)
    decomposition = sequences.decompose(seq)
    result = {
        "sequence": str(seq),
        "kind": type(seq).__name__,
        "decomposition": {
            "standard_part": str(decomposition.standard_part),
            "residue_sign": _SIGN_NAMES[decomposition.residue_sign],
        },
    }
    lines = [
        f"sequence: {seq}",
        f"standard part: {decomposition.standard_part}",
        f"residue sign: {_SIGN_NAMES[decomposition.residue_sign]}",
    ]
    if isinstance(seq, sequences.RationalFunctionOfN):
        embedded = sequences.asymptotic_embed(seq, depth)
        result["embedding"] = str(embedded)
        lines.append(f"embedding: {embedded}")
    _emit(args, {"command": "seq", "depth": depth, "result": result}, lines)
    return 0


def _cmd_zoom(args, depth: int) -> int:
    value = parse_number(args.number)
    markup = svg.zoom_svg(value)
    result = {"input": str(value), "standard_part": str(value.st())}
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(markup)
        result["svg_path"] = args.svg
        lines = [f"svg written to {args.svg}"]
    else:
        lines = [markup.rstrip("\n")]
    _emit(args, {"command": "zoom", "depth": depth, "result": result}, lines)
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "diff": _cmd_diff,
    "shadow": _cmd_shadow,
    "tlh": _cmd_tlh,
    "conic": _cmd_conic,
    "seq": _cmd_seq,
    "zoom": _cmd_zoom,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    depth = args.depth if args.depth is not None else _default_depth()
    try:
        return _HANDLERS[args.command](args, depth)
    except (LCError, ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
