"""Command line front end.

Every subcommand validates its flags before computing anything and exits
with 0 on success, 2 on a validation error (bad flag, malformed spec) and 3
on a numerical failure (non-positive denominator, exhausted elevation
budget).  A --spec file that cannot be read as UTF-8 and an --out path that
cannot be written are validation errors too.  Output goes to stdout unless
``--out`` names a file; ``gallery`` treats ``--out`` as a directory and
prints its error report to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bbasis import _MAX_ORDER, BasisKind, BasisSpace, basis_matrix
from .errors import NumericalError, RangeError, SpecError
from .io import (
    _KINDS,
    SpecDocument,
    SvgPath,
    export_obj,
    export_svg,
    export_table,
    parse_angle,
    parse_document,
)
from .xform import transform_matrix

# Commands import the modules they run, so a process loads only what its command needs.

__all__ = ["main"]

_KIND_NAMES = {**_KINDS, "trig": BasisKind.TRIGONOMETRIC, "hyp": BasisKind.HYPERBOLIC}


def _kind_flag(text: str) -> BasisKind:
    if text not in _KIND_NAMES:
        raise RangeError(f"--kind: expected trig or hyperbolic, got {text!r}")
    return _KIND_NAMES[text]


def _named(flag: str, fn, *args):
    """``fn(*args)``, whose range errors are prefixed with the name of the flag at fault."""
    try:
        return fn(*args)
    except RangeError as exc:
        raise RangeError(f"{flag}: {exc}") from None


def _filed(flag: str, verb: str, path, fn, *args):
    """``fn(*args)``, which reads or writes ``path``; its OS or decoding error names ``flag``."""
    try:
        return fn(*args)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise RangeError(f"{flag}: cannot {verb} {path} ({reason})") from None


def _capped(order: int, noun: str = "") -> int:
    """``order``, or a range error for --order if it exceeds the order cap."""
    if order > _MAX_ORDER:
        raise RangeError(f"--order: {noun}{order} exceeds the order cap {_MAX_ORDER}")
    return order


def _int_list_flag(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise RangeError(f"{flag}: expected an integer or comma list, got {text!r}") from None
    return values


def _load_document(args) -> SpecDocument:
    """The --spec document, once --max-elevations is known to be valid."""
    if args.max_elevations < 0:
        raise RangeError(f"--max-elevations: must be nonnegative, got {args.max_elevations}")
    path = Path(args.spec)
    text = _filed("--spec", "read", path, path.read_text, "utf-8")
    try:
        return parse_document(text)
    except SpecError as exc:
        raise SpecError(f"{path}:{exc.path}" if exc.path else str(path), exc.message) from None


def _coord_names(count: int) -> list[str]:
    if count <= 3:
        return ["x", "y", "z"][:count]
    return [f"c{i + 1}" for i in range(count)]


def _order_flag(args, delta: int):
    """--order: ``delta`` ints (one order repeats; a curve takes just one), or None."""
    if args.order is None:
        return None
    orders = _int_list_flag(args.order, "--order")
    if delta == 1 and len(orders) != 1:
        raise RangeError(f"--order: a curve takes one order, got {len(orders)}")
    if len(orders) not in (1, delta):
        raise RangeError(f"--order: expected {delta} orders, got {len(orders)}")
    _capped(max(orders))
    return orders * delta if len(orders) == 1 else orders


def _require_curve(doc: SpecDocument, command: str):
    if len(doc.spec._directions) != 1:
        raise RangeError(f"{command} works on curve specs only")
    return doc.spec


def _check_samples(count: int):
    if count < 2:
        raise RangeError(f"--samples: need at least 2 samples, got {count}")


def _space_flags(args) -> BasisSpace:
    """The space of --kind, --alpha and --order; alpha is checked alone first."""
    kind, alpha = _kind_flag(args.kind), _named("--alpha", parse_angle, args.alpha)
    _named("--alpha", BasisSpace, kind, 1, alpha)
    return _named("--order", BasisSpace, kind, _capped(args.order), alpha)


def _cmd_basis(args):
    _check_samples(args.samples)
    space = _space_flags(args)
    us = np.linspace(0.0, space.alpha, args.samples)
    mat = _named("--order", basis_matrix, space, us)  # the order can overflow the coefficients
    columns = ["u"] + [f"b{i}" for i in range(space.dimension)]
    return export_table(np.hstack([us[:, None], mat]), args.format, columns), args.out


def _cmd_xform(args):
    return export_table(transform_matrix(_space_flags(args)).rows, args.format), args.out


def _derivative_orders(args, delta: int):
    if args.derivative is None:
        return None
    orders = _int_list_flag(args.derivative, "--derivative")
    if len(orders) == 1 and delta > 1:
        orders = orders * delta
    if len(orders) != delta:
        raise RangeError(f"--derivative: expected {delta} orders, got {len(orders)}")
    if any(r < 0 for r in orders):
        raise RangeError(f"--derivative: orders must be nonnegative, got {args.derivative!r}")
    return orders


def _check_format(doc: SpecDocument, fmt: str, noun: str):
    """Refuse svg or obj output whose channel count does not fit, from the spec alone."""
    channels = len(doc.spec._products) - doc.rational
    if fmt == "svg" and channels != 2:
        raise RangeError(f"--format: svg needs 2-d {noun}")
    if fmt == "obj" and channels != 3:
        raise RangeError(f"--format: obj needs 3-d {noun}")


def _described(doc: SpecDocument, args, noun: str = "points"):
    """Control curve or grid of a document, honoring --order, --derivative and rational.

    Both flags are checked for shape before a rational document refuses a
    derivative, and --format (for output of ``noun``) before anything is built.
    """
    from .exact import _derivative_scale, _describe, min_orders

    spec = doc.spec
    delta = len(spec._directions)
    r = _derivative_orders(args, delta)
    orders = _order_flag(args, delta)
    if doc.rational and r is not None and any(r):
        raise RangeError("--derivative: not supported for rational specs")
    if args.format == "svg" and delta > 1:
        raise RangeError("--format: svg is for planar curves only")
    _check_format(doc, args.format, noun)
    for k, rj in zip(min_orders(spec), r or ()):
        _named("--derivative", _derivative_scale, k, rj)  # the largest frequency scales most
    return _describe(spec, orders, r, doc.rational, args.max_elevations)[0]


def _output(values, fmt: str, role: str, axes, lead: str, weights=None) -> str:
    """Points or samples as svg (a planar ``role`` path), obj or a table.

    Table rows start with the lattice of ``axes``, columns named ``lead`` (one
    axis) or ``lead`` and a number; then come the coordinates and any weight.
    """
    if fmt == "svg":
        return export_svg([SvgPath(values, role)])
    if fmt == "obj":
        return export_obj(values)
    blocks = [m.reshape(-1, 1) for m in np.meshgrid(*axes, indexing="ij")]
    columns = [lead] if len(axes) == 1 else [f"{lead}{j + 1}" for j in range(len(axes))]
    blocks.append(values.reshape(-1, values.shape[-1]))
    columns += _coord_names(values.shape[-1])
    if weights is not None:
        blocks.append(weights.reshape(-1, 1))
        columns.append("weight")
    return export_table(np.hstack(blocks), fmt, columns)


def _control_output(net, fmt: str) -> str:
    """A control polygon, or a grid with its multi-index, through :func:`_output`."""
    dims = net.points.shape[:-1]
    index = [np.arange(d) for d in dims] if len(dims) > 1 else []
    return _output(net.points, fmt, "polygon", index, "i", net.weights)


def _cmd_describe(args, require_rational=False):
    doc = _load_document(args)
    if require_rational and not doc.rational:
        raise SpecError("rational", "describe-rational needs a spec with rational = true")
    return _control_output(_described(doc, args), args.format), args.out


def _cmd_sample(args):
    from .surface import _sampled

    _check_samples(args.samples)
    doc = _load_document(args)
    axes, values = _sampled(_described(doc, args, "samples"), doc.spec, args.samples)
    return _output(values, args.format, "curve", axes, "u"), args.out


def _cmd_subdivide(args):
    from .curve import _split_point, subdivide

    doc = _load_document(args)
    _require_curve(doc, "subdivide")
    curve = _described(doc, args)
    u0 = _named("--split-at", parse_angle, args.split_at)
    result = subdivide(curve, _named("--split-at", _split_point, curve.space, u0))

    def piece(p):
        return {
            "interval": [p.u_interval[0], p.u_interval[1]],
            "points": p.points.tolist(),
            "weights": p.weights.tolist(),
        }

    payload = {
        "split_ratio": result.split_ratio,
        "left": piece(result.left),
        "right": piece(result.right),
    }
    return json.dumps(payload, indent=2) + "\n", args.out


def _cmd_elevate(args):
    from .curve import elevate
    from .exact import _describe, min_order

    doc = _load_document(args)
    spec = _require_curve(doc, "elevate")
    _check_format(doc, args.format, "points")
    base = min_order(spec)
    target = (_order_flag(args, 1) or (None,))[0]
    if target is not None and target < base:
        raise RangeError(f"--order: target {target} below the minimum order {base}")
    curve = _describe(spec, None, None, doc.rational, args.max_elevations)[0]
    reached = curve.space.n  # above base when a rational description needed elevation
    if target is None:
        target = _capped(reached + 1, "default target ")
    elif target < reached:
        raise RangeError(
            f"--order: target {target} below the order {reached} the rational description reached"
        )
    return _control_output(elevate(curve, target - reached), args.format), args.out


def _cmd_gallery(args):
    from .gallery import run_gallery

    entries = _filed("--out", "write", args.out, run_gallery, args.out)
    lines = [
        f"{e['figure']}: wrote {e['output']}, max reconstruction error {e['error']:.3e}"
        for e in entries
    ]
    lines.append(f"{len(entries)} artifacts in {args.out}")
    return "\n".join(lines) + "\n", None


def _add_spec_flags(sub):
    sub.add_argument("--spec", required=True, help="path of the JSON spec document")
    sub.add_argument("--order", help="order n, or comma list for surfaces (default: minimum)")
    sub.add_argument(
        "--max-elevations",
        type=int,
        default=32,
        help="elevation budget for rational descriptions (default 32)",
    )


def _add_output_flags(sub, default_format="csv", formats=("csv", "json", "svg", "obj")):
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument(
        "--format",
        default=default_format,
        choices=formats,
        help=f"output format (default {default_format})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbez",
        description="Control point descriptions of trigonometric and hyperbolic geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="tabulate the basis functions of one space")
    p.add_argument("--kind", required=True, help="trig or hyperbolic")
    p.add_argument("--alpha", required=True, help="shape parameter (number or pi literal)")
    p.add_argument("--order", type=int, required=True, help="order n")
    p.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    _add_output_flags(p, formats=("csv", "json"))
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("xform", help="basis-to-canonical transformation matrix")
    p.add_argument("--kind", required=True, help="trig or hyperbolic")
    p.add_argument("--alpha", required=True, help="shape parameter (number or pi literal)")
    p.add_argument("--order", type=int, required=True, help="order n")
    _add_output_flags(p, formats=("csv", "json"))
    p.set_defaults(handler=_cmd_xform)

    p = sub.add_parser("describe", help="control points of a spec document")
    _add_spec_flags(p)
    p.add_argument("--derivative", help="derivative order r, or comma list for surfaces")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("describe-rational", help="like describe, but requires a rational spec")
    _add_spec_flags(p)
    p.add_argument("--derivative", help=argparse.SUPPRESS)
    _add_output_flags(p)
    p.set_defaults(handler=lambda args: _cmd_describe(args, require_rational=True))

    p = sub.add_parser("subdivide", help="split a curve at an interior parameter")
    _add_spec_flags(p)
    p.add_argument("--split-at", required=True, help="split parameter u0 (number or pi literal)")
    _add_output_flags(p, default_format="json", formats=("json",))
    p.set_defaults(handler=_cmd_subdivide, derivative=None)

    p = sub.add_parser("elevate", help="order elevate a curve step by step")
    _add_spec_flags(p)
    _add_output_flags(p, formats=("csv", "json", "svg"))
    p.set_defaults(handler=_cmd_elevate)

    p = sub.add_parser("sample", help="evaluate a spec document on a uniform grid")
    _add_spec_flags(p)
    p.add_argument("--derivative", help="derivative order r, or comma list for surfaces")
    p.add_argument("--samples", type=int, default=200, help="samples per direction (default 200)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("gallery", help="regenerate all bundled figures")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_gallery)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, out = args.handler(args)
        if out:
            _filed("--out", "write", out, Path(out).write_text, text)
    except (RangeError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if not out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
