"""Command line front end.

Every subcommand validates its flags before computing anything and exits
with 0 on success, 2 on a validation error (bad flag, malformed spec) and 3
on a numerical failure (non-positive denominator, exhausted elevation
budget).  Output goes to stdout unless ``--out`` names a file; ``gallery``
treats ``--out`` as a directory and prints its error report to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bbasis import BasisKind, BasisSpace, basis_matrix
from .curve import elevate, subdivide
from .errors import NumericalError, RangeError, SpecError
from .exact import CurveSpec, min_order
from .gallery import run_gallery
from .io import (
    SpecDocument,
    SvgPath,
    export_obj,
    export_svg,
    export_table,
    parse_angle,
    parse_document,
)
from .surface import _described_net, _sampled
from .xform import transform_matrix

__all__ = ["main"]

_KIND_NAMES = {
    "trig": BasisKind.TRIGONOMETRIC,
    "trigonometric": BasisKind.TRIGONOMETRIC,
    "hyp": BasisKind.HYPERBOLIC,
    "hyperbolic": BasisKind.HYPERBOLIC,
}


def _kind_flag(text: str) -> BasisKind:
    if text not in _KIND_NAMES:
        raise RangeError(f"--kind: expected trig or hyperbolic, got {text!r}")
    return _KIND_NAMES[text]


def _angle_flag(text: str, flag: str) -> float:
    try:
        return parse_angle(text)
    except RangeError as exc:
        raise RangeError(f"{flag}: {exc}") from None


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
    try:
        text = path.read_text()
    except OSError as exc:
        raise RangeError(f"--spec: cannot read {path} ({exc.strerror or exc})") from None
    try:
        return parse_document(text)
    except SpecError as exc:
        raise SpecError(f"{path}:{exc.path}" if exc.path else str(path), exc.message) from None


def _coord_names(count: int) -> list[str]:
    if count <= 3:
        return ["x", "y", "z"][:count]
    return [f"c{i + 1}" for i in range(count)]


def _single_order(args) -> int | None:
    if args.order is None:
        return None
    orders = _int_list_flag(args.order, "--order")
    if len(orders) != 1:
        raise RangeError(f"--order: a curve takes one order, got {len(orders)}")
    return orders[0]


def _surface_orders(doc: SpecDocument, args) -> tuple[int, ...] | None:
    if args.order is None:
        return None
    orders = _int_list_flag(args.order, "--order")
    delta = doc.spec.delta
    if len(orders) == 1:
        return orders * delta
    if len(orders) != delta:
        raise RangeError(f"--order: expected {delta} orders, got {len(orders)}")
    return orders


def _require_curve(doc: SpecDocument, command: str) -> CurveSpec:
    if not isinstance(doc.spec, CurveSpec):
        raise RangeError(f"{command} works on curve specs only")
    return doc.spec


def _check_samples(count: int):
    if count < 2:
        raise RangeError(f"--samples: need at least 2 samples, got {count}")


def _cmd_basis(args):
    _check_samples(args.samples)
    space = BasisSpace(_kind_flag(args.kind), args.order, _angle_flag(args.alpha, "--alpha"))
    us = np.linspace(0.0, space.alpha, args.samples)
    mat = basis_matrix(space, us)
    columns = ["u"] + [f"b{i}" for i in range(space.dimension)]
    return export_table(np.hstack([us[:, None], mat]), args.format, columns), args.out


def _cmd_xform(args):
    space = BasisSpace(_kind_flag(args.kind), args.order, _angle_flag(args.alpha, "--alpha"))
    return export_table(transform_matrix(space).rows, args.format), args.out


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


def _described(doc: SpecDocument, args):
    """Control curve or grid of a document, honoring --order, --derivative and rational.

    Both flags are checked for shape before a rational document refuses a
    derivative, and --format before anything is built.
    """
    spec = doc.spec
    curve = isinstance(spec, CurveSpec)
    r = _derivative_orders(args, 1 if curve else spec.delta)
    orders = _single_order(args) if curve else _surface_orders(doc, args)
    if doc.rational and r is not None and any(r):
        raise RangeError("--derivative: not supported for rational specs")
    if args.format == "svg" and not curve:
        raise RangeError("--format: svg is for planar curves only")
    return _described_net(spec, doc.rational, orders, r, args.max_elevations)


def _control_output(net, fmt: str) -> str:
    """A control polygon or grid as svg (planar polygons), obj or a table.

    Table rows hold a grid's multi-index, the coordinates and any weight.
    """
    points = net.points
    channels = points.shape[-1]
    if fmt == "svg":
        if channels != 2:
            raise RangeError("--format: svg needs 2-d points")
        return export_svg([SvgPath(points, "polygon")])
    if fmt == "obj":
        if channels != 3:
            raise RangeError("--format: obj needs 3-d points")
        return export_obj(points)
    blocks = [points.reshape(-1, channels)]
    columns = _coord_names(channels)
    if points.ndim > 2:
        dims = points.shape[:-1]
        blocks.insert(0, np.indices(dims).reshape(len(dims), -1).T)
        columns = [f"i{j + 1}" for j in range(len(dims))] + columns
    if net.weights is not None:
        blocks.append(net.weights.reshape(-1, 1))
        columns.append("weight")
    return export_table(np.hstack(blocks), fmt, columns)


def _cmd_describe(args, require_rational=False):
    doc = _load_document(args)
    if require_rational and not doc.rational:
        raise SpecError("rational", "describe-rational needs a spec with rational = true")
    return _control_output(_described(doc, args), args.format), args.out


def _cmd_sample(args):
    _check_samples(args.samples)
    doc = _load_document(args)
    axes, values = _sampled(_described(doc, args), doc.spec, args.samples)
    if args.format == "obj":
        if values.shape[-1] != 3:
            raise RangeError("--format: obj needs 3-d samples")
        return export_obj(values), args.out
    if args.format == "svg":
        if values.shape[1] != 2:
            raise RangeError("--format: svg needs 2-d samples")
        return export_svg([SvgPath(values, "curve")]), args.out
    mesh = np.meshgrid(*axes, indexing="ij")
    params = np.stack([m.reshape(-1) for m in mesh], axis=1)
    data = np.hstack([params, values.reshape(len(params), -1)])
    names = ["u"] if len(axes) == 1 else [f"u{j + 1}" for j in range(len(axes))]
    return export_table(data, args.format, names + _coord_names(values.shape[-1])), args.out


def _cmd_subdivide(args):
    doc = _load_document(args)
    _require_curve(doc, "subdivide")
    if args.format != "json":
        raise RangeError("--format: subdivide emits json only")
    curve = _described(doc, args)
    u0 = _angle_flag(args.split_at, "--split-at")
    result = subdivide(curve, u0)

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
    doc = _load_document(args)
    spec = _require_curve(doc, "elevate")
    base = min_order(spec)
    target = _single_order(args)
    if target is None:
        target = base + 1
    if target < base:
        raise RangeError(f"--order: target {target} below the minimum order {base}")
    curve = _described_net(spec, doc.rational, base, None, args.max_elevations)
    curve = elevate(curve, target - curve.space.n)
    return _control_output(curve, args.format), args.out


def _cmd_gallery(args):
    entries = run_gallery(args.out)
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

    p = sub.add_parser(
        "describe-rational", help="like describe, but requires a rational spec"
    )
    _add_spec_flags(p)
    p.add_argument("--derivative", help=argparse.SUPPRESS)
    _add_output_flags(p)
    p.set_defaults(handler=lambda args: _cmd_describe(args, require_rational=True))

    p = sub.add_parser("subdivide", help="split a curve at an interior parameter")
    _add_spec_flags(p)
    p.add_argument(
        "--split-at", required=True, help="split parameter u0 (number or pi literal)"
    )
    _add_output_flags(p, default_format="json", formats=("json",))
    p.set_defaults(handler=_cmd_subdivide, derivative=None)

    p = sub.add_parser("elevate", help="order elevate a curve step by step")
    _add_spec_flags(p)
    _add_output_flags(p, formats=("csv", "json", "svg"))
    p.set_defaults(handler=_cmd_elevate)

    p = sub.add_parser("sample", help="evaluate a spec document on a uniform grid")
    _add_spec_flags(p)
    p.add_argument("--derivative", help="derivative order r, or comma list for surfaces")
    p.add_argument(
        "--samples", type=int, default=200, help="samples per direction (default 200)"
    )
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
    except (RangeError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
