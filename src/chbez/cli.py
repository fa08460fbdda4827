"""Command line front end.

Every subcommand exits with 0 on success, 2 on a validation error (bad
flag, malformed spec) and 3 on a numerical failure (non-positive
denominator, exhausted elevation budget).  A --spec file that cannot be read
as UTF-8 and an --out path that cannot be written are validation errors too.
Output goes to stdout unless ``--out`` names a file; ``gallery`` treats
``--out`` as a directory and prints its error report to stdout.  A stdout
that cannot be written is a validation error as well, and so is a command
that runs out of memory: its message names --samples once the command
samples, else --order, which sizes the control net.

A command with several faults is refused at the first of them, in one
order.  basis judges --samples first; basis and xform judge --kind and
--alpha alone, then --order with them.  describe, describe-rational,
sample, subdivide and elevate share one front end (:func:`_described`),
which refuses

1. the flags that need no document: --samples, then --max-elevations;
2. the document: --spec read and parsed, then what the command needs of it
   (describe-rational a rational spec, subdivide and elevate a curve);
3. the flags checked against it: --order (its count, the order cap, the
   overflow guard), --derivative (its count and sign, a rational spec, the
   double range of k**r), --split-at read as an angle literal, --format;
4. the description: an order, or elevate's target, below the minimum
   (named at --order), then what describing refuses; a rational spec whose
   denominator dips at a sample is refused for the dip instead of either;
5. what needs the description: elevate's target against the order the
   rational description reached (a default target against the cap and the
   guard), and the split point's range and shares.

numpy is imported on first use (:mod:`chbez._lazy`).  Help and every
refusal of a flag or a spec end without it.  xform, a trigonometric basis
table of up to :data:`_PURE_BASIS_CELLS` cells and every curve run on the
pure path (:mod:`chbez._pure`), with the bytes of the library; hyperbolic
and larger basis tables, and every patch, run on numpy.  So xform, those
basis tables and a curve's csv and json end without numpy; svg and obj
output and sample load it to draw or to sample the polygon, and a rational
curve that is refused loads it to sample its denominator.  Importing numpy
takes 68-78 ms (9 runs) of a one-shot process: a trigonometric basis table
of order 32 and 200 samples takes 102 ms in a pure process and 164 ms
through numpy.  The pure transform rows, by far the largest pure step of a
curve, take 0.2, 0.8, 3.5 and 19.5 ms at orders 4, 8, 16 and 32, and a pure
200-sample basis table 0.8 and 4.0 ms at orders 4 and 32, with 1.5 and
11.3 ms more for its csv (2-vCPU x86-64 host, one CPU).  So no order is
too high for the pure path of csv and json.  svg, obj and sample of a curve
load numpy anyway, and at order 32 they pay 12-20 ms more for the pure rows
than numpy's would cost.

A CLI process (``python -m chbez.cli`` or the ``chbez`` script) keeps the
cyclic garbage collector off while its modules load.  Before the command it
freezes what the imports made, so no later collection traverses those
long-lived objects again, not even the ones at exit, and turns the collector
back on.  A command that needs numpy imports it with the collector off and
freezes what that import made too.  Importing this module, or calling
:func:`main` in process, does nothing to the collector.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    gc.disable()  # until _process_entry freezes what the imports below make

from . import _lazy
from .bbasis import _MAX_ORDER, BasisKind, BasisSpace, _split_point, basis_matrix
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

np = _lazy.Numpy(globals())

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


def _filed(flag: str, action: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, which does ``action`` (``read PATH``, ``write``, ...).

    Its OS or decoding error names ``flag`` and the action.
    """
    try:
        return fn(*args, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise RangeError(f"{flag}: cannot {action} ({reason})") from None


def _capped(order: int, noun: str = "") -> int:
    """``order``, or a range error for --order if it exceeds the order cap."""
    if order > _MAX_ORDER:
        raise RangeError(f"--order: {noun}{order} exceeds the order cap {_MAX_ORDER}")
    return order


def _per_direction(text, flag: str, delta: int):
    """--order or --derivative as one int per direction of ``delta``, or None when not given.

    One value stands for every direction, but a curve takes one --order.
    """
    if text is None:
        return None
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise RangeError(f"{flag}: expected an integer or comma list, got {text!r}") from None
    if flag == "--order" and delta == 1 and len(values) != 1:
        raise RangeError(f"--order: a curve takes one order, got {len(values)}")
    if len(values) not in (1, delta):
        raise RangeError(f"{flag}: expected {delta} orders, got {len(values)}")
    return values * (delta // len(values))


def _load_document(path: Path) -> SpecDocument:
    """The --spec document at ``path``; a spec error names the file first."""
    text = _filed("--spec", f"read {path}", path.read_text, "utf-8")
    try:
        return parse_document(text)
    except SpecError as exc:
        raise SpecError(f"{path}:{exc.path}" if exc.path else str(path), exc.message) from None


def _coord_names(count: int) -> list[str]:
    return ["x", "y", "z"][:count] if count <= 3 else [f"c{i + 1}" for i in range(count)]


def _check_samples(count: int):
    if count < 2:
        raise RangeError(f"--samples: need at least 2 samples, got {count}")


def _sampling(args, delta: int = 1):
    """Sampling begins: from here on :func:`main` refuses a ``MemoryError`` at --samples.

    Until then the refusal names --order, which sizes the control net described
    and written.  A lattice of more doubles than one array can index is
    refused before anything is allocated.
    """
    args.memory_refusal = f"--samples: {args.samples} samples do not fit in memory"
    if args.samples**delta > sys.maxsize // 8:  # sys.maxsize is numpy's intp max
        raise MemoryError


def _space_flags(args) -> BasisSpace:
    """The space of --kind, --alpha and --order."""
    kind, alpha = _kind_flag(args.kind), _named("--alpha", parse_angle, args.alpha)
    _named("--alpha", BasisSpace, kind, 1, alpha)
    return _named("--order", BasisSpace, kind, _capped(args.order), alpha)


# The most cells (the u column included) of a basis table built on the pure path.  Whole
# trigonometric processes, pure vs numpy (medians of 7 alternating pairs, one CPU of a 2-vCPU
# x86-64 host): 13,200 cells 102 vs 164 ms, 59,400 154 vs 167, 66,000 161 vs 160 (order 1
# 172 vs 170) and 79,200 187 vs 183 (order 2 226 vs 203).
_PURE_BASIS_CELLS = 60_000


def _cmd_basis(args):
    """A trigonometric table of up to :data:`_PURE_BASIS_CELLS` cells is built on the pure path.

    Hyperbolic tables stay on numpy: its vectorized sinh differs from math.sinh on some CPUs.
    """
    _check_samples(args.samples)
    space = _space_flags(args)
    _sampling(args)
    columns = ["u"] + [f"b{i}" for i in range(space.dimension)]
    if space.kind is BasisKind.TRIGONOMETRIC and args.samples * len(columns) <= _PURE_BASIS_CELLS:
        from . import _pure

        rows = _named("--alpha", _pure.basis_table, space, args.samples)
        return _pure.table(rows, args.format, columns), args.out
    us = np.linspace(0.0, space.alpha, args.samples)
    mat = _named("--alpha", basis_matrix, space, us)  # a tiny alpha has no normal s(alpha/2)
    return export_table(np.hstack([us[:, None], mat]), args.format, columns), args.out


def _cmd_xform(args):
    from . import _pure

    space = _space_flags(args)
    return _pure.table(_pure.transform_rows(space), args.format), args.out


def _check_format(doc: SpecDocument, fmt: str, noun: str):
    """Refuse svg output of a patch, and svg or obj output whose channel count does not fit."""
    channels = len(doc.spec._products) - doc.rational
    if fmt == "svg" and len(doc.spec._directions) > 1:
        raise RangeError("--format: svg is for planar curves only")
    if fmt == "svg" and channels != 2:
        raise RangeError(f"--format: svg needs 2-d {noun}")
    if fmt == "obj" and channels != 3:
        raise RangeError(f"--format: obj needs 3-d {noun}")


def _described(args, noun: str = "points"):
    """The spec of a spec command and its control polygon (pure path) or grid.

    The front end of every spec command, which refuses in the order the module
    docstring states; --format refuses output of ``noun``.  The values read
    replace the text of --order and --split-at in ``args``.  elevate's --order
    is its target, so elevate describes at the minimum order.
    """
    from .exact import _check_orders, _denominator_named, _derivative_scale, _describe, min_orders

    if hasattr(args, "samples"):
        _check_samples(args.samples)
    if args.max_elevations < 0:
        raise RangeError(f"--max-elevations: must be nonnegative, got {args.max_elevations}")
    doc = _load_document(Path(args.spec))
    spec, command, elevating = doc.spec, args.command, args.command == "elevate"
    delta, minimum = len(spec._directions), min_orders(spec)
    if command == "describe-rational" and not doc.rational:
        raise SpecError("rational", "describe-rational needs a spec with rational = true")
    if command in ("subdivide", "elevate") and delta > 1:
        raise RangeError(f"{command} works on curve specs only")
    args.order = orders = _per_direction(args.order, "--order", delta)
    if orders:
        _capped(max(orders))
    for direction, n in zip(spec._directions, orders or ()):
        if n > 0:  # a smaller order is refused against the minimum order when described
            _named("--order", direction.space, n)
    derivative = getattr(args, "derivative", None)  # subdivide and elevate have no --derivative
    r = _per_direction(derivative, "--derivative", delta)
    if r and min(r) < 0:
        raise RangeError(f"--derivative: orders must be nonnegative, got {derivative!r}")
    if r and any(r) and doc.rational:
        raise RangeError("--derivative: not supported for rational specs")
    for k, rj in zip(minimum, r or ()):
        _named("--derivative", _derivative_scale, k, rj)  # the largest frequency scales most
    if command == "subdivide":
        args.split_at = _named("--split-at", parse_angle, args.split_at)
    _check_format(doc, args.format, noun)

    def at_least_minimum(spec, orders, *_):
        if elevating and orders and orders[0] < minimum[0]:
            raise RangeError(f"target {orders[0]} below the minimum order {minimum[0]}")
        _check_orders(spec, orders)

    given = [spec, orders, r, doc.rational, args.max_elevations]
    _named("--order", _denominator_named(at_least_minimum), *given)
    if elevating:
        given[1] = None
    if delta > 1:
        return spec, _describe(*given)[0]
    from . import _pure

    return spec, _pure.describe(*given)


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
    """A control polygon of the pure path, or a grid with its multi-index, as ``fmt``.

    A polygon's table goes through the pure path's writer; svg and obj, and a
    grid, go through :func:`_output`.
    """
    if isinstance(net.points, list) and fmt in ("csv", "json"):
        from . import _pure

        rows, columns = net.points, _coord_names(len(net.points[0]))
        if net.weights:
            rows, columns = [[*p, w] for p, w in zip(rows, net.weights)], [*columns, "weight"]
        return _pure.table(rows, fmt, columns)
    points = np.asarray(net.points)
    dims = points.shape[:-1]
    index = [np.arange(d) for d in dims] if len(dims) > 1 else []
    return _output(points, fmt, "polygon", index, "i", net.weights)


def _cmd_describe(args):
    return _control_output(_described(args)[1], args.format), args.out


def _cmd_sample(args):
    from .curve import ControlCurve
    from .surface import _sampled

    spec, net = _described(args, "samples")
    if len(spec._directions) == 1:
        net = ControlCurve(*net)  # the polygon of the pure path
    _sampling(args, len(spec._directions))
    axes, values = _sampled(net, spec, args.samples)
    return _output(values, args.format, "curve", axes, "u"), args.out


def _cmd_subdivide(args):
    from . import _pure

    curve = _described(args)[1]
    u0 = _named("--split-at", _split_point, curve.space, args.split_at)
    return json.dumps(_pure.subdivide(curve, u0), indent=2) + "\n", args.out


def _cmd_elevate(args):
    from . import _pure

    spec, curve = _described(args)
    reached = curve.space.n  # above the minimum when a rational description needed elevation
    target = args.order[0] if args.order else _capped(reached + 1, "default target ")
    if target < reached:
        raise RangeError(f"--order: target {target} below the order {reached} the rational "
                         "description reached")
    _named("--order", spec.space, target)  # a default target can trip the overflow guard
    elevated = _pure.elevate(curve, target - reached) if target > reached else curve
    return _control_output(elevated, args.format), args.out


def _cmd_gallery(args):
    from .gallery import run_gallery

    entries = _filed("--out", f"write {args.out}", run_gallery, args.out)
    report = "{figure}: wrote {output}, max reconstruction error {error:.3e}"
    lines = [report.format(**e) for e in entries]
    lines.append(f"{len(entries)} artifacts in {args.out}")
    return "\n".join(lines) + "\n", None


# Shared flags, each a (name, help, options) triple for ``add_argument``.
_REQUIRED = {"required": True}
_SPACE_FLAGS = (
    ("--kind", "trig or hyperbolic", _REQUIRED),
    ("--alpha", "shape parameter (number or pi literal)", _REQUIRED),
    ("--order", "order n", {"type": int, "required": True}),
)
_SPEC_FLAGS = (
    ("--spec", "path of the JSON spec document", _REQUIRED),
    ("--order", "order n, or comma list for surfaces (default: minimum)", {}),
    ("--max-elevations", "elevation budget for rational descriptions (default 32)",
     {"type": int, "default": 32}),
)
_DERIVATIVE = ("--derivative", "derivative order r, or comma list for surfaces", {})
_OUT = ("--out", "output file (default: stdout)", {})


def _format_flag(*formats, default="csv"):
    options = {"default": default, "choices": formats}
    return "--format", f"output format (default {default})", options


_FORMAT = _format_flag("csv", "json", "svg", "obj")  # every format

# Command -> its help line, its handler and its flags in the order its help lists them.
_COMMANDS = {
    "basis": ("tabulate the basis functions of one space", _cmd_basis, (
        *_SPACE_FLAGS, ("--samples", "sample count (default 200)", {"type": int, "default": 200}),
        _OUT, _format_flag("csv", "json"))),
    "xform": ("basis-to-canonical transformation matrix", _cmd_xform,
              (*_SPACE_FLAGS, _OUT, _format_flag("csv", "json"))),
    "describe": ("control points of a spec document", _cmd_describe,
                 (*_SPEC_FLAGS, _DERIVATIVE, _OUT, _FORMAT)),
    "describe-rational": ("like describe, but requires a rational spec", _cmd_describe,
                          (*_SPEC_FLAGS, ("--derivative", argparse.SUPPRESS, {}), _OUT, _FORMAT)),
    "subdivide": ("split a curve at an interior parameter", _cmd_subdivide, (
        *_SPEC_FLAGS, ("--split-at", "split parameter u0 (number or pi literal)", _REQUIRED),
        _OUT, _format_flag("json", default="json"))),
    "elevate": ("order elevate a curve step by step", _cmd_elevate,
                (*_SPEC_FLAGS, _OUT, _format_flag("csv", "json", "svg"))),
    "sample": ("evaluate a spec document on a uniform grid", _cmd_sample, (
        *_SPEC_FLAGS, _DERIVATIVE,
        ("--samples", "samples per direction (default 200)", {"type": int, "default": 200}),
        _OUT, _FORMAT)),
    "gallery": ("regenerate all bundled figures", _cmd_gallery,
                (("--out", "output directory", _REQUIRED),)),
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """Help goes through the check of command output, which refuses a stdout it cannot write."""
        _filed("stdout", "write", print, self.format_help(), end="", file=file, flush=True)


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, with the flags of ``command`` only if it names one.

    Every command keeps its help line, so the help, usage and error text of
    a parse are those of the parser with the flags of every command.
    """
    parser = _Parser(
        prog="chbez",
        description="Control point descriptions of trigonometric and hyperbolic geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command == name or command not in _COMMANDS:
            for flag, help_text, options in flags:
                p.add_argument(flag, help=help_text, **options)
            p.set_defaults(handler=handler,
                           memory_refusal="--order: the control net does not fit in memory")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        text, out = args.handler(args)
        if out:
            _filed("--out", f"write {out}", Path(out).write_text, text)
        else:
            _filed("stdout", "write", print, text, end="", flush=True)
    except (RangeError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the refusal names --order, or --samples once sampling began
        print(f"error: {args.memory_refusal}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _process_entry() -> int:
    """:func:`main` as a process: ``python -m chbez.cli`` and the ``chbez`` script.

    What the imports made lives as long as the process, so it moves to the
    collector's permanent generation first, as does what numpy's import makes
    if the command needs numpy (:data:`chbez._lazy.FREEZE`).  A stdout that
    still cannot be flushed afterwards is pointed at the null device, so the
    flush at exit neither fails again nor changes the exit code.
    """
    gc.freeze()
    gc.enable()
    _lazy.FREEZE = True
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(_process_entry())
