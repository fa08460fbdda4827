"""Spec documents and deterministic exporters.

Curves and patches enter the package as JSON documents listing their
traditional-form terms; see ``docs/formats.md`` for the schema.  Validation
is strict: unknown fields are rejected and every error message carries the
JSON path of the offending field.

All exporters are plain functions from data to text.  Floats are printed in
the shortest form that parses back to the identical double (``repr``),
which makes every export byte-deterministic and round-trippable.  Every
exporter writes its rows (CSV lines, OBJ records, SVG points and markers)
through one formatter, :func:`_format_rows`.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from . import _exports
from ._record import record
from .bbasis import _MAX_ORDER, BasisKind, _is_count
from .errors import RangeError, SpecError

if TYPE_CHECKING:  # the parsers import the spec types when they first run
    from .exact import CoordinateFunction, CurveSpec, Term
    from .surface import SurfaceSpec

__all__ = _exports(__name__)

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")

# Term family names per kind: the cosine-like one, then the sine-like one.
_FAMILY_NAMES = {
    BasisKind.TRIGONOMETRIC: ("cos", "sin"),
    BasisKind.HYPERBOLIC: ("cosh", "sinh"),
}

_KINDS = {kind.value: kind for kind in BasisKind}


def parse_angle(text: str) -> float:
    """Parse an angle literal: a decimal number or a multiple of pi.

    Accepted pi forms look like ``pi``, ``pi/2``, ``2pi/3``, ``-5pi/3``;
    the value is computed as ``sign * coefficient * pi / divisor`` so the
    usual fractions of pi come out bit-identical with writing the same
    expression in code.
    """
    text = text.strip()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise RangeError(f"zero divisor in angle literal {text!r}")
        return sign * coeff * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise RangeError(f"cannot parse angle literal {text!r}") from None


def format_float(x: float) -> str:
    """Shortest decimal form that round-trips to the same double."""
    return repr(float(x))


# Rows per block of :func:`_format_rows`.  Each distinct value of a block is
# formatted once; while a block is written it holds its cells (one object
# pointer per value and literal piece), one string per distinct value and
# the block's text, a few hundred kB for the widest table.
_BLOCK_ROWS = 2048


def _format_rows(pieces, *groups: np.ndarray) -> list[str]:
    """Text of rows whose cells are the columns of ``groups``, one string per ``_BLOCK_ROWS`` block.

    A row reads ``pieces[0] cell pieces[1] cell ... pieces[-1]``: the
    columns of all ``groups`` (2-d arrays of one row count and of 64-bit
    float or integer dtype) in order, so ``len(pieces)`` is one more than
    their total width.  Within a block, each distinct bit pattern of a group
    (so ``0.0`` and ``-0.0``, and NaN payloads, stay apart) is turned into a
    Python scalar by ``tolist`` and printed once by ``repr``: the bytes of
    :func:`format_float` for a float and of ``%d`` for an integer.
    """
    literals = np.array(pieces, dtype=object)
    blocks = []
    for start in range(0, len(groups[0]), _BLOCK_ROWS):
        parts = [g[start : start + _BLOCK_ROWS] for g in groups]
        cells = np.empty((len(parts[0]), len(literals) * 2 - 1), dtype=object)
        cells[:, 0::2] = literals
        values, col = cells[:, 1::2], 0
        for part in parts:
            keys, inverse = np.unique(part.view(np.int64), return_inverse=True)
            text = np.array([repr(x) for x in keys.view(part.dtype).tolist()], dtype=object)
            values[:, col : col + part.shape[1]] = text[inverse.reshape(part.shape)]
            col += part.shape[1]
        blocks.append("".join(cells.ravel().tolist()))
    return blocks


@record
class SpecDocument:
    """A parsed document: the spec plus its declared rationality."""

    version: int
    spec: CurveSpec | SurfaceSpec
    rational: bool


def parse_document(text: str) -> SpecDocument:
    """Parse and validate a JSON spec document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("", f"not valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise SpecError("", "not valid JSON (nested too deeply)") from None
    if not isinstance(raw, dict):
        raise SpecError("", "document must be a JSON object")
    doc_type = _field(raw, "type", "type", str, "a string")
    if doc_type not in _DOCUMENTS:
        raise SpecError("type", f"must be 'curve' or 'surface', got {doc_type!r}")
    fields, parse = _DOCUMENTS[doc_type]
    _object(raw, {"version", "type", "rational", *fields}, "")
    version = raw.get("version")
    if version != 1:
        raise SpecError("version", f"unsupported version {version!r} (expected 1)")
    rational = raw.get("rational", False)
    if not isinstance(rational, bool):
        raise SpecError("rational", "must be a boolean")
    return SpecDocument(1, parse(raw, rational), rational)


def parse_spec(text: str) -> CurveSpec | SurfaceSpec:
    """Parse a JSON spec document, returning only the spec."""
    return parse_document(text).spec


def _parse_curve(raw: dict, rational: bool) -> CurveSpec:
    """A curve is the one-direction case: its coordinates are read as patch factors."""
    from .exact import CurveSpec

    kind, alpha = _parse_direction(raw, "")
    coords = _objects(raw, "coords", "", {"terms"})
    fns = tuple(_parse_coordinate(c, kind, path) for path, c in coords)
    spec = _at("alpha", CurveSpec, kind, alpha, fns)
    if rational and spec.dimension < 2:
        raise SpecError("coords", "a rational curve needs at least 2 coordinates")
    return spec


def _parse_surface(raw: dict, rational: bool) -> SurfaceSpec:
    from .surface import (MAX_DIRECTIONS, Direction, ProductTerm, SurfaceCoordinateFunction,
                          SurfaceSpec)

    entries = _objects(raw, "directions", "", {"kind", "alpha"}, minimum=2)
    if len(raw["directions"]) > MAX_DIRECTIONS:
        raise SpecError("directions", f"at most {MAX_DIRECTIONS} directions supported")
    directions = [_at(f"{p}.alpha", Direction, *_parse_direction(d, p)) for p, d in entries]
    delta = len(directions)
    coords = _objects(raw, "coords", "", {"summands"})
    count = len(raw["coords"])
    if count < delta + rational:
        raise SpecError(
            "coords",
            f"{count} coordinate(s) cannot cover {delta} direction(s)"
            + (" plus a denominator" if rational else ""),
        )
    fns = []
    for path, c in coords:
        terms = []
        for spath, s in _objects(c, "summands", path, {"factors"}):
            factors = _objects(s, "factors", spath, {"terms"})
            if len(s["factors"]) != delta:
                raise SpecError(
                    f"{spath}.factors", f"expected {delta} factors, got {len(s['factors'])}"
                )
            terms.append(ProductTerm(tuple(
                _parse_coordinate(f, d.kind, fpath) for d, (fpath, f) in zip(directions, factors)
            )))
        fns.append(SurfaceCoordinateFunction(tuple(terms)))
    return SurfaceSpec(tuple(directions), count - delta - rational, tuple(fns))


# Document type -> the fields it adds to version, type and rational, and its parser.
_DOCUMENTS = {
    "curve": ({"kind", "alpha", "coords"}, _parse_curve),
    "surface": ({"directions", "coords"}, _parse_surface),
}


def _parse_direction(raw: dict, path: str) -> tuple[BasisKind, float]:
    """Kind and alpha of a curve (``path`` empty) or of a patch direction."""
    prefix = f"{path}." if path else ""
    value = _field(raw, "kind", f"{prefix}kind", str, "a string")
    if value not in _KINDS:
        raise SpecError(f"{prefix}kind", f"must be 'trigonometric' or 'hyperbolic', got {value!r}")
    alpha = _number(raw, "alpha", f"{prefix}alpha", angle=True)
    if alpha <= 0.0:
        raise SpecError(f"{prefix}alpha", f"must be positive, got {alpha!r}")
    return _KINDS[value], alpha


def _parse_coordinate(raw: dict, kind: BasisKind, path: str) -> CoordinateFunction:
    """A curve coordinate or a patch factor: a list of terms in one direction's kind."""
    from .exact import CoordinateFunction

    terms = _objects(raw, "terms", path, {"family", "k", "a", "phase"})
    return CoordinateFunction(tuple(_parse_term(t, kind, tpath) for tpath, t in terms))


def _parse_term(raw: dict, kind: BasisKind, path: str) -> Term:
    from .exact import Term, TermFamily

    family_raw = _field(raw, "family", f"{path}.family", str, "a string")
    families = _FAMILY_NAMES[kind]
    if family_raw not in families:
        expected = " or ".join(sorted(families))
        raise SpecError(
            f"{path}.family",
            f"{family_raw!r} does not match the {kind.value} kind (expected {expected})",
        )
    k = raw.get("k")
    if not _is_count(k):
        raise SpecError(f"{path}.k", f"must be a nonnegative integer, got {k!r}")
    if k > _MAX_ORDER:
        raise SpecError(f"{path}.k", f"{k} exceeds the order cap {_MAX_ORDER}")
    a = _number(raw, "a", f"{path}.a")
    phase = _number(raw, "phase", f"{path}.phase", angle=True) if "phase" in raw else 0.0
    family = TermFamily.COSINE if family_raw == families[0] else TermFamily.SINE
    return Term(family, k, a, phase)


def _field(raw: dict, key: str, path: str, types, noun: str):
    """``raw[key]``, or a spec error at ``path`` unless it is one of ``types`` (never a bool)."""
    value = raw.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        raise SpecError(path, f"must be {noun}, got {value!r}")
    return value


def _number(raw: dict, key: str, path: str, angle: bool = False) -> float:
    """A finite number, or with ``angle`` also an angle literal (see :func:`parse_angle`)."""
    if angle:
        value = _field(raw, key, path, (int, float, str), "a number or an angle literal")
    else:
        value = _field(raw, key, path, (int, float), "a number")
    try:
        value = _at(path, parse_angle, value) if isinstance(value, str) else float(value)
    except OverflowError:  # an integer beyond double range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise SpecError(path, f"must be finite, got {value!r}")
    return value


def _at(path: str, fn, *args):
    """``fn(*args)``, whose range errors become spec errors at ``path``."""
    try:
        return fn(*args)
    except RangeError as exc:
        raise SpecError(path, str(exc)) from None


def _objects(raw: dict, key: str, path: str, allowed: set, minimum: int = 1):
    """``(path, entry)`` for each object listed under ``key`` of the object at ``path``.

    The list is checked at once; each entry (an object with ``allowed``
    fields only) when iteration reaches it, so faults surface in document order.
    """
    path = f"{path}.{key}" if path else key
    items = _field(raw, key, path, list, "an array")
    if len(items) < minimum:
        raise SpecError(path, f"must have at least {minimum} entr{'y' if minimum == 1 else 'ies'}")
    return ((f"{path}[{i}]", _object(x, allowed, f"{path}[{i}]")) for i, x in enumerate(items))


def _object(raw, allowed: set, path: str) -> dict:
    if not isinstance(raw, dict):
        raise SpecError(path, "must be an object")
    for key in raw:
        if key not in allowed:
            raise SpecError(f"{path}.{key}" if path else key, "unknown field")
    return raw


# ---------------------------------------------------------------------------
# SVG


@record
class SvgPath:
    """A 2-d path for the SVG exporter.

    ``role`` is ``"curve"`` (solid) or ``"polygon"`` (dashed, with labeled
    vertex markers).
    """

    points: np.ndarray
    role: str = "curve"
    label: str = "d"


_SVG_COLORS = {"curve": "#1f4e79", "polygon": "#b55442"}


def export_svg(paths, margin: float = 0.05) -> str:
    """Deterministic SVG 1.1 drawing of curves and control polygons.

    The y axis is flipped to mathematical orientation and the viewBox fits
    all points with a 5 percent margin.  Only 2-d data is accepted.
    """
    paths = list(paths)
    if not paths:
        raise RangeError("nothing to export: empty path list")
    flipped = []
    for idx, path in enumerate(paths):
        pts = np.asarray(path.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise RangeError(f"path {idx} is not 2-d (shape {pts.shape})")
        if pts.shape[0] < 2:
            raise RangeError(f"path {idx} needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise RangeError(f"path {idx} contains non-finite points")
        if path.role not in _SVG_COLORS:
            raise RangeError(f"path {idx} has unknown role {path.role!r}")
        flipped.append((path, pts * np.array([1.0, -1.0])))

    stacked = np.vstack([pts for _, pts in flipped])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if extent <= 0.0:
        extent = 1.0
    pad = margin * extent
    width = hi[0] - lo[0] + 2.0 * pad
    height = hi[1] - lo[1] + 2.0 * pad
    f = format_float
    stroke = extent / 300.0
    radius = extent / 120.0
    font = extent / 30.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{f(lo[0] - pad)} {f(lo[1] - pad)} {f(width)} {f(height)}">\n',
    ]
    for path, pts in flipped:
        d = "".join(
            _format_rows(("M ", ",", ""), pts[:1]) + _format_rows((" L ", ",", ""), pts[1:])
        )
        color = _SVG_COLORS[path.role]
        if path.role == "curve":
            parts.append(
                f'  <path d="{d}" fill="none" stroke="{color}" stroke-width="{f(stroke)}"/>\n'
            )
        else:
            parts.append(
                f'  <path d="{d}" fill="none" stroke="{color}" '
                f'stroke-width="{f(stroke)}" stroke-dasharray="{f(4 * stroke)} {f(3 * stroke)}"/>\n'
            )
            # XML-escape the label as xml.sax.saxutils.escape does; importing
            # that module pulls in urllib.request and ssl (+7 MB, +45 ms).
            label = path.label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            marker = (
                '  <circle cx="', '" cy="', f'" r="{f(radius)}" fill="{color}"/>\n  <text x="',
                '" y="', f'" font-size="{f(font)}" fill="{color}">{label}', "</text>\n",
            )
            offset = 1.6 * radius
            coords = np.column_stack([pts, pts[:, 0] + offset, pts[:, 1] - offset])
            parts += _format_rows(marker, coords, np.arange(len(pts))[:, None])
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# OBJ


def _quads(slabs: np.ndarray) -> np.ndarray:
    """Quads of an id array indexed ``(p, q, slab)``, in that row-major order.

    Each quad is ``(p, q) (p+1, q) (p+1, q+1) (p, q+1)`` within its slab.
    """
    corners = (slabs[:-1, :-1], slabs[1:, :-1], slabs[1:, 1:], slabs[:-1, 1:])
    return np.stack(corners, axis=-1).reshape(-1, 4)


_VERTEX = ("v ", " ", " ", "\n")


def export_obj(samples, control_net=None) -> str:
    """Wavefront OBJ text for sampled 3-d geometry.

    ``samples`` may be a polyline ``(N, 3)``, a patch lattice
    ``(N1, N2, 3)`` exported as quads, or a volume lattice
    ``(N1, N2, N3, 3)`` exported as its boundary quads.  ``control_net``,
    when given, must have matching dimensionality; its points are appended
    and connected with ``l`` records along every grid edge.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2 or samples.ndim > 4 or samples.shape[-1] != 3:
        raise RangeError(f"samples must be (..., 3) with 1 to 3 lattice axes, got {samples.shape}")
    if any(s < 2 for s in samples.shape[:-1]):
        raise RangeError("need at least 2 samples per lattice axis")
    if not np.all(np.isfinite(samples)):
        raise RangeError("samples contain non-finite points")
    ids = np.arange(1, samples[..., 0].size + 1).reshape(samples.shape[:-1])
    parts = ["g samples\n", *_format_rows(_VERTEX, samples.reshape(-1, 3))]
    if samples.ndim == 2:
        parts.append("l " + " ".join(map(str, ids.tolist())) + "\n")
    elif samples.ndim == 3:
        parts += _format_rows(("f ", " ", " ", " ", "\n"), _quads(ids[..., None]))
    else:
        # Boundary slabs k = 0, N3-1, then j = 0, N2-1, then i = 0, N1-1.
        slabs = (
            ids[:, :, [0, -1]],
            ids[:, [0, -1]].transpose(0, 2, 1),
            ids[[0, -1]].transpose(1, 2, 0),
        )
        quads = np.concatenate([_quads(s) for s in slabs])
        parts += _format_rows(("f ", " ", " ", " ", "\n"), quads)

    if control_net is not None:
        net = np.asarray(control_net, dtype=float)
        if net.ndim != samples.ndim or net.shape[-1] != 3:
            raise RangeError(f"control net shape {net.shape} does not match sample dimensionality")
        if not np.all(np.isfinite(net)):
            raise RangeError("control net contains non-finite points")
        nids = np.arange(ids.size + 1, ids.size + net[..., 0].size + 1).reshape(net.shape[:-1])
        parts += ["g control_net\n", *_format_rows(_VERTEX, net.reshape(-1, 3))]
        # Edges along axis 0 first, then axis 1, ...; row-major within an axis.
        for axis in range(nids.ndim):
            head = (slice(None),) * axis
            edges = np.stack([nids[head + (slice(None, -1),)], nids[head + (slice(1, None),)]], -1)
            parts += _format_rows(("l ", " ", "\n"), edges.reshape(-1, 2))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Tables


def export_table(data, fmt: str, columns=None) -> str:
    """Serialize numeric data as CSV (up to 2-d) or JSON (any shape).

    Floats are printed so that parsing the text back recovers the identical
    doubles; :func:`parse_table` is the inverse, so CSV column names it
    would not read back as the same header are refused.
    """
    data = np.asarray(data, dtype=float)
    if fmt == "csv":
        if data.ndim > 2:
            raise RangeError(f"CSV supports at most 2-d data, got shape {data.shape}")
        table = data if data.ndim == 2 else data[:, None] if data.ndim == 1 else data[None, None]
        if columns is not None and len(table) and len(columns) != table.shape[1]:
            raise RangeError(f"{len(columns)} column names for {table.shape[1]} columns")
        parts = [] if columns is None else [_csv_header(columns)]
        width = table.shape[1]
        parts += _format_rows(["", *[","] * (width - 1), "\n"] if width else ["\n"], table)
        return "".join(parts)
    if fmt == "json":
        payload = {"data": data.tolist()}
        if columns is not None:
            payload["columns"] = list(columns)
        return json.dumps(payload, indent=2) + "\n"
    raise RangeError(f"unknown table format {fmt!r}")


def _csv_header(columns) -> str:
    """The CSV header line naming ``columns``, refused unless :func:`parse_table` reads it back."""
    names = [str(c) for c in columns]
    for name in names:
        if "," in name or "".join(name.splitlines()) != name:
            raise RangeError(f"column name {name!r} contains a comma or a line break")
    line = ",".join(names)
    if names and not line.strip():
        raise RangeError(f"column names {names} make a blank header line")
    if names and _is_data_row(names):
        raise RangeError(f"column names {names} all parse as numbers")
    return line + "\n"


def _is_data_row(fields) -> bool:
    """Whether a CSV line's fields are read as data (each parses as a float), not as a header."""
    try:
        [float(x) for x in fields]
    except ValueError:
        return False
    return True


def parse_table(text: str, fmt: str):
    """Inverse of :func:`export_table`; returns ``(array, columns or None)``.

    A CSV row whose width differs from the header's (or the first row's) and
    a data cell that is not a number raise a range error naming the 1-based line.
    """
    if fmt == "csv":
        head = columns = None
        rows = []
        for i, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split(",")
            if head is None and not _is_data_row(fields):
                head = columns = fields  # a first line that is not data is the header
                continue
            head = head or fields
            if len(fields) != len(head):
                raise RangeError(f"CSV line {i}: expected {len(head)} fields, got {len(fields)}")
            try:
                rows.append(list(map(float, fields)))
            except ValueError:
                raise RangeError(f"CSV line {i}: a data cell is not a number") from None
        return np.array(rows).reshape(len(rows), len(head or ())), columns
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            reason = f"{exc.msg} at line {exc.lineno}"
            raise RangeError(f"JSON table: not valid JSON ({reason})") from None
        except RecursionError:
            raise RangeError("JSON table: not valid JSON (nested too deeply)") from None
        if not isinstance(payload, dict) or "data" not in payload:
            raise RangeError('JSON table: expected an object with a "data" entry')
        _json_shape(payload["data"], "data")  # raises for a ragged entry or a non-number
        try:
            return np.asarray(payload["data"], dtype=float), payload.get("columns")
        except OverflowError:
            raise RangeError("JSON table: data holds an integer beyond double range") from None
    raise RangeError(f"unknown table format {fmt!r}")


def _json_shape(value, path: str) -> tuple:
    """Shape of nested lists of numbers, or a range error naming the first entry at fault.

    A number is a JSON integer or float (``NaN`` and ``Infinity`` included);
    ``true``, ``false``, ``null`` and strings are not.
    """
    if type(value) in (int, float):
        return ()
    if not isinstance(value, list):
        raise RangeError(f"JSON table: {path} is not a number")
    # A number's path is spelled out only when it is at fault.
    shapes = [() if type(v) in (int, float) else _json_shape(v, f"{path}[{i}]")
              for i, v in enumerate(value)]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise RangeError(f"JSON table: {path}[{i}] has shape {shape}, not {shapes[0]}")
    return (len(value),) + (shapes[0] if shapes else ())
