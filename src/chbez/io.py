"""Spec documents and deterministic exporters.

Curves and patches enter the package as JSON documents listing their
traditional-form terms; see ``docs/formats.md`` for the schema.  Validation
is strict: unknown fields are rejected and every error message carries the
JSON path of the offending field.

All exporters are plain functions from data to text.  Floats are printed in
the shortest form that parses back to the identical double (``repr``),
which makes every export byte-deterministic and round-trippable.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .bbasis import BasisKind
from .errors import RangeError, SpecError
from .exact import CoordinateFunction, CurveSpec, Term, TermFamily
from .surface import (
    MAX_DIRECTIONS,
    Direction,
    ProductTerm,
    SurfaceCoordinateFunction,
    SurfaceSpec,
)

__all__ = [
    "SpecDocument",
    "parse_document",
    "parse_spec",
    "parse_angle",
    "format_float",
    "SvgPath",
    "export_svg",
    "export_obj",
    "export_table",
    "parse_table",
]

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")

_FAMILIES = {
    BasisKind.TRIGONOMETRIC: {"cos": TermFamily.COSINE, "sin": TermFamily.SINE},
    BasisKind.HYPERBOLIC: {"cosh": TermFamily.COSINE, "sinh": TermFamily.SINE},
}

_KINDS = {
    "trigonometric": BasisKind.TRIGONOMETRIC,
    "hyperbolic": BasisKind.HYPERBOLIC,
}


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


# Rows per ``%`` operation in :func:`_format_rows`: large enough to amortize
# the call, small enough that a block's Python floats stay a few hundred kB.
_BLOCK_ROWS = 2048


def _format_rows(template: str, rows: np.ndarray) -> list[str]:
    """``template % tuple(row)`` for every row of a 2-d array, one string per block.

    ``tolist`` turns float64 into Python floats exactly and ``%r`` of a
    Python float is its ``repr``, so ``%r`` fields print the bytes of
    :func:`format_float`.  Each block of rows is formatted by one ``%``.
    """
    blocks = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        blocks.append((template * len(block)) % tuple(block.ravel().tolist()))
    return blocks


@dataclass(frozen=True)
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
    if not isinstance(raw, dict):
        raise SpecError("", "document must be a JSON object")
    doc_type = _get_str(raw, "type", "")
    if doc_type == "curve":
        allowed = {"version", "type", "kind", "alpha", "rational", "coords"}
    elif doc_type == "surface":
        allowed = {"version", "type", "directions", "rational", "coords"}
    else:
        raise SpecError("type", f"must be 'curve' or 'surface', got {doc_type!r}")
    _reject_unknown(raw, allowed, "")
    version = raw.get("version")
    if version != 1:
        raise SpecError("version", f"unsupported version {version!r} (expected 1)")
    rational = raw.get("rational", False)
    if not isinstance(rational, bool):
        raise SpecError("rational", "must be a boolean")
    if doc_type == "curve":
        spec = _parse_curve(raw)
        if rational and spec.dimension < 2:
            raise SpecError("coords", "a rational curve needs at least 2 coordinates")
    else:
        spec = _parse_surface(raw, rational)
    return SpecDocument(1, spec, rational)


def parse_spec(text: str) -> CurveSpec | SurfaceSpec:
    """Parse a JSON spec document, returning only the spec."""
    return parse_document(text).spec


def _parse_curve(raw: dict) -> CurveSpec:
    kind = _parse_kind(raw, "kind")
    alpha = _parse_angle_field(raw, "alpha", "alpha")
    coords = _get_list(raw, "coords", "coords", minimum=1)
    fns = tuple(
        _parse_coordinate(c, kind, f"coords[{i}]") for i, c in enumerate(coords)
    )
    try:
        return CurveSpec(kind, alpha, fns)
    except RangeError as exc:
        raise SpecError("alpha", str(exc)) from None


def _parse_surface(raw: dict, rational: bool) -> SurfaceSpec:
    dirs_raw = _get_list(raw, "directions", "directions", minimum=2)
    if len(dirs_raw) > MAX_DIRECTIONS:
        raise SpecError("directions", f"at most {MAX_DIRECTIONS} directions supported")
    directions = []
    for j, d in enumerate(dirs_raw):
        path = f"directions[{j}]"
        if not isinstance(d, dict):
            raise SpecError(path, "must be an object")
        _reject_unknown(d, {"kind", "alpha"}, path)
        kind = _parse_kind(d, f"{path}.kind")
        alpha = _parse_angle_field(d, "alpha", f"{path}.alpha")
        try:
            directions.append(Direction(kind, alpha))
        except RangeError as exc:
            raise SpecError(f"{path}.alpha", str(exc)) from None
    delta = len(directions)
    coords = _get_list(raw, "coords", "coords", minimum=1)
    kappa = len(coords) - delta - (1 if rational else 0)
    if kappa < 0:
        raise SpecError(
            "coords",
            f"{len(coords)} coordinate(s) cannot cover {delta} direction(s)"
            + (" plus a denominator" if rational else ""),
        )
    fns = []
    for ell, c in enumerate(coords):
        path = f"coords[{ell}]"
        if not isinstance(c, dict):
            raise SpecError(path, "must be an object")
        _reject_unknown(c, {"summands"}, path)
        summands = _get_list(c, "summands", f"{path}.summands", minimum=1)
        terms = []
        for zeta, s in enumerate(summands):
            spath = f"{path}.summands[{zeta}]"
            if not isinstance(s, dict):
                raise SpecError(spath, "must be an object")
            _reject_unknown(s, {"factors"}, spath)
            factors = _get_list(s, "factors", f"{spath}.factors", minimum=1)
            if len(factors) != delta:
                raise SpecError(
                    f"{spath}.factors", f"expected {delta} factors, got {len(factors)}"
                )
            parsed = tuple(
                _parse_coordinate(f, directions[j].kind, f"{spath}.factors[{j}]")
                for j, f in enumerate(factors)
            )
            terms.append(ProductTerm(parsed))
        fns.append(SurfaceCoordinateFunction(tuple(terms)))
    try:
        return SurfaceSpec(tuple(directions), kappa, tuple(fns))
    except RangeError as exc:
        raise SpecError("coords", str(exc)) from None


def _parse_coordinate(raw, kind: BasisKind, path: str) -> CoordinateFunction:
    if not isinstance(raw, dict):
        raise SpecError(path, "must be an object")
    _reject_unknown(raw, {"terms"}, path)
    terms_raw = _get_list(raw, "terms", f"{path}.terms", minimum=1)
    terms = []
    for i, t in enumerate(terms_raw):
        terms.append(_parse_term(t, kind, f"{path}.terms[{i}]"))
    return CoordinateFunction(tuple(terms))


def _parse_term(raw, kind: BasisKind, path: str) -> Term:
    if not isinstance(raw, dict):
        raise SpecError(path, "must be an object")
    _reject_unknown(raw, {"family", "k", "a", "phase"}, path)
    family_raw = _get_str(raw, "family", f"{path}.family")
    families = _FAMILIES[kind]
    if family_raw not in families:
        expected = " or ".join(sorted(families))
        raise SpecError(
            f"{path}.family",
            f"{family_raw!r} does not match the {kind.value} kind (expected {expected})",
        )
    k = raw.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise SpecError(f"{path}.k", f"must be a nonnegative integer, got {k!r}")
    a = _get_number(raw, "a", f"{path}.a")
    phase = 0.0
    if "phase" in raw:
        phase = _parse_angle_field(raw, "phase", f"{path}.phase", allow_nonpositive=True)
    return Term(families[family_raw], k, a, phase)


def _parse_kind(raw: dict, path: str) -> BasisKind:
    value = _get_str(raw, "kind", path if path.endswith("kind") else f"{path}.kind")
    if value not in _KINDS:
        raise SpecError(
            path if "kind" in path else f"{path}.kind",
            f"must be 'trigonometric' or 'hyperbolic', got {value!r}",
        )
    return _KINDS[value]


def _parse_angle_field(raw: dict, key: str, path: str, allow_nonpositive: bool = False) -> float:
    value = raw.get(key)
    if isinstance(value, str):
        try:
            value = parse_angle(value)
        except RangeError as exc:
            raise SpecError(path, str(exc)) from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    else:
        raise SpecError(path, f"must be a number or an angle literal, got {value!r}")
    if not math.isfinite(value):
        raise SpecError(path, f"must be finite, got {value!r}")
    if not allow_nonpositive and value <= 0.0:
        raise SpecError(path, f"must be positive, got {value!r}")
    return value


def _get_str(raw: dict, key: str, path: str) -> str:
    value = raw.get(key)
    if not isinstance(value, str):
        raise SpecError(path or key, f"must be a string, got {value!r}")
    return value


def _get_number(raw: dict, key: str, path: str) -> float:
    value = raw.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecError(path, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SpecError(path, f"must be finite, got {value!r}")
    return value


def _get_list(raw: dict, key: str, path: str, minimum: int = 0) -> list:
    value = raw.get(key)
    if not isinstance(value, list):
        raise SpecError(path, f"must be an array, got {value!r}")
    if len(value) < minimum:
        raise SpecError(path, f"must have at least {minimum} entr{'y' if minimum == 1 else 'ies'}")
    return value


def _reject_unknown(raw: dict, allowed: set, path: str):
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise SpecError(where, "unknown field")


# ---------------------------------------------------------------------------
# SVG


@dataclass(frozen=True)
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
        d = "M %r,%r" % tuple(pts[0].tolist()) + "".join(_format_rows(" L %r,%r", pts[1:]))
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
            label = label.replace("%", "%%")
            marker = (
                f'  <circle cx="%r" cy="%r" r="{f(radius)}" fill="{color}"/>\n'
                f'  <text x="%r" y="%r" font-size="{f(font)}" fill="{color}">{label}%d</text>\n'
            )
            # The vertex number rides along as a float column; %d prints it as an integer.
            offset = 1.6 * radius
            rows = np.column_stack(
                [pts, pts[:, 0] + offset, pts[:, 1] - offset, np.arange(len(pts))]
            )
            parts += _format_rows(marker, rows)
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
    parts = ["g samples\n", *_format_rows("v %r %r %r\n", samples.reshape(-1, 3))]
    if samples.ndim == 2:
        parts.append("l " + " ".join(map(str, ids.tolist())) + "\n")
    elif samples.ndim == 3:
        parts += _format_rows("f %d %d %d %d\n", _quads(ids[..., None]))
    else:
        # Boundary slabs k = 0, N3-1, then j = 0, N2-1, then i = 0, N1-1.
        slabs = (
            ids[:, :, [0, -1]],
            ids[:, [0, -1]].transpose(0, 2, 1),
            ids[[0, -1]].transpose(1, 2, 0),
        )
        quads = np.concatenate([_quads(s) for s in slabs])
        parts += _format_rows("f %d %d %d %d\n", quads)

    if control_net is not None:
        net = np.asarray(control_net, dtype=float)
        if net.ndim != samples.ndim or net.shape[-1] != 3:
            raise RangeError(
                f"control net shape {net.shape} does not match sample dimensionality"
            )
        if not np.all(np.isfinite(net)):
            raise RangeError("control net contains non-finite points")
        nids = np.arange(ids.size + 1, ids.size + net[..., 0].size + 1).reshape(net.shape[:-1])
        parts += ["g control_net\n", *_format_rows("v %r %r %r\n", net.reshape(-1, 3))]
        # Edges along axis 0 first, then axis 1, ...; row-major within an axis.
        for axis in range(nids.ndim):
            head = (slice(None),) * axis
            edges = np.stack([nids[head + (slice(None, -1),)], nids[head + (slice(1, None),)]], -1)
            parts += _format_rows("l %d %d\n", edges.reshape(-1, 2))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Tables


def export_table(data, fmt: str, columns=None) -> str:
    """Serialize numeric data as CSV (up to 2-d) or JSON (any shape).

    Floats are printed so that parsing the text back recovers the identical
    doubles; :func:`parse_table` is the inverse.
    """
    data = np.asarray(data, dtype=float)
    if fmt == "csv":
        if data.ndim > 2:
            raise RangeError(f"CSV supports at most 2-d data, got shape {data.shape}")
        table = data if data.ndim == 2 else data[:, None] if data.ndim == 1 else data[None, None]
        if columns is not None and len(table) and len(columns) != table.shape[1]:
            raise RangeError(
                f"{len(columns)} column names for {table.shape[1]} columns"
            )
        parts = [] if columns is None else [",".join(str(c) for c in columns) + "\n"]
        parts += _format_rows(",".join(["%r"] * table.shape[1]) + "\n", table)
        return "".join(parts)
    if fmt == "json":
        payload = {"data": data.tolist()}
        if columns is not None:
            payload["columns"] = list(columns)
        return json.dumps(payload, indent=2) + "\n"
    raise RangeError(f"unknown table format {fmt!r}")


def parse_table(text: str, fmt: str):
    """Inverse of :func:`export_table`; returns ``(array, columns or None)``."""
    if fmt == "csv":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return np.zeros((0, 0)), None
        columns = None
        start = 0
        try:
            [float(x) for x in lines[0].split(",")]
        except ValueError:
            columns = lines[0].split(",")
            start = 1
        rows = [[float(x) for x in line.split(",")] for line in lines[start:]]
        if not rows:
            return np.zeros((0, len(columns) if columns else 0)), columns
        return np.array(rows), columns
    if fmt == "json":
        payload = json.loads(text)
        return np.asarray(payload["data"], dtype=float), payload.get("columns")
    raise RangeError(f"unknown table format {fmt!r}")
