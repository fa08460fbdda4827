"""Byte-for-byte oracle for the exporters.

The reference functions below are the original per-element exporters,
kept verbatim: one ``format_float`` call per float, one Python ``vid()``
call per quad corner and an ``np.ndindex`` walk over the control net.
The package's block-wise exporters must print exactly the same bytes and
raise the same ``RangeError`` messages on every input here.  Every export
in this module prints through the vectorized formatter, and the tests that
call a formatter call its entry ``chbez._vectorized.format_rows``;
tests/test_io_repr_path.py runs the reference cases through ``repr``.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

import chbez.io
from chbez import RangeError, SvgPath, export_obj, export_svg, export_table
from chbez._vectorized import _BLOCK_CELLS, format_rows
from chbez.io import _SVG_COLORS, format_float


@pytest.fixture(autouse=True)
def vectorized(monkeypatch):
    """Every export here prints through the vectorized formatter, however few its cells."""
    monkeypatch.setattr(chbez.io, "_VECTOR_CELLS", 0)


# ---------------------------------------------------------------------------
# Reference exporters (verbatim copies of the per-element originals)


def ref_export_svg(paths, margin: float = 0.05) -> str:
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

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{f(lo[0] - pad)} {f(lo[1] - pad)} {f(width)} {f(height)}">',
    ]
    for path, pts in flipped:
        d = "M " + " L ".join(f"{f(x)},{f(y)}" for x, y in pts)
        color = _SVG_COLORS[path.role]
        if path.role == "curve":
            lines.append(
                f'  <path d="{d}" fill="none" stroke="{color}" stroke-width="{f(stroke)}"/>'
            )
        else:
            lines.append(
                f'  <path d="{d}" fill="none" stroke="{color}" '
                f'stroke-width="{f(stroke)}" stroke-dasharray="{f(4 * stroke)} {f(3 * stroke)}"/>'
            )
            for i, (x, y) in enumerate(pts):
                lines.append(
                    f'  <circle cx="{f(x)}" cy="{f(y)}" r="{f(radius)}" fill="{color}"/>'
                )
                lines.append(
                    f'  <text x="{f(x + 1.6 * radius)}" y="{f(y - 1.6 * radius)}" '
                    f'font-size="{f(font)}" fill="{color}">{path.label}{i}</text>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def ref_export_obj(samples, control_net=None) -> str:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2 or samples.ndim > 4 or samples.shape[-1] != 3:
        raise RangeError(f"samples must be (..., 3) with 1 to 3 lattice axes, got {samples.shape}")
    if any(s < 2 for s in samples.shape[:-1]):
        raise RangeError("need at least 2 samples per lattice axis")
    if not np.all(np.isfinite(samples)):
        raise RangeError("samples contain non-finite points")
    f = format_float
    lines = ["g samples"]
    flat = samples.reshape(-1, 3)
    for x, y, z in flat:
        lines.append(f"v {f(x)} {f(y)} {f(z)}")

    def vid(shape, idx):
        flat_idx = 0
        for s, i in zip(shape, idx):
            flat_idx = flat_idx * s + i
        return flat_idx + 1

    shape = samples.shape[:-1]
    if samples.ndim == 2:
        lines.append("l " + " ".join(str(i + 1) for i in range(shape[0])))
    elif samples.ndim == 3:
        n1, n2 = shape
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                a = vid(shape, (i, j))
                b = vid(shape, (i + 1, j))
                c = vid(shape, (i + 1, j + 1))
                d = vid(shape, (i, j + 1))
                lines.append(f"f {a} {b} {c} {d}")
    else:
        n1, n2, n3 = shape
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                for fixed in (0, n3 - 1):
                    a = vid(shape, (i, j, fixed))
                    b = vid(shape, (i + 1, j, fixed))
                    c = vid(shape, (i + 1, j + 1, fixed))
                    d = vid(shape, (i, j + 1, fixed))
                    lines.append(f"f {a} {b} {c} {d}")
        for i in range(n1 - 1):
            for k in range(n3 - 1):
                for fixed in (0, n2 - 1):
                    a = vid(shape, (i, fixed, k))
                    b = vid(shape, (i + 1, fixed, k))
                    c = vid(shape, (i + 1, fixed, k + 1))
                    d = vid(shape, (i, fixed, k + 1))
                    lines.append(f"f {a} {b} {c} {d}")
        for j in range(n2 - 1):
            for k in range(n3 - 1):
                for fixed in (0, n1 - 1):
                    a = vid(shape, (fixed, j, k))
                    b = vid(shape, (fixed, j + 1, k))
                    c = vid(shape, (fixed, j + 1, k + 1))
                    d = vid(shape, (fixed, j, k + 1))
                    lines.append(f"f {a} {b} {c} {d}")

    if control_net is not None:
        net = np.asarray(control_net, dtype=float)
        if net.ndim != samples.ndim or net.shape[-1] != 3:
            raise RangeError(
                f"control net shape {net.shape} does not match sample dimensionality"
            )
        offset = flat.shape[0]
        lines.append("g control_net")
        for x, y, z in net.reshape(-1, 3):
            lines.append(f"v {f(x)} {f(y)} {f(z)}")
        nshape = net.shape[:-1]

        def nid(idx):
            return offset + vid(nshape, idx)

        for axis in range(len(nshape)):
            for idx in np.ndindex(nshape):
                if idx[axis] + 1 < nshape[axis]:
                    succ = list(idx)
                    succ[axis] += 1
                    lines.append(f"l {nid(idx)} {nid(tuple(succ))}")
    return "\n".join(lines) + "\n"


def ref_export_table(data, fmt: str, columns=None) -> str:
    data = np.asarray(data, dtype=float)
    if fmt == "csv":
        if data.ndim > 2:
            raise RangeError(f"CSV supports at most 2-d data, got shape {data.shape}")
        table = data if data.ndim == 2 else data[:, None] if data.ndim == 1 else data[None, None]
        if columns is not None and len(table) and len(columns) != table.shape[1]:
            raise RangeError(
                f"{len(columns)} column names for {table.shape[1]} columns"
            )
        lines = []
        if columns is not None:
            lines.append(",".join(str(c) for c in columns))
        for row in table:
            lines.append(",".join(format_float(x) for x in row))
        return "\n".join(lines) + "\n" if lines else ""
    if fmt == "json":
        payload = {"data": data.tolist()}
        if columns is not None:
            payload["columns"] = list(columns)
        return json.dumps(payload, indent=2) + "\n"
    raise RangeError(f"unknown table format {fmt!r}")


# ---------------------------------------------------------------------------
# Inputs

# Floats whose shortest repr takes every shape: signed zero, subnormals,
# magnitudes near the ends of the exponent range, integer values and the
# switch points between positional and scientific notation.
SPECIAL = np.array(
    [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
        1.7976931308623157e308, -1e300, 1e300, 1.0, -3.0, 2.0**52, 2.0**53 + 2.0,
        1e16, 1e15, 9999999999999998.0, 1e-4, 1e-5, 0.1, 1.0 / 3.0, -2.5e-7,
    ]
)
NONFINITE = np.array([np.nan, np.inf, -np.inf])


def random_floats(rng, shape):
    """Values spread over many decades, sprinkled with the special ones."""
    mant = rng.standard_normal(shape)
    expo = rng.integers(-300, 300, size=shape).astype(float)
    values = mant * 10.0**expo
    picks = rng.random(shape) < 0.2
    values[picks] = rng.choice(SPECIAL, size=int(picks.sum()))
    ints = rng.random(shape) < 0.1
    values[ints] = np.round(rng.standard_normal(int(ints.sum())) * 1000.0)
    return values


def assert_same(ref, new, *args, **kwargs):
    """Both raise the same RangeError message, or print identical text."""
    try:
        expected = ref(*args, **kwargs)
    except RangeError as exc:
        with pytest.raises(RangeError) as info:
            new(*args, **kwargs)
        assert str(info.value) == str(exc)
        return
    assert new(*args, **kwargs) == expected


# The formatter cuts tables into blocks of _BLOCK_CELLS cells.  The row
# counts that name parametrized tests were drawn at the first edge of
# _FIRST_CELLS-cell blocks and keep their values, so the tests keep their
# ids: _BLOCK_ROWS rows of a table 3 cells wide (OBJ vertices), BLOCK_COUNTS
# around them and block_rows(width) around that edge of a table of any
# width.  The EDGE_ names follow _BLOCK_CELLS: EDGE_ROWS rows of a table 3
# cells wide, EDGE_COUNTS around them (named by their offset, so a change of
# block size renames no test) and edge_rows(width) around the first and
# second edge of a table of any width.
_FIRST_CELLS = 6144
_BLOCK_ROWS = _FIRST_CELLS // 3
BLOCK_COUNTS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)
EDGE_ROWS = _BLOCK_CELLS // 3
EDGE_COUNTS = tuple(pytest.param(EDGE_ROWS + d, id=f"edge{d:+d}") for d in (-1, 0, 1))


def block_rows(width):
    rows = _FIRST_CELLS // width
    return (rows - 1, rows, rows + 1, 2 * rows + 3)


def edge_rows(width):
    rows = _BLOCK_CELLS // width
    return (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1)


# ---------------------------------------------------------------------------
# Tables


class TestTableBytes:
    @pytest.mark.parametrize("rows", BLOCK_COUNTS + (2 * _BLOCK_ROWS + 7,) + EDGE_COUNTS)
    @pytest.mark.parametrize("header", [False, True])
    def test_block_boundaries(self, rows, header):
        rng = np.random.default_rng(rows)
        data = random_floats(rng, (rows, 4))
        columns = ["u1", "u2", "x", "y"] if header else None
        assert_same(ref_export_table, export_table, data, "csv", columns)

    def test_special_values(self):
        assert_same(ref_export_table, export_table, SPECIAL, "csv")
        assert_same(ref_export_table, export_table, SPECIAL.reshape(-1, 2), "csv", ["a", "b"])

    def test_nonfinite_values(self):
        data = np.concatenate([SPECIAL[:6], NONFINITE]).reshape(3, 3)
        assert_same(ref_export_table, export_table, data, "csv")
        assert_same(ref_export_table, export_table, data, "csv", ["a", "b", "c"])
        assert_same(ref_export_table, export_table, data, "json")

    @pytest.mark.parametrize(
        "data",
        [
            np.float64(-0.0),
            np.float64(2.5),
            np.array([]),
            np.array([1e-310]),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.zeros((1, 0)),
            np.zeros((0, 0)),
        ],
        ids=["0d-negzero", "0d", "1d-empty", "1d", "0xk", "nx0", "1x0", "0x0"],
    )
    @pytest.mark.parametrize("columns", [None, [], ["a"], ["a", "b", "c"]], ids=str)
    def test_degenerate_shapes(self, data, columns):
        assert_same(ref_export_table, export_table, data, "csv", columns)

    def test_json_unchanged(self):
        rng = np.random.default_rng(7)
        data = random_floats(rng, (5, 3))
        assert_same(ref_export_table, export_table, data, "json", ["a", "b", "c"])
        assert_same(ref_export_table, export_table, data.reshape(5, 3, 1), "json")

    @pytest.mark.parametrize(
        "args",
        [
            (np.zeros((2, 2, 2)), "csv"),
            (np.zeros((2, 3)), "csv", ["a"]),
            (np.zeros(3), "xml"),
        ],
    )
    def test_error_messages(self, args):
        assert_same(ref_export_table, export_table, *args)


# ---------------------------------------------------------------------------
# OBJ


def lattice(rng, shape):
    return random_floats(rng, shape + (3,))


class TestObjBytes:
    @pytest.mark.parametrize("n", BLOCK_COUNTS[1:] + (2,) + EDGE_COUNTS)
    def test_polylines(self, n):
        rng = np.random.default_rng(n)
        assert_same(ref_export_obj, export_obj, lattice(rng, (n,)))
        assert_same(ref_export_obj, export_obj, lattice(rng, (n,)), lattice(rng, (5,)))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (5, 3), (33, 33), (46, 45)])
    @pytest.mark.parametrize("net", [None, (4, 3), (1, 5), (2, 2)], ids=str)
    def test_patches(self, shape, net):
        rng = np.random.default_rng(sum(shape))
        control = None if net is None else lattice(rng, net)
        assert_same(ref_export_obj, export_obj, lattice(rng, shape), control)

    @pytest.mark.parametrize(
        "shape", [(2, 2, 2), (2, 3, 4), (4, 2, 3), (3, 4, 2), (5, 6, 7), (17, 17, 17)]
    )
    @pytest.mark.parametrize("net", [None, (3, 2, 4), (1, 1, 3)], ids=str)
    def test_volumes(self, shape, net):
        rng = np.random.default_rng(sum(shape))
        control = None if net is None else lattice(rng, net)
        assert_same(ref_export_obj, export_obj, lattice(rng, shape), control)

    def test_special_values(self):
        samples = np.resize(SPECIAL, (4, 6, 3))
        net = np.resize(SPECIAL[::-1], (3, 2, 3))
        assert_same(ref_export_obj, export_obj, samples, net)

    def test_nonfinite_control_net_rejected(self):
        # The per-element original wrote such a net as "v nan ..." records.
        rng = np.random.default_rng(3)
        net = np.resize(np.concatenate([NONFINITE, SPECIAL]), (2, 3, 3))
        with pytest.raises(RangeError, match="^control net contains non-finite points$"):
            export_obj(lattice(rng, (3, 3)), net)

    def test_empty_control_net(self):
        rng = np.random.default_rng(4)
        assert_same(ref_export_obj, export_obj, lattice(rng, (3, 3)), np.zeros((0, 0, 3)))
        assert_same(ref_export_obj, export_obj, lattice(rng, (3,)), np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "samples, net",
        [
            (np.zeros(3), None),
            (np.zeros((3, 2)), None),
            (np.zeros((2, 2, 2, 2, 3)), None),
            (np.zeros((1, 3)), None),
            (np.zeros((2, 1, 3)), None),
            (np.zeros((3, 2, 1, 3)), None),
            (np.array([[0.0, 0.0, np.nan], [1.0, 1.0, 1.0]]), None),
            (np.zeros((3, 3, 3)), np.zeros((3, 3))),
            (np.zeros((3, 3)), np.zeros((3, 2))),
            (np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3))),
        ],
    )
    def test_error_messages(self, samples, net):
        assert_same(ref_export_obj, export_obj, samples, net)


# ---------------------------------------------------------------------------
# SVG


class TestSvgBytes:
    @pytest.mark.parametrize("n", [2, 3, 400, _BLOCK_ROWS + 1, _FIRST_CELLS // 2 + 1,
                                   pytest.param(_BLOCK_CELLS // 2 + 1, id="half-block+1")])
    def test_both_roles(self, n):
        rng = np.random.default_rng(n)
        curve = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-5, 5)
        polygon = rng.standard_normal((min(n, 9), 2))
        paths = [SvgPath(curve, "curve"), SvgPath(polygon, "polygon", "a")]
        assert_same(ref_export_svg, export_svg, paths)
        assert_same(ref_export_svg, export_svg, paths[::-1], margin=0.2)

    def test_special_values_and_labels(self):
        pts = SPECIAL[:12].reshape(-1, 2) * 1e-290
        paths = [
            SvgPath(pts, "polygon", "d"),
            SvgPath(pts[::-1], "polygon", "100%{x}"),
            SvgPath(np.zeros((3, 2)), "curve"),
        ]
        assert_same(ref_export_svg, export_svg, paths)

    def test_degenerate_extent(self):
        assert_same(ref_export_svg, export_svg, [SvgPath(np.zeros((2, 2)), "polygon")])
        assert_same(ref_export_svg, export_svg, [SvgPath(np.ones((3, 2)) * -0.0, "curve")])

    @pytest.mark.parametrize(
        "paths",
        [
            [],
            [SvgPath(np.zeros((3, 3)))],
            [SvgPath(np.zeros(4))],
            [SvgPath(np.zeros((1, 2)))],
            [SvgPath(np.array([[0.0, 0.0], [np.inf, 1.0]]))],
            [SvgPath(np.zeros((2, 2))), SvgPath(np.zeros((2, 2)), "dotted")],
        ],
    )
    def test_error_messages(self, paths):
        assert_same(ref_export_svg, export_svg, paths)


# ---------------------------------------------------------------------------
# Repeated values: each distinct bit pattern of a block is printed once and
# mapped back to every cell that holds it.


def nan_with_payload(bits: int) -> float:
    return np.array([bits], dtype=np.int64).view(np.float64)[0]


NANS = np.array([np.nan, nan_with_payload(0x7FF8000000000001), nan_with_payload(-0x8000000000001)])
SUBNORMALS = np.array([5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, -4.9e-322])


def meshgrid_table(rows: int, rng) -> np.ndarray:
    """Parameter columns that repeat across block boundaries, then free columns."""
    inner = 97
    u1 = np.repeat(np.linspace(0.0, np.pi, rows // inner + 1), inner)[:rows]
    u2 = np.tile(np.linspace(0.0, 2.0 * np.pi / 3.0, inner), rows // inner + 1)[:rows]
    xyz = np.round(rng.standard_normal((rows, 3)), 2)
    return np.column_stack([u1, u2, xyz])


class TestRepeatedValues:
    @pytest.mark.parametrize("rows", BLOCK_COUNTS + (2 * _BLOCK_ROWS + 7,) + EDGE_COUNTS)
    @pytest.mark.parametrize("header", [False, True])
    def test_meshgrid_tables(self, rows, header):
        data = meshgrid_table(rows, np.random.default_rng(rows))
        columns = ["u1", "u2", "x", "y", "z"] if header else None
        assert_same(ref_export_table, export_table, data, "csv", columns)

    def test_strided_tables(self):
        data = meshgrid_table(EDGE_ROWS + 9, np.random.default_rng(5))
        assert_same(ref_export_table, export_table, np.asfortranarray(data), "csv")
        assert_same(ref_export_table, export_table, data[::-2, ::2], "csv")

    def test_whole_table_of_one_value_across_blocks(self):
        data = np.full((2 * EDGE_ROWS + 7, 3), 0.1)
        assert_same(ref_export_table, export_table, data, "csv", ["a", "b", "c"])

    def test_signed_zeros_stay_apart(self):
        column = np.resize([0.0, -0.0, -0.0, 0.0, 1.0], 2 * EDGE_ROWS + 7)
        assert_same(ref_export_table, export_table, column, "csv")
        table = np.column_stack([column, column[::-1], -column])
        assert_same(ref_export_table, export_table, table, "csv")
        column = np.resize(column, 2 * _BLOCK_CELLS + 7)
        assert_same(ref_export_table, export_table, column, "csv")

    def test_nan_payloads_and_signs(self):
        assert len({x.tobytes() for x in NANS}) == 3 and np.signbit(NANS[2])
        values = np.concatenate([NANS, [0.0, -np.inf, np.inf, 1.5]])
        table = np.resize(values, (EDGE_ROWS + 3, 3))
        assert_same(ref_export_table, export_table, table, "csv")
        assert_same(ref_export_table, export_table, NANS, "csv", ["n"])

    def test_subnormals(self):
        values = np.concatenate([SUBNORMALS, -SUBNORMALS, [0.0]])
        assert_same(ref_export_table, export_table, np.resize(values, (EDGE_ROWS + 5, 4)), "csv")
        samples = np.resize(SUBNORMALS, (9, 7, 3))
        assert_same(ref_export_obj, export_obj, samples, np.resize(SUBNORMALS[::-1], (2, 3, 3)))

    @pytest.mark.parametrize("shape", [(33, 33), (46, 45), (64, 65)])
    def test_obj_patches_with_repeated_vertices(self, shape):
        # A collapsed row (a pole) and a seam column repeat whole vertices.
        rng = np.random.default_rng(sum(shape))
        # Coarse values also repeat within rows; the widest patch draws free ones.
        coarse = shape[0] < 64
        samples = rng.integers(-20, 20, shape + (3,)) / 8.0 if coarse else lattice(rng, shape)
        samples[0] = samples[0, 0]
        samples[:, -1] = samples[:, 0]
        net = np.resize(samples[:2, :3], (4, 3, 3))
        assert_same(ref_export_obj, export_obj, samples, net)

    def test_obj_volume_with_repeated_vertices(self):
        rng = np.random.default_rng(17)
        samples = rng.integers(-20, 20, (17, 17, 17, 3)) / 8.0
        samples[:, :, -1] = samples[:, :, 0]
        assert_same(ref_export_obj, export_obj, samples, samples[::8, ::8, ::8])

    def test_obj_polyline_of_one_point(self):
        assert_same(ref_export_obj, export_obj, np.full((EDGE_ROWS + 2, 3), -0.0))

    def test_svg_markers_with_repeated_coordinates(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        polygon = np.resize(square, (EDGE_ROWS + 9, 2))
        paths = [
            SvgPath(polygon, "polygon", "p"),
            SvgPath(np.resize(square[:2], (5, 2)), "polygon", "a"),
            SvgPath(np.column_stack([np.zeros(7), np.arange(7.0) % 2]), "curve"),
        ]
        assert_same(ref_export_svg, export_svg, paths)
        assert_same(ref_export_svg, export_svg, paths[:2], margin=0.0)


# ---------------------------------------------------------------------------
# The gather path: a block formats each distinct 64-bit pattern of its cells
# once and every cell gathers its field from them, so a pattern repeated in
# a block, on both sides of a block edge or beside the patterns it must not
# be merged with prints as the per-value references print it.


def cli_table(rows, rng):
    """A table in the layout of ``cli._output``: meshgrid columns, then x, y, z and a weight."""
    inner = 7
    axes = np.linspace(0.0, np.pi, -(-rows // inner)), np.linspace(-1.0, 1.0, inner)
    grid = [m.reshape(-1, 1)[:rows] for m in np.meshgrid(*axes, indexing="ij")]
    coords = np.round(rng.standard_normal((rows, 3)), 3)
    return np.hstack(grid + [coords, np.ones((rows, 1))])


class TestGatherPath:
    @pytest.mark.parametrize("value", [0.1, -0.0, 5e-324, -1e300, np.nan], ids=str)
    def test_block_of_one_value(self, value):
        table = np.full((2 * _BLOCK_CELLS // 5 + 3, 5), value)
        assert_same(ref_export_table, export_table, table, "csv")
        assert_same(ref_export_table, export_table, table[: _BLOCK_CELLS // 5], "csv")

    def test_zero_beside_negative_zero(self):
        table = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
        assert_same(ref_export_table, export_table, table, "csv")
        assert formatted(table.ravel()) == ["0.0", "-0.0", "0.0", "-0.0", "-0.0", "0.0"]
        samples = np.resize([0.0, -0.0, 1.0, -1.0], (3, 4, 3))
        assert_same(ref_export_obj, export_obj, samples, np.resize([-0.0, 0.0], (2, 2, 3)))

    def test_nans_and_infinities_within_and_across_blocks(self):
        values = np.concatenate([NANS, -NANS, [np.inf, -np.inf, 1.0]])
        assert len({x.tobytes() for x in values}) == len(values)
        column = np.resize(values, 2 * _BLOCK_CELLS + 5)
        assert_same(ref_export_table, export_table, column, "csv")
        assert_same(ref_export_table, export_table, column.reshape(-1, 5), "csv", list("abcde"))
        assert formatted(column[:9]) == ["nan"] * 6 + ["inf", "-inf", "1.0"]

    def test_repeated_subnormals(self):
        values = np.concatenate([SUBNORMALS, -SUBNORMALS, FIRST_SUBNORMALS[:5]])
        for rows in edge_rows(4):
            table = np.resize(values, (rows, 4))
            assert_same(ref_export_table, export_table, table, "csv")

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_value_on_both_sides_of_a_block_edge(self, width):
        rows = _BLOCK_CELLS // width
        data = mixed_cells(np.random.default_rng(width), (2 * rows + 2, width))
        data[rows - 1 : rows + 1] = data[rows]  # the last row of a block and the first of the next
        data[2 * rows - 1 : 2 * rows + 1, 0] = 1.0 / 3.0
        assert_same(ref_export_table, export_table, data, "csv")
        pieces = ("[", *[" "] * (width - 1), "]\n")
        assert "".join(format_rows([(pieces, data)])) == rows_text(pieces, *columns_of(data))

    def test_cli_layout_across_the_first_and_second_block_edge(self):
        for rows in edge_rows(6):
            data = cli_table(rows, np.random.default_rng(rows))
            columns = ["u1", "u2", "x", "y", "z", "weight"]
            assert_same(ref_export_table, export_table, data, "csv", columns)

    @pytest.mark.parametrize("ids", [True, False], ids=["ids", "any"])
    def test_floats_and_integers_in_one_table(self, ids):
        rng = np.random.default_rng(31)
        for rows in edge_rows(4)[:4]:
            coords = np.round(rng.standard_normal((rows, 3)), 1)
            coords[::5] = -0.0
            index = np.arange(rows) if ids else rng.integers(-3, 10**17 + 3, rows)
            pieces = ("(", ",", ",", ") ", "\n")
            text = "".join(format_rows([(pieces, coords, index[:, None])]))
            assert text == rows_text(pieces, *columns_of(coords, index[:, None]))


# ---------------------------------------------------------------------------
# The vectorized formatter against repr: every float cell of a large export
# is printed by format_rows, so its text must be repr of the value, in fixed
# and exponent form alike, and an integer cell's text that of %d.


def formatted(values) -> list[str]:
    """Each value as the one cell of a row, printed by the row formatter."""
    values = np.asarray(values)
    return "".join(format_rows([(("", "\n"), values.reshape(-1, 1))])).split("\n")[:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=float)
    expected = [repr(x) for x in values.tolist()]
    got = formatted(values)
    assert len(got) == len(expected)
    wrong = [(text, line) for text, line in zip(expected, got) if text != line]
    assert not wrong, wrong[:5]


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
FIRST_SUBNORMALS = np.arange(1, 65, dtype=np.uint64).view(np.float64)
# repr switches to exponent form below 1e-4 and from 1e16 up; 2**53 is the
# last float whose neighbours are all integers one apart.
NOTATION_SWITCHES = np.array(
    [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
     2.0**53 - 1.0, 2.0**53, 2.0**53 + 1.0, 2.0**53 + 2.0]
)


class TestFormatterMatchesRepr:
    def test_powers_of_two(self):
        assert len(POWERS_OF_TWO) == 2098 and POWERS_OF_TWO[0] == 5e-324
        assert_repr(np.concatenate([POWERS_OF_TWO, -POWERS_OF_TWO]))

    def test_powers_of_ten(self):
        assert POWERS_OF_TEN[0] == 1e-323 and POWERS_OF_TEN[-1] == 1e308
        assert_repr(np.concatenate([POWERS_OF_TEN, -POWERS_OF_TEN]))

    def test_first_subnormals(self):
        assert FIRST_SUBNORMALS[0] == 5e-324 and FIRST_SUBNORMALS[-1] == 64 * 5e-324
        assert_repr(np.concatenate([FIRST_SUBNORMALS, -FIRST_SUBNORMALS]))

    def test_both_sides_of_each_notation_switch(self):
        assert formatted(NOTATION_SWITCHES[:4]) == [
            "0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"
        ]
        assert_repr(np.concatenate([NOTATION_SWITCHES, -NOTATION_SWITCHES]))

    def test_zeros_and_nonfinite(self):
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, nan_with_payload(-1)]
        assert formatted(values) == ["0.0", "-0.0", "nan", "nan", "inf", "-inf", "nan"]
        assert_repr(values)

    @pytest.mark.parametrize("value, text", [(5e-324, "5e-324"), (8e-323, "8e-323")])
    def test_regressions_where_java_prints_two_digits(self, value, text):
        # Java's Double.toString prints 4.9E-324 and 7.9E-323: it scales tiny
        # subnormals by ten and tries one digit fewer only from s >= 100.
        assert formatted([value, -value]) == [text, "-" + text]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 10**6, dtype=np.uint64)
        assert_repr(bits.view(np.float64))

    def test_hypothesis_floats(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=2000, deadline=None, derandomize=True)
        @hypothesis.given(hypothesis.strategies.floats())
        def check(x):
            assert formatted([x]) == [repr(x)]

        check()

    def test_integers_at_every_length(self):
        tens = [10**k for k in range(18)]
        values = sorted({0, 2**63 - 1, -1, -(2**63), *tens, *(t - 1 for t in tens)})
        assert formatted(np.array(values, dtype=np.int64)) == ["%d" % v for v in values]


def mixed_cells(rng, shape, finite=True):
    """Fixed-form cells among exponent-form, zero and (unless ``finite``) non-finite ones."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 15, shape)
    kind = rng.integers(0, 8, shape)
    tiny = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, -4, shape)
    huge = rng.standard_normal(shape) * 10.0 ** rng.integers(16, 300, shape)
    values = np.where(kind == 1, tiny, np.where(kind == 2, huge, values))
    values[kind == 3] = rng.choice([0.0, -0.0], size=int((kind == 3).sum()))
    if not finite:
        values[kind == 4] = rng.choice(NONFINITE, size=int((kind == 4).sum()))
    return values


class TestMixedNotationBlocks:
    @pytest.mark.parametrize("rows", BLOCK_COUNTS + EDGE_COUNTS)
    @pytest.mark.parametrize("header", [False, True])
    def test_csv(self, rows, header):
        data = mixed_cells(np.random.default_rng(rows), (rows, 4), finite=False)
        columns = ["a", "b", "c", "d"] if header else None
        assert_same(ref_export_table, export_table, data, "csv", columns)

    @pytest.mark.parametrize("n", BLOCK_COUNTS[1:] + (2,) + EDGE_COUNTS)
    def test_obj(self, n):
        rng = np.random.default_rng(n)
        assert_same(ref_export_obj, export_obj, mixed_cells(rng, (n, 3)), mixed_cells(rng, (4, 3)))
        patch = mixed_cells(rng, (3, n // 3 + 2, 3))
        assert_same(ref_export_obj, export_obj, patch, mixed_cells(rng, (2, 5, 3)))

    @pytest.mark.parametrize("n", BLOCK_COUNTS[1:] + (2,) + block_rows(2) + EDGE_COUNTS)
    def test_svg(self, n):
        rng = np.random.default_rng(n)
        paths = [SvgPath(mixed_cells(rng, (n, 2)), "curve"),
                 SvgPath(mixed_cells(rng, (min(n, 40), 2)), "polygon", "q")]
        assert_same(ref_export_svg, export_svg, paths)

    def test_nonfinite_refused_alike(self):
        rng = np.random.default_rng(8)
        bad = mixed_cells(rng, (EDGE_ROWS + 1, 3), finite=False)
        assert not np.all(np.isfinite(bad))
        assert_same(ref_export_obj, export_obj, bad)
        assert_same(ref_export_svg, export_svg, [SvgPath(bad[:, :2], "polygon")])


# ---------------------------------------------------------------------------
# Block edges: the formatter cuts its tables into blocks of _BLOCK_CELLS
# cells, so a table of any width, of floats or of integers, prints the same
# on both sides of an edge, and small tables and literals that share a block
# keep their order.


def rows_text(pieces, *columns):
    """The per-value reference: ``repr`` for a float cell, ``%d`` for an integer cell."""
    cells = [[repr(x) if isinstance(x, float) else "%d" % x for x in row]
             for row in zip(*(c.tolist() for c in columns))]
    return "".join(pieces[0] + "".join(c + p for c, p in zip(row, pieces[1:])) for row in cells)


def columns_of(*groups):
    return [g[:, i] for g in groups for i in range(g.shape[1])]


class TestBlockEdges:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7])
    def test_float_tables(self, width):
        rng = np.random.default_rng(width)
        for rows in edge_rows(width):
            data = mixed_cells(rng, (rows, width), finite=False)
            assert_same(ref_export_table, export_table, data, "csv")
            pieces = ("<", *[", "] * (width - 1), ">\n")
            assert "".join(format_rows([(pieces, data)])) == rows_text(pieces, *columns_of(data))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("high", [None, 10**8, 2**63 - 1], ids=["ids", "wide", "any"])
    def test_integer_tables(self, width, high):
        # Ids below the cell count are formatted once and gathered; other
        # integers, negative ones and those from 10**17 up among them, cell by cell.
        rng = np.random.default_rng(width)
        for rows in edge_rows(width):
            top = rows * width if high is None else high
            ids = rng.integers(-1000 if high == 2**63 - 1 else 0, top, (rows, width))
            pieces = ("f ", *[" "] * (width - 1), "\n")
            assert "".join(format_rows([(pieces, ids)])) == rows_text(pieces, *columns_of(ids))

    @pytest.mark.parametrize("rows", block_rows(5)[:3] + tuple(
        pytest.param(n, id=f"edge{d:+d}") for d, n in zip((-1, 0, 1), edge_rows(5))))
    def test_floats_beside_integers(self, rows):
        rng = np.random.default_rng(rows)
        coords, ids = mixed_cells(rng, (rows, 4)), np.arange(rows)[:, None]
        pieces = ("(", ",", ") ", ",", ' "', '"\n')
        text = "".join(format_rows([(pieces, coords, ids)]))
        assert text == rows_text(pieces, *columns_of(coords, ids))

    def test_small_tables_and_literals_share_blocks(self):
        rng = np.random.default_rng(21)
        small = [mixed_cells(rng, (n, 2)) for n in (1, 2, 5)]
        large = mixed_cells(rng, (2 * _BLOCK_CELLS // 3 + 5, 3))
        faces = rng.integers(1, 50, (7, 4))
        items = ["head\n", ((" L ", ",", ""), small[0]), "", (("", "|"), small[1][:, :1]),
                 ((" L ", ",", ""), small[2]), " mid\n", (("v ", " ", " ", "\n"), large),
                 (("f ", " ", " ", " ", "\n"), faces), ((";",), np.zeros((3, 0))), "tail"]
        expected = ["head\n", rows_text((" L ", ",", ""), *columns_of(small[0])),
                    rows_text(("", "|"), small[1][:, 0]),
                    rows_text((" L ", ",", ""), *columns_of(small[2])),
                    " mid\n", rows_text(("v ", " ", " ", "\n"), *columns_of(large)),
                    rows_text(("f ", " ", " ", " ", "\n"), *columns_of(faces)), ";;;tail"]
        assert "".join(format_rows(items)) == "".join(expected)

    @pytest.mark.parametrize("rows", [2048, 20000])
    def test_scratch_stays_below_one_and_a_half_megabytes(self, rows):
        table = np.random.default_rng(rows).standard_normal((rows, 5))
        assert scratch_peak(table) <= 1.5e6

    def test_scratch_of_a_lattice_table_stays_below_one_and_a_half_megabytes(self):
        table = cli_table(20000, np.random.default_rng(3))[:, :5]
        table[:, 2:] = np.random.default_rng(4).standard_normal((20000, 3))
        assert scratch_peak(table) <= 1.5e6


def scratch_peak(table):
    """Bytes one ``format_rows`` call of a 5-column table allocates beyond the text it returns."""
    items = [(("", ",", ",", ",", ",", "\n"), table)]
    format_rows(items)  # the constant tables are built on first use
    tracemalloc.start()
    try:
        texts = format_rows(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(map(sys.getsizeof, texts))


# ---------------------------------------------------------------------------
# Export bytes do not depend on the CPU: the formatter uses integer
# arithmetic and exact conversions only, so a child process whose numpy
# runs without its AVX512 loops prints the same bytes.

_EXPORTS = """
import hashlib
import numpy as np
from chbez import export_obj, export_table

rng = np.random.default_rng(2014)
lattice = rng.random((40, 50, 3)) * 20.0 - 10.0
lattice[::7, ::5] *= 1e-21
lattice[3] = -0.0
net = lattice[::8, ::10] * 3.0
extra = np.resize([np.nan, np.inf, -0.0, 1e300, 0.5], 2000)
table = np.column_stack([lattice.reshape(-1, 3), extra])
digest = hashlib.sha256(export_obj(lattice, net).encode())
digest.update(export_table(table, "csv", ["x", "y", "z", "w"]).encode())
# A meshgrid table: repeated parameters, signed zeros and NaN payloads, whose
# bit patterns the block's sort groups.
u, v = np.meshgrid(np.linspace(0.0, np.pi, 90), np.linspace(-1.0, 1.0, 70), indexing="ij")
nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x8000000000001]).view(np.float64)
grid = np.column_stack([u.ravel(), v.ravel(), np.resize([0.0, -0.0, 2.5], 6300),
                        np.resize(np.concatenate([nans, -nans, lattice[0, :5, 0]]), 6300)])
digest.update(export_table(grid, "csv").encode())
DIGEST = digest.hexdigest()
"""


def test_export_bytes_do_not_depend_on_the_simd_dispatch():
    from test_basis_accuracy import _NO_AVX512, _digests

    in_process, child = _digests(_EXPORTS, _NO_AVX512)
    assert child == in_process
