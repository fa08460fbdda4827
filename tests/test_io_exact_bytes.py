"""Byte-for-byte oracle for the exporters.

The reference functions below are the original per-element exporters,
kept verbatim: one ``format_float`` call per float, one Python ``vid()``
call per quad corner and an ``np.ndindex`` walk over the control net.
The package's block-wise exporters must print exactly the same bytes and
raise the same ``RangeError`` messages on every input here.
"""

import json

import numpy as np
import pytest

from chbez import RangeError, SvgPath, export_obj, export_svg, export_table
from chbez.io import _BLOCK_ROWS, _SVG_COLORS, format_float

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


BLOCK_COUNTS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)


# ---------------------------------------------------------------------------
# Tables


class TestTableBytes:
    @pytest.mark.parametrize("rows", BLOCK_COUNTS + (2 * _BLOCK_ROWS + 7,))
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
    @pytest.mark.parametrize("n", BLOCK_COUNTS[1:] + (2,))
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
    @pytest.mark.parametrize("n", [2, 3, 400, _BLOCK_ROWS + 1])
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
    @pytest.mark.parametrize("rows", BLOCK_COUNTS + (2 * _BLOCK_ROWS + 7,))
    @pytest.mark.parametrize("header", [False, True])
    def test_meshgrid_tables(self, rows, header):
        data = meshgrid_table(rows, np.random.default_rng(rows))
        columns = ["u1", "u2", "x", "y", "z"] if header else None
        assert_same(ref_export_table, export_table, data, "csv", columns)

    def test_strided_tables(self):
        data = meshgrid_table(_BLOCK_ROWS + 9, np.random.default_rng(5))
        assert_same(ref_export_table, export_table, np.asfortranarray(data), "csv")
        assert_same(ref_export_table, export_table, data[::-2, ::2], "csv")

    def test_whole_table_of_one_value_across_blocks(self):
        data = np.full((2 * _BLOCK_ROWS + 7, 3), 0.1)
        assert_same(ref_export_table, export_table, data, "csv", ["a", "b", "c"])

    def test_signed_zeros_stay_apart(self):
        column = np.resize([0.0, -0.0, -0.0, 0.0, 1.0], 2 * _BLOCK_ROWS + 7)
        assert_same(ref_export_table, export_table, column, "csv")
        table = np.column_stack([column, column[::-1], -column])
        assert_same(ref_export_table, export_table, table, "csv")

    def test_nan_payloads_and_signs(self):
        assert len({x.tobytes() for x in NANS}) == 3 and np.signbit(NANS[2])
        values = np.concatenate([NANS, [0.0, -np.inf, np.inf, 1.5]])
        table = np.resize(values, (_BLOCK_ROWS + 3, 3))
        assert_same(ref_export_table, export_table, table, "csv")
        assert_same(ref_export_table, export_table, NANS, "csv", ["n"])

    def test_subnormals(self):
        values = np.concatenate([SUBNORMALS, -SUBNORMALS, [0.0]])
        assert_same(ref_export_table, export_table, np.resize(values, (_BLOCK_ROWS + 5, 4)), "csv")
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
        assert_same(ref_export_obj, export_obj, np.full((_BLOCK_ROWS + 2, 3), -0.0))

    def test_svg_markers_with_repeated_coordinates(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        polygon = np.resize(square, (_BLOCK_ROWS + 9, 2))
        paths = [
            SvgPath(polygon, "polygon", "p"),
            SvgPath(np.resize(square[:2], (5, 2)), "polygon", "a"),
            SvgPath(np.column_stack([np.zeros(7), np.arange(7.0) % 2]), "curve"),
        ]
        assert_same(ref_export_svg, export_svg, paths)
        assert_same(ref_export_svg, export_svg, paths[:2], margin=0.0)
