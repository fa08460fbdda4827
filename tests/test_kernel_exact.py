"""Byte-for-byte oracle for the curve kernels.

Most reference functions below are the original per-element kernels, kept
verbatim: a double loop over ``math.comb`` for the coefficient sums and the
elevation weights, one ``_raise_order`` call per transform row, a Python
``_clamp_param`` call per basis parameter and a Bernstein row per piece
parameter.  The basis and Bernstein tables are checked against the scaled
factor formula of :mod:`chbez.bbasis` written out one column at a time:
entry ``[j, i]`` is ``S_i * (lam_j**(d - i) * rho_j**i)``, its powers taken
from the multiply ladder ``x**k = x**h * x**(k - h)`` (``h`` the largest
power of two below ``k``), with no blocks and no transposes.  The package's vectorized kernels
must give the same bytes for the coefficient sums, normalizing
coefficients, elevation weights, transform rows, basis tables and Bernstein
tables, piece values within 1e-13 of the largest control point coordinate,
and the same ``RangeError`` / ``NumericalError`` messages on out-of-range
input.
"""

import math
from functools import cache

import numpy as np
import pytest

from chbez import (
    BasisKind,
    BasisSpace,
    BezierPiece,
    ControlCurve,
    NumericalError,
    RangeError,
    basis_matrix,
    elevation_weights,
    subdivide,
)
from chbez.bbasis import (_BLOCK_ROWS, _bernstein_table, _coefficient_sums, _half_functions,
                          _normalizing_values)
from chbez.xform import _order_one_rows, _transform_rows

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
_PARAM_SLACK = 1e-12
_WEIGHT_FLOOR = 1e-14

# ---------------------------------------------------------------------------
# Reference kernels (verbatim copies of the per-element originals)


@cache
def ref_coefficient_sums(space: BasisSpace) -> np.ndarray:
    n = space.n
    _, c = _half_functions(space)
    two_c = 2.0 * c
    sums = np.zeros(2 * n + 1)
    for i in range(2 * n + 1):
        total = 0.0
        for r in range(i // 2 + 1):
            if i - r > n:
                continue
            total += math.comb(n, i - r) * math.comb(i - r, r) * two_c ** (i - 2 * r)
        sums[i] = total
    sums.flags.writeable = False
    return sums


@cache
def ref_normalizing_values(space: BasisSpace) -> np.ndarray:
    s, _ = _half_functions(space)
    values = ref_coefficient_sums(space) / s ** (2 * space.n)
    if not np.all(np.isfinite(values)):
        raise RangeError(
            f"normalizing coefficients overflow for {space.kind.value} space "
            f"with n={space.n}, alpha={space.alpha:g}"
        )
    values.flags.writeable = False
    return values


def ref_clamp_param(space: BasisSpace, u: float) -> float:
    u = float(u)
    if u < 0.0:
        if u >= -_PARAM_SLACK:
            return 0.0
        raise RangeError(f"parameter u = {u!r} below 0")
    if u > space.alpha:
        if u <= space.alpha + _PARAM_SLACK:
            return space.alpha
        raise RangeError(f"parameter u = {u!r} above alpha = {space.alpha!r}")
    return u


def ref_powers(x: np.ndarray, degree: int) -> list[np.ndarray]:
    """``x**k`` for k = 0 .. degree: ``x**h * x**(k - h)``, h the largest power of 2 below k."""
    powers = [np.ones_like(x), x]
    for k in range(2, degree + 1):
        h = 1 << ((k - 1).bit_length() - 1)
        powers.append(powers[h] * powers[k - h])
    return powers[: degree + 1]


def ref_products(left: np.ndarray, right: np.ndarray, weights) -> np.ndarray:
    """Entry ``[j, i]`` is ``weights[i] * (left[j]**(d - i) * right[j]**i)``."""
    d = len(weights) - 1
    lp, rp = ref_powers(left, d), ref_powers(right, d)
    table = np.empty((len(left), d + 1))
    for i in range(d + 1):
        table[:, i] = weights[i] * (lp[d - i] * rp[i])
    return table


def ref_basis_matrix(space: BasisSpace, us) -> np.ndarray:
    us = np.asarray(us, dtype=float)
    if us.ndim != 1:
        raise RangeError(f"parameter batch must be one dimensional, got shape {us.shape}")
    clamped = np.array([ref_clamp_param(space, u) for u in us], dtype=float)
    ref_normalizing_values(space)  # the overflow refusal
    s = np.sin if space.kind is BasisKind.TRIGONOMETRIC else np.sinh
    scale = s(0.5 * space.alpha)
    lam = s(0.5 * (space.alpha - clamped)) / scale
    rho = s(0.5 * clamped) / scale
    return ref_products(lam, rho, ref_coefficient_sums(space))


def ref_bernstein_table(degree: int, vs) -> np.ndarray:
    v = np.array([min(max(float(x), 0.0), 1.0) for x in vs], dtype=float)
    return ref_products(1.0 - v, v, [float(math.comb(degree, i)) for i in range(degree + 1)])


@cache
def ref_elevation_weights(space: BasisSpace) -> np.ndarray:
    n = space.n
    low = ref_coefficient_sums(space)
    one = ref_coefficient_sums(BasisSpace(space.kind, 1, space.alpha))
    high = ref_coefficient_sums(BasisSpace(space.kind, n + 1, space.alpha))
    weights = np.zeros((2 * n + 3, 3))
    for r in range(2 * n + 3):
        for j in range(3):
            if 0 <= r - j <= 2 * n:
                weights[r, j] = low[r - j] * one[j] / high[r]
    weights.flags.writeable = False
    return weights


def ref_raise_order(coeffs: np.ndarray, factor: np.ndarray, weights: np.ndarray) -> np.ndarray:
    m = coeffs.shape[0]
    out = np.zeros((m + 2,) + coeffs.shape[1:])
    for j in range(3):
        w = weights[j : j + m, j] * factor[j]
        out[j : j + m] += w.reshape((m,) + (1,) * (coeffs.ndim - 1)) * coeffs
    return out


@cache
def ref_transform_rows(space: BasisSpace) -> np.ndarray:
    sign = -1.0 if space.kind is BasisKind.TRIGONOMETRIC else 1.0
    base = _order_one_rows(space.kind, space.alpha)
    rows = base
    sine_one = base[1]
    cosine_one = base[2]
    for m in range(1, space.n):
        weights = ref_elevation_weights(BasisSpace(space.kind, m, space.alpha))
        grown = np.zeros((2 * m + 3, 2 * m + 3))
        grown[0] = 1.0
        ones = np.ones(3)
        for r in range(1, 2 * m + 1):
            grown[r] = ref_raise_order(rows[r], ones, weights)
        sine_m = rows[2 * m - 1]
        cosine_m = rows[2 * m]
        grown[2 * m + 1] = ref_raise_order(sine_m, cosine_one, weights) + ref_raise_order(
            cosine_m, sine_one, weights
        )
        grown[2 * m + 2] = ref_raise_order(cosine_m, cosine_one, weights) + sign * ref_raise_order(
            sine_m, sine_one, weights
        )
        rows = grown
    rows = np.array(rows)
    rows.flags.writeable = False
    return rows


def ref_reparametrize(space: BasisSpace, u: float) -> float:
    u = ref_clamp_param(space, u)
    quarter = 0.25 * space.alpha
    if space.kind is BasisKind.TRIGONOMETRIC:
        return 0.5 + math.tan(0.5 * u - quarter) / (2.0 * math.tan(quarter))
    return 0.5 + math.tanh(0.5 * u - quarter) / (2.0 * math.tanh(quarter))


def ref_piece_evaluate(self, u):
    lo, hi = self.u_interval
    v_lo = ref_reparametrize(self.parent_space, lo)
    v_hi = ref_reparametrize(self.parent_space, hi)
    scalar = np.ndim(u) == 0
    us = np.atleast_1d(np.asarray(u, dtype=float))
    degree = self.points.shape[0] - 1
    out = np.empty((us.size, self.points.shape[1]))
    for row, ui in enumerate(us):
        if ui < lo - 1e-12 or ui > hi + 1e-12:
            raise RangeError(
                f"parameter u = {float(ui)!r} outside the piece interval [{lo:g}, {hi:g}]"
            )
        s = (ref_reparametrize(self.parent_space, ui) - v_lo) / (v_hi - v_lo)
        s = min(max(s, 0.0), 1.0)
        bern = np.array(
            [math.comb(degree, i) * s**i * (1.0 - s) ** (degree - i) for i in range(degree + 1)]
        )
        denom = bern @ self.weights
        if abs(denom) <= _WEIGHT_FLOOR:
            raise NumericalError(f"piece denominator vanishes near u = {ui:g}")
        out[row] = (bern * self.weights) @ self.points / denom
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Cases

ORDERS = range(1, 33)


def alphas(kind, n):
    """Tiny, typical and near-limit shape parameters for order ``n``."""
    if kind is TRIG:
        return (1e-3, 0.7, 2.3, math.pi - 1e-3)
    return (1e-3, 0.7, min(2.3, 299.0 / n), 299.0 / n)


def outcome(fn, *args):
    """The result's bytes, or the type and text of the error it raises."""
    try:
        return fn(*args).tobytes()
    except (RangeError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def spaces():
    return [
        pytest.param(kind, n, id=f"{kind.value[:4]}-{n}") for kind in (TRIG, HYP) for n in ORDERS
    ]


# ---------------------------------------------------------------------------
# Tables


@pytest.mark.parametrize("kind, n", spaces())
class TestTables:
    def test_coefficient_sums(self, kind, n):
        for alpha in alphas(kind, n):
            space = BasisSpace(kind, n, alpha)
            assert _coefficient_sums(space).tobytes() == ref_coefficient_sums(space).tobytes()

    def test_normalizing_values(self, kind, n):
        for alpha in alphas(kind, n):
            space = BasisSpace(kind, n, alpha)
            assert outcome(_normalizing_values, space) == outcome(ref_normalizing_values, space)

    def test_elevation_weights(self, kind, n):
        # At the near-limit hyperbolic alpha order n + 1 is out of range:
        # both sides must then raise the same RangeError.
        for alpha in alphas(kind, n):
            space = BasisSpace(kind, n, alpha)
            assert outcome(elevation_weights, space) == outcome(ref_elevation_weights, space)

    def test_transform_rows(self, kind, n):
        for alpha in alphas(kind, n):
            space = BasisSpace(kind, n, alpha)
            assert _transform_rows(space).tobytes() == ref_transform_rows(space).tobytes()

    def test_basis_table(self, kind, n):
        for alpha in alphas(kind, n):
            space = BasisSpace(kind, n, alpha)
            us = np.linspace(0.0, alpha, 257)
            # Values inside the clamping slack and a negative zero, too.
            us[1], us[-2], us[2] = -1e-13, alpha + 1e-13, -0.0
            assert outcome(basis_matrix, space, us) == outcome(ref_basis_matrix, space, us)


def test_random_spaces_match():
    rng = np.random.default_rng(20141)
    for _ in range(80):
        kind = TRIG if rng.random() < 0.5 else HYP
        n = int(rng.integers(1, 33))
        top = math.pi if kind is TRIG else 300.0 / (n + 1)
        space = BasisSpace(kind, n, float(rng.uniform(1e-3, top)))
        assert _coefficient_sums(space).tobytes() == ref_coefficient_sums(space).tobytes()
        assert outcome(elevation_weights, space) == outcome(ref_elevation_weights, space)
        assert _transform_rows(space).tobytes() == ref_transform_rows(space).tobytes()
        us = rng.uniform(0.0, space.alpha, 65)
        assert basis_matrix(space, us).tobytes() == ref_basis_matrix(space, us).tobytes()


def test_overflowing_space_raises_the_same_error():
    space = BasisSpace(TRIG, 32, 1e-5)
    with np.errstate(divide="ignore"):
        expected = outcome(ref_normalizing_values, space)
    assert expected.startswith("RangeError: normalizing coefficients overflow")
    assert outcome(_normalizing_values, space) == expected
    assert outcome(basis_matrix, space, [0.0]) == expected


@pytest.mark.parametrize(
    "us",
    [
        [-1e-3],
        [0.5, -2e-12, 0.25],
        [1.2],
        [0.1, 1.0 + 2e-12],
        [0.2, -1e-13, 1.0 + 1e-13, 5.0, -5.0],
        [0.2, -5.0, 5.0],
        [np.inf],
        [-np.inf, 0.5],
        [0.3, 1.0, np.inf, -1.0],
    ],
    ids=str,
)
@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_basis_range_messages(kind, us):
    space = BasisSpace(kind, 3, 1.0)
    expected = outcome(ref_basis_matrix, space, us)
    assert expected.startswith("RangeError")
    assert outcome(basis_matrix, space, us) == expected


# ---------------------------------------------------------------------------
# Basis tables across block boundaries

B = _BLOCK_ROWS
# Batch sizes around the block size, and around 512, the block size the
# tables were first built with.
COUNTS = sorted({0, 1, B - 1, B, B + 1, 2 * B + 1, 511, 512, 513, 1025})


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", [1, 16, 32])
@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_basis_table_across_blocks(kind, n, count):
    """Batches around the block size; the last rows hold slack values and a -0.0."""
    alpha = 1.5
    space = BasisSpace(kind, n, alpha)
    us = np.random.default_rng(count + 100 * n).uniform(0.0, alpha, count)
    slack = [-0.0, -1e-13, alpha + 1e-13][max(0, 3 - count) :]
    us[count - len(slack) :] = slack
    table = basis_matrix(space, us)
    assert table.shape == (count, 2 * n + 1)
    assert table.tobytes() == ref_basis_matrix(space, us).tobytes()


@pytest.mark.parametrize("count", [0, 1, B - 1, B + 1, 2 * B + 1])
def test_bernstein_table(count):
    """Degrees 0 to 64; the first values are the clamped ends and a -0.0."""
    vs = np.random.default_rng(count).uniform(0.0, 1.0, count)
    ends = [-5e-13, -0.0, 0.0, 1.0, 1.0 + 5e-13][:count]
    vs[: len(ends)] = ends
    for degree in range(65):
        table = _bernstein_table(degree, vs)
        assert table.shape == (count, degree + 1)
        assert table.tobytes() == ref_bernstein_table(degree, vs).tobytes(), degree


@pytest.mark.parametrize(
    "offenders",
    [
        {2 * B: -1e-3},
        {B: 1.0 + 2e-12, 2 * B: -5.0},
        {B + 1: np.inf, 2 * B - 1: -np.inf},
        {B - 1: -1e-13, B + 3: -2e-12, 2 * B: 1.0 + 2e-12},
        {1024: -1e-3},
        {512: 1.0 + 2e-12, 1024: -5.0},
        {513: np.inf, 1023: -np.inf},
        {511: -1e-13, 515: -2e-12, 1024: 1.0 + 2e-12},
    ],
    ids=str,
)
@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_first_offender_in_a_later_block(kind, offenders):
    space = BasisSpace(kind, 3, 1.0)
    us = np.linspace(0.0, 1.0, max(2 * B, *offenders) + 1)
    for index, u in offenders.items():
        us[index] = u
    expected = outcome(ref_basis_matrix, space, us)
    assert expected.startswith("RangeError")
    assert outcome(basis_matrix, space, us) == expected


# ---------------------------------------------------------------------------
# Pieces


def random_pieces(kind, n, alpha, seed, rational):
    rng = np.random.default_rng(seed)
    space = BasisSpace(kind, n, alpha)
    points = rng.standard_normal((space.dimension, 3))
    weights = 0.5 + rng.random(space.dimension) if rational else None
    parts = subdivide(ControlCurve(space, points, weights), float(rng.uniform(0.1, 0.9)) * alpha)
    return parts.left, parts.right


@pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
@pytest.mark.parametrize(
    "kind, n, alpha",
    [(TRIG, 1, 0.3), (TRIG, 4, 2.0), (TRIG, 12, 3.1), (TRIG, 32, 1.5),
     (HYP, 1, 0.5), (HYP, 5, 2.0), (HYP, 16, 1.0), (HYP, 32, 0.3)],
)
def test_piece_values_match(kind, n, alpha, rational):
    for seed in range(3):
        for piece in random_pieces(kind, n, alpha, seed, rational):
            lo, hi = piece.u_interval
            us = np.concatenate([np.linspace(lo, hi, 97), [lo - 1e-12, hi + 1e-12]])
            got = piece.evaluate(us)
            expected = ref_piece_evaluate(piece, us)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(piece.points))
            mid = 0.5 * (lo + hi)
            assert np.max(np.abs(piece.evaluate(mid) - ref_piece_evaluate(piece, mid))) <= (
                1e-13 * np.max(np.abs(piece.points))
            )


def test_empty_batch():
    piece = random_pieces(TRIG, 3, 1.0, 0, False)[0]
    assert piece.evaluate([]).shape == ref_piece_evaluate(piece, []).shape == (0, 3)


def vanishing_piece():
    """Degree-2 piece over the whole parent whose denominator is 0 at u = alpha / 2."""
    space = BasisSpace(TRIG, 1, 1.0)
    return BezierPiece(space, np.eye(3), np.array([1.0, -1.0, 1.0]), (0.0, 1.0))


def piece_outcome(evaluate, piece, us):
    try:
        evaluate(piece, us)
    except (RangeError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


@pytest.mark.parametrize(
    "us",
    [
        [1.5],
        [-0.1],
        [0.2, 1.0 + 2e-12, -1.0],
        [0.2, -1.0, 1.0 + 2e-12],
        [0.5],
        [0.1, 0.5, 2.0],
        [0.1, 2.0, 0.5],
        [np.inf],
        [0.3, -np.inf],
    ],
    ids=str,
)
def test_piece_error_messages(us):
    piece = vanishing_piece()
    expected = piece_outcome(ref_piece_evaluate, piece, us)
    assert expected != "no error"
    assert piece_outcome(BezierPiece.evaluate, piece, us) == expected


@pytest.mark.parametrize("us", [[-2e-12], [0.5, -2e-12, 3.0], [0.5, 3.0, -2e-12]], ids=str)
def test_piece_reaching_below_the_parent(us):
    """Inside the piece's slack but below the parent's: the parent's check speaks."""
    space = BasisSpace(TRIG, 1, 1.0)
    piece = BezierPiece(space, np.eye(3), np.ones(3), (-1e-12, 1.0))
    expected = piece_outcome(ref_piece_evaluate, piece, us)
    assert expected.startswith("RangeError")
    assert piece_outcome(BezierPiece.evaluate, piece, us) == expected
