"""Byte-for-byte oracle for the tensor-product core.

The reference functions below are verbatim copies of the separate curve
and patch paths that the shared core replaced: ``evaluate`` (a basis
matrix product), ``evaluate_surface`` (one ``tensordot`` per direction),
``sample_lattice`` (a ``tensordot``/``moveaxis`` loop), the two
elevate-until-positive loops of ``exact_rational_curve`` and
``exact_rational_surface``, the triple loop of ``SurfaceSpec.evaluate``,
``exact_curve`` (one ``column_stack`` of coordinate ordinates),
``exact_surface`` (its own loop over channels and summands) and
``CurveSpec.evaluate`` (one ``column_stack`` of coordinate values).
On random curves and patches (1 to 4 directions, orders 1 to 32, both
kinds, derivative orders 0 to 3, plain and rational) the package must give
the same bytes and the same error texts.  ``evaluate_surface`` may differ
by a few ulps, since no artifact reads it, and its error text now prints
plain floats.

``ref_contract`` is the hand-rolled contraction, one ``@`` on a 2-d view
per direction.  The package's ``_contract`` makes one ``np.dot`` on the
same view per direction, the call ``np.tensordot`` makes; on random
tensors the two must give the same bytes under the BLAS at hand.
"""

import re
from functools import reduce

import numpy as np
import pytest

from chbez import (
    BasisKind,
    BasisSpace,
    ControlCurve,
    ControlGrid,
    CoordinateFunction,
    CurveSpec,
    Direction,
    NumericalError,
    ProductTerm,
    RangeError,
    SurfaceCoordinateFunction,
    SurfaceSpec,
    Term,
    TermFamily,
    basis_matrix,
    basis_vector,
    elevate,
    elevate_coefficient_vector,
    evaluate,
    evaluate_surface,
    exact_curve,
    exact_rational_curve,
    exact_rational_surface,
    exact_surface,
    min_order,
    min_orders,
    sample_lattice,
)
from chbez.bbasis import MAX_DEGREE
from chbez.curve import _contract
from chbez.exact import coordinate_ordinates

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
COS = TermFamily.COSINE
SIN = TermFamily.SINE
_WEIGHT_FLOOR = 1e-14
WEIGHT_POSITIVITY = 1e-12
_DENOMINATOR_SAMPLES = 1001
_POSITIVITY_DENSITY = 33

# ---------------------------------------------------------------------------
# Reference paths (verbatim copies of the separate originals)


def ref_evaluate(curve: ControlCurve, u):
    scalar = np.ndim(u) == 0
    us = np.atleast_1d(np.asarray(u, dtype=float))
    basis = basis_matrix(curve.space, us)
    if curve.weights is None:
        values = basis @ curve.points
    else:
        denom = basis @ curve.weights
        bad = np.abs(denom) <= _WEIGHT_FLOOR
        if np.any(bad):
            raise NumericalError(
                f"rational denominator vanishes near u = {us[np.argmax(bad)]:g}"
            )
        values = (basis @ (curve.weights[:, None] * curve.points)) / denom[:, None]
    return values[0] if scalar else values


def ref_spaces_for(grid: ControlGrid, directions) -> list[BasisSpace]:
    directions = tuple(directions)
    if len(directions) != len(grid.orders):
        raise RangeError(
            f"expected {len(grid.orders)} directions, got {len(directions)}"
        )
    return [d.space(n) for d, n in zip(directions, grid.orders)]


def ref_evaluate_surface(grid: ControlGrid, directions, u) -> np.ndarray:
    spaces = ref_spaces_for(grid, directions)
    u = np.asarray(u, dtype=float)
    if u.shape != (len(spaces),):
        raise RangeError(f"expected {len(spaces)} parameters, got shape {u.shape}")
    vectors = [basis_vector(s, ui) for s, ui in zip(spaces, u)]
    num = grid.points if grid.weights is None else grid.weights[..., None] * grid.points
    for vec in vectors:
        num = np.tensordot(vec, num, axes=(0, 0))
    if grid.weights is None:
        return num
    den = grid.weights
    for vec in vectors:
        den = np.tensordot(vec, den, axes=(0, 0))
    if abs(den) <= _WEIGHT_FLOOR:
        raise NumericalError(f"rational denominator vanishes at u = {tuple(u)}")
    return num / den


def ref_sample_lattice(grid: ControlGrid, directions, counts) -> np.ndarray:
    spaces = ref_spaces_for(grid, directions)
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(spaces) or any(c < 2 for c in counts):
        raise RangeError(f"need at least 2 samples per direction, got {counts!r}")
    mats = [
        basis_matrix(s, np.linspace(0.0, s.alpha, c)) for s, c in zip(spaces, counts)
    ]

    def contract(tensor):
        for j, mat in enumerate(mats):
            tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, j)), 0, j)
        return tensor

    num = grid.points if grid.weights is None else grid.weights[..., None] * grid.points
    num = contract(num)
    if grid.weights is None:
        return num
    den = contract(grid.weights)
    if np.any(np.abs(den) <= _WEIGHT_FLOOR):
        raise NumericalError("rational denominator vanishes on the sample lattice")
    return num / den[..., None]


def ref_exact_rational_curve(spec: CurveSpec, n=None, max_elevations=32):
    if spec.dimension < 2:
        raise RangeError("rational description needs numerator and denominator coordinates")
    if not isinstance(max_elevations, (int, np.integer)) or max_elevations < 0:
        raise RangeError(f"max_elevations must be a nonnegative integer, got {max_elevations!r}")
    us = np.linspace(0.0, spec.alpha, _DENOMINATOR_SAMPLES)
    den = spec.coords[-1].values(spec.kind, us)
    if np.any(den <= 0.0):
        at = us[int(np.argmin(den))]
        raise NumericalError(
            f"denominator is not positive on [0, {spec.alpha:g}] (fails near u = {at:g})"
        )
    pre = ref_exact_curve(spec, n, 0)
    steps = 0
    while np.any(pre.points[:, -1] <= WEIGHT_POSITIVITY) and steps < max_elevations:
        if 2 * (pre.space.n + 1) > MAX_DEGREE:
            break
        pre = elevate(pre, 1)
        steps += 1
    weights = pre.points[:, -1]
    if np.any(weights <= WEIGHT_POSITIVITY):
        bad = np.flatnonzero(weights <= WEIGHT_POSITIVITY)
        raise NumericalError(
            f"weights not positive after {steps} elevation(s)",
            indices=[int(i) for i in bad],
        )
    projected = ControlCurve(pre.space, pre.points[:, :-1] / weights[:, None], weights)
    return pre, projected, steps


def ref_check_orders(spec: SurfaceSpec, orders) -> tuple[int, ...]:
    if orders is None:
        return min_orders(spec)
    orders = tuple(int(n) for n in orders)
    if len(orders) != spec.delta:
        raise RangeError(f"expected {spec.delta} orders, got {len(orders)}")
    minimum = min_orders(spec)
    for j, (n, nu) in enumerate(zip(orders, minimum)):
        if n < nu:
            raise RangeError(f"order {n} in direction {j} below the minimum {nu}")
    return orders


def ref_elevate_along(points: np.ndarray, space: BasisSpace, axis: int) -> np.ndarray:
    moved = np.moveaxis(points, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    lifted = elevate_coefficient_vector(space, flat)
    lifted = lifted.reshape((lifted.shape[0],) + moved.shape[1:])
    return np.moveaxis(lifted, 0, axis)


def ref_lattice_values(coord, directions, axes) -> np.ndarray:
    dims = tuple(len(a) for a in axes)
    out = np.zeros(dims)
    for summand in coord.summands:
        vecs = [
            factor.values(directions[j].kind, axes[j])
            for j, factor in enumerate(summand.factors)
        ]
        out += reduce(np.multiply.outer, vecs)
    return out


def ref_exact_rational_surface(spec: SurfaceSpec, orders=None, max_elevations=32):
    if not spec.is_rational:
        raise RangeError(
            "rational description expects delta + kappa + 1 coordinates "
            "(the trailing denominator)"
        )
    if not isinstance(max_elevations, (int, np.integer)) or max_elevations < 0:
        raise RangeError(f"max_elevations must be a nonnegative integer, got {max_elevations!r}")
    axes = [np.linspace(0.0, d.alpha, _POSITIVITY_DENSITY) for d in spec.directions]
    den = ref_lattice_values(spec.coords[-1], spec.directions, axes)
    if np.any(den <= 0.0):
        flat = int(np.argmin(den))
        where = np.unravel_index(flat, den.shape)
        at = tuple(float(axes[j][w]) for j, w in enumerate(where))
        raise NumericalError(f"denominator is not positive on the box (fails near u = {at})")

    orders = list(ref_check_orders(spec, orders))
    grid = ref_exact_surface(spec, orders)
    points = grid.points
    steps = 0
    while np.any(points[..., -1] <= WEIGHT_POSITIVITY) and steps < max_elevations:
        j = steps % spec.delta
        if 2 * (orders[j] + 1) > MAX_DEGREE:
            j = min(range(spec.delta), key=lambda d: orders[d])
            if 2 * (orders[j] + 1) > MAX_DEGREE:
                break
        space = spec.directions[j].space(orders[j])
        points = ref_elevate_along(points, space, j)
        orders[j] += 1
        steps += 1
    weights = points[..., -1]
    if np.any(weights <= WEIGHT_POSITIVITY):
        bad = np.argwhere(weights <= WEIGHT_POSITIVITY)
        raise NumericalError(
            f"weights not positive after {steps} elevation(s)",
            indices=[tuple(int(x) for x in idx) for idx in bad],
        )
    projected = points[..., :-1] / weights[..., None]
    return ControlGrid(tuple(orders), projected, weights)


def ref_surface_spec_evaluate(self, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (self.delta,):
        raise RangeError(f"expected {self.delta} parameters, got shape {u.shape}")
    out = np.zeros(self.channels)
    for ell, coord in enumerate(self.coords):
        for summand in coord.summands:
            prod = 1.0
            for j, factor in enumerate(summand.factors):
                prod *= factor.values(self.directions[j].kind, np.array([u[j]]))[0]
            out[ell] += prod
    return out


def ref_exact_curve(spec: CurveSpec, n=None, r=0):
    if n is None:
        n = min_order(spec)
    nu = min_order(spec)
    if n < nu:
        raise RangeError(f"order {n} below the curve's minimum order {nu}")
    space = spec.space(n)
    cols = [coordinate_ordinates(fn, space, r) for fn in spec.coords]
    return ControlCurve(space, np.column_stack(cols))


def ref_exact_surface(spec: SurfaceSpec, orders=None, r=None):
    orders = ref_check_orders(spec, orders)
    if r is None:
        r = (0,) * spec.delta
    r = tuple(int(x) for x in r)
    if len(r) != spec.delta or any(x < 0 for x in r):
        raise RangeError(f"derivative orders must be {spec.delta} nonnegative integers, got {r!r}")
    spaces = [d.space(n) for d, n in zip(spec.directions, orders)]
    dims = tuple(s.dimension for s in spaces)
    grid = np.zeros(dims + (spec.channels,))
    for ell, coord in enumerate(spec.coords):
        acc = np.zeros(dims)
        for summand in coord.summands:
            vecs = [
                coordinate_ordinates(factor, spaces[j], r[j])
                for j, factor in enumerate(summand.factors)
            ]
            acc += reduce(np.multiply.outer, vecs)
        grid[..., ell] = acc
    return ControlGrid(tuple(orders), grid)


def ref_curve_spec_evaluate(self, us) -> np.ndarray:
    us = np.atleast_1d(np.asarray(us, dtype=float))
    return np.column_stack([fn.values(self.kind, us) for fn in self.coords])


def ref_contract(mats, tensor: np.ndarray) -> np.ndarray:
    for j, mat in enumerate(mats):
        moved = np.moveaxis(tensor, j, 0) if j else tensor
        flat = mat @ moved.reshape(moved.shape[0], -1)
        flat = flat.reshape(mat.shape[:1] + moved.shape[1:])
        tensor = np.moveaxis(flat, 0, j) if j else flat
    return tensor


# ---------------------------------------------------------------------------
# Random inputs


def outcome(fn, *args):
    """Result bytes, or the error type, text and indices."""
    try:
        result = fn(*args)
    except (RangeError, NumericalError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "indices", None)
    return result


def same(a, b):
    if isinstance(a, tuple) and isinstance(a[0], str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_kind(rng):
    return TRIG if rng.random() < 0.5 else HYP


def random_alpha(rng, kind, n):
    top = 3.0 if kind is TRIG else min(3.0, 24.0 / n)
    return float(rng.uniform(0.3, top))


def random_weights(rng, shape):
    """Positive weights, or a few vanishing ones so that some denominators fail."""
    weights = rng.uniform(0.1, 2.0, shape)
    if rng.random() < 0.25:
        weights[rng.random(shape) < 0.8] = 0.0
        weights.flat[0] = 1.0
    return weights


def random_curve(seed):
    rng = np.random.default_rng(seed)
    kind = random_kind(rng)
    n = int(rng.integers(1, 17))
    space = BasisSpace(kind, n, random_alpha(rng, kind, n))
    points = rng.standard_normal((space.dimension, int(rng.integers(1, 4))))
    weights = random_weights(rng, space.dimension) if seed % 2 else None
    return ControlCurve(space, points, weights)


def random_grid(seed, delta):
    rng = np.random.default_rng(seed)
    top = {1: 17, 2: 9, 3: 5}[delta]
    orders = tuple(int(n) for n in rng.integers(1, top, delta))
    directions = []
    for n in orders:
        kind = random_kind(rng)
        directions.append(Direction(kind, random_alpha(rng, kind, n)))
    dims = tuple(2 * n + 1 for n in orders)
    points = rng.standard_normal(dims + (int(rng.integers(1, 4)),))
    weights = random_weights(rng, dims) if seed % 2 else None
    return ControlGrid(orders, points, weights), tuple(directions)


def random_factor(rng, kmax):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        family = COS if rng.random() < 0.5 else SIN
        terms.append(Term(family, int(rng.integers(0, kmax + 1)), float(rng.normal()),
                          float(rng.uniform(-1.0, 1.0))))
    return CoordinateFunction(tuple(terms))


def dip(kind, depth, at, floor):
    """``(f(u) - f(at))**2 + floor`` with ``f`` = cos or cosh: positive when
    ``floor > 0``, and close to zero near ``at`` when ``floor`` is small."""
    trig = kind is TRIG
    d = float(np.cos(at) if trig else np.cosh(at))
    return CoordinateFunction((
        Term(COS, 0, depth * (0.5 + d * d) + floor),
        Term(COS, 1, -2.0 * depth * d),
        Term(COS, 2, 0.5 * depth),
    ))


def random_denominator(rng, kind, alpha, floors=(-0.05, 1e-3, 0.05, 0.5)):
    floor = float(rng.choice(floors))
    return dip(kind, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, alpha)), floor)


def random_rational_spec(seed):
    rng = np.random.default_rng(seed)
    kind = random_kind(rng)
    alpha = random_alpha(rng, kind, 16)
    coords = [random_factor(rng, int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 4)))]
    coords.append(random_denominator(rng, kind, alpha))
    return CurveSpec(kind, alpha, tuple(coords))


def random_surface_spec(seed, delta, rational):
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(delta):
        kind = random_kind(rng)
        directions.append(Direction(kind, random_alpha(rng, kind, 8)))
    kappa = int(rng.integers(0, 2))

    def coordinate():
        summands = [
            ProductTerm(tuple(random_factor(rng, 3) for _ in range(delta)))
            for _ in range(int(rng.integers(1, 3)))
        ]
        return SurfaceCoordinateFunction(tuple(summands))

    coords = [coordinate() for _ in range(delta + kappa)]
    if rational:
        factors = tuple(
            random_denominator(rng, d.kind, d.alpha, (-0.05, 0.02, 0.1, 0.3, 1.0))
            for d in directions
        )
        coords.append(SurfaceCoordinateFunction((ProductTerm(factors),)))
    return SurfaceSpec(tuple(directions), kappa, tuple(coords))


def random_params(rng, alpha, count):
    return np.concatenate([[0.0, alpha], np.linspace(0.0, alpha, count), rng.uniform(0.0, alpha, 7)])


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("seed", range(120))
def test_evaluate_matches(seed):
    curve = random_curve(seed)
    rng = np.random.default_rng(seed + 1000)
    us = random_params(rng, curve.space.alpha, 33)
    assert same(outcome(evaluate, curve, us), outcome(ref_evaluate, curve, us))
    u = float(us[-1])
    assert same(outcome(evaluate, curve, u), outcome(ref_evaluate, curve, u))
    bad = [0.5 * curve.space.alpha, curve.space.alpha + 1.0]
    assert same(outcome(evaluate, curve, bad), outcome(ref_evaluate, curve, bad))


@pytest.mark.parametrize("delta", [1, 2, 3])
@pytest.mark.parametrize("seed", range(30))
def test_sample_lattice_matches(seed, delta):
    grid, directions = random_grid(seed, delta)
    counts = np.random.default_rng(seed).integers(2, {1: 40, 2: 12, 3: 6}[delta], delta)
    assert same(
        outcome(sample_lattice, grid, directions, counts),
        outcome(ref_sample_lattice, grid, directions, counts),
    )


def _plain_floats(text):
    return re.sub(r"np\.float64\(([^)]*)\)", r"\1", text)


@pytest.mark.parametrize("delta", [1, 2, 3])
@pytest.mark.parametrize("seed", range(30))
def test_evaluate_surface_matches(seed, delta):
    grid, directions = random_grid(seed, delta)
    rng = np.random.default_rng(seed + 2000)
    for u in [[d.alpha for d in directions], [rng.uniform(0.0, d.alpha) for d in directions]]:
        got = outcome(evaluate_surface, grid, directions, u)
        want = outcome(ref_evaluate_surface, grid, directions, u)
        if isinstance(want, tuple):
            assert got == (want[0], _plain_floats(want[1]), want[2])
        else:
            scale = np.max(np.abs(grid.points)) * 1e-13
            np.testing.assert_allclose(got, want, rtol=0.0, atol=scale)


@pytest.mark.parametrize("seed", range(60))
def test_rational_curve_loop_matches(seed):
    spec = random_rational_spec(seed)
    budget = int(np.random.default_rng(seed).choice([0, 2, 32]))
    got = outcome(exact_rational_curve, spec, None, budget)
    want = outcome(ref_exact_rational_curve, spec, None, budget)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    pre, curve, steps = want
    assert (got.elevations, got.order) == (steps, curve.space.n)
    assert got.preimage.points.tobytes() == pre.points.tobytes()
    assert got.curve.points.tobytes() == curve.points.tobytes()
    assert got.weights.tobytes() == curve.weights.tobytes()


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("seed", range(40))
def test_rational_surface_loop_matches(seed, delta):
    spec = random_surface_spec(seed, delta, rational=True)
    budget = int(np.random.default_rng(seed).choice([2, 32, 32]))
    got = outcome(exact_rational_surface, spec, None, budget)
    want = outcome(ref_exact_rational_surface, spec, None, budget)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.orders == want.orders
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def test_loops_exhaust_their_budget():
    """The random cases above include refusals of both kinds of loop."""
    curves = [outcome(exact_rational_curve, random_rational_spec(s), None, 2) for s in range(60)]
    patches = [
        outcome(exact_rational_surface, random_surface_spec(s, 2, True), None, 2)
        for s in range(40)
    ]
    for found in (curves, patches):
        texts = [r[1] for r in found if isinstance(r, tuple) and isinstance(r[0], str)]
        assert any(t.startswith("weights not positive") for t in texts)
        assert any(t.startswith("denominator is not positive") for t in texts)


@pytest.mark.parametrize("seed", [9, 14])
def test_rational_surface_cap_fallback_matches(seed):
    """Direction 0 starts at the cap, so direction 1, the lowest order, takes every step."""
    spec = random_surface_spec(seed, 2, rational=True)
    got = exact_rational_surface(spec, (32, 3))
    want = ref_exact_rational_surface(spec, (32, 3))
    assert got.orders == want.orders == (32, 13)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


# The largest budget an int64 holds: the loops must stop without arithmetic on it.
_HUGE_BUDGET = np.int64(2**63 - 1)


@pytest.mark.parametrize("seed,steps", [(4, 2), (5, None)])
def test_rational_curve_loop_huge_budget(seed, steps):
    """Seed 4 needs two steps; seed 5 is refused at the order cap."""
    spec = random_rational_spec(seed)
    got = outcome(exact_rational_curve, spec, None, _HUGE_BUDGET)
    want = outcome(ref_exact_rational_curve, spec, None, _HUGE_BUDGET)
    if steps is None:
        assert got == want and want[1] == "weights not positive after 30 elevation(s)"
        return
    pre, curve, count = want
    assert got.elevations == count == steps
    assert got.preimage.points.tobytes() == pre.points.tobytes()
    assert got.curve.points.tobytes() == curve.points.tobytes()
    assert got.weights.tobytes() == curve.weights.tobytes()


@pytest.mark.parametrize("seed,orders", [(9, (32, 13)), (7, None)])
def test_rational_surface_loop_huge_budget(seed, orders):
    """Seed 9 reaches positive weights at (32, 13); seed 7 is refused at the cap."""
    spec = random_surface_spec(seed, 2, rational=True)
    got = outcome(exact_rational_surface, spec, (32, 3), _HUGE_BUDGET)
    want = outcome(ref_exact_rational_surface, spec, (32, 3), _HUGE_BUDGET)
    if orders is None:
        assert got == want and want[1] == "weights not positive after 29 elevation(s)"
        return
    assert got.orders == want.orders == orders
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("delta", [2, 3, 4])
@pytest.mark.parametrize("seed", range(30))
def test_surface_spec_evaluate_matches(seed, delta):
    spec = random_surface_spec(seed, delta, rational=bool(seed % 2))
    rng = np.random.default_rng(seed + 3000)
    for u in [[d.alpha for d in spec.directions], [rng.uniform(0.0, d.alpha) for d in spec.directions]]:
        assert same(outcome(spec.evaluate, u), outcome(ref_surface_spec_evaluate, spec, u))
    bad = [0.0] * (delta + 1)
    assert same(outcome(spec.evaluate, bad), outcome(ref_surface_spec_evaluate, spec, bad))


def net_bytes(fn, *args):
    """Shape and bytes of a described net, or the error type, text and indices."""
    got = outcome(fn, *args)
    if isinstance(got, tuple):
        return got
    return got.points.shape, got.points.tobytes()


def requested(rng, orders):
    """The minimum (None), the given orders, or one order lowered by one."""
    pick = rng.random()
    if pick < 0.2:
        return None
    if pick < 0.35:
        lowered = list(orders)
        lowered[int(rng.integers(len(orders)))] -= 1
        return tuple(lowered)
    return tuple(orders)


def random_exact_curve_case(seed):
    """A curve spec, a requested order and a derivative order.

    Frequencies reach up to an order n of 1 to 32; odd seeds add a trailing
    denominator coordinate.
    """
    rng = np.random.default_rng(seed)
    kind = random_kind(rng)
    n = int(rng.integers(1, 33))
    alpha = random_alpha(rng, kind, n)
    coords = [random_factor(rng, n) for _ in range(int(rng.integers(1, 4)))]
    if seed % 2:
        coords.append(random_denominator(rng, kind, alpha))
    order = requested(rng, (n,))
    r = int(rng.choice([0, 1, 2, 3, 0, -1]))
    return CurveSpec(kind, alpha, tuple(coords)), order and order[0], r


def random_exact_surface_case(seed, delta):
    """A patch spec, requested orders and derivative orders.

    Orders run up to 32 for two directions and less for more; odd seeds add
    a trailing denominator coordinate.
    """
    rng = np.random.default_rng(seed)
    top = {2: 33, 3: 7, 4: 4}[delta]
    orders = [int(n) for n in rng.integers(1, top, delta)]
    directions = []
    for n in orders:
        kind = random_kind(rng)
        directions.append(Direction(kind, random_alpha(rng, kind, n)))
    kappa = int(rng.integers(0, 2))

    def coordinate():
        summands = [
            ProductTerm(tuple(random_factor(rng, n) for n in orders))
            for _ in range(int(rng.integers(1, 3)))
        ]
        return SurfaceCoordinateFunction(tuple(summands))

    coords = [coordinate() for _ in range(delta + kappa)]
    if seed % 2:
        factors = tuple(random_denominator(rng, d.kind, d.alpha) for d in directions)
        coords.append(SurfaceCoordinateFunction((ProductTerm(factors),)))
    spec = SurfaceSpec(tuple(directions), kappa, tuple(coords))
    r = [int(x) for x in rng.integers(0, 4, delta)]
    if rng.random() < 0.15:
        r[int(rng.integers(delta))] = -1
    return spec, requested(rng, orders), None if rng.random() < 0.2 else tuple(r)


@pytest.mark.parametrize("seed", range(120))
def test_exact_curve_matches(seed):
    spec, n, r = random_exact_curve_case(seed)
    assert net_bytes(exact_curve, spec, n, r) == net_bytes(ref_exact_curve, spec, n, r)


@pytest.mark.parametrize("delta", [2, 3, 4])
@pytest.mark.parametrize("seed", range(40))
def test_exact_surface_matches(seed, delta):
    spec, orders, r = random_exact_surface_case(seed, delta)
    got = net_bytes(exact_surface, spec, orders, r)
    assert got == net_bytes(ref_exact_surface, spec, orders, r)


def test_exact_cases_include_refusals():
    """The random cases above reach both order and derivative refusals."""
    curves = [net_bytes(exact_curve, *random_exact_curve_case(s)) for s in range(120)]
    patches = [
        net_bytes(exact_surface, *random_exact_surface_case(s, delta))
        for delta in (2, 3, 4)
        for s in range(40)
    ]
    for found in (curves, patches):
        texts = [r[1] for r in found if isinstance(r[0], str)]
        assert any("below" in t for t in texts)
        assert any(t.startswith("derivative order") for t in texts)
        assert len(texts) < len(found) // 2


@pytest.mark.parametrize("seed", range(60))
def test_curve_spec_evaluate_matches(seed):
    spec, _, _ = random_exact_curve_case(seed)
    rng = np.random.default_rng(seed + 4000)
    for us in (random_params(rng, spec.alpha, 33), float(rng.uniform(0.0, spec.alpha))):
        assert same(outcome(spec.evaluate, us), outcome(ref_curve_spec_evaluate, spec, us))


# Largest sample count per direction, by the number of directions: counts
# are drawn from 1 up to it, and a curve's first two cases take 1 and 400.
_CONTRACT_ROWS = {1: 400, 2: 400, 3: 40, 4: 12}


@pytest.mark.parametrize("channel", [False, True])
@pytest.mark.parametrize("delta", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(25))
def test_contract_matches(seed, delta, channel):
    rng = np.random.default_rng(7000 + 10 * seed + delta)
    top = _CONTRACT_ROWS[delta]
    for case in range(5):
        dims = tuple(2 * int(n) + 1 for n in rng.integers(1, 33 if delta < 3 else 9, delta))
        shape = dims + ((int(rng.integers(1, 5)),) if channel else ())
        tensor = rng.standard_normal(shape)
        rows = rng.integers(1, top + 1, delta)
        if delta == 1 and case < 2:
            rows[0] = (1, top)[case]
        mats = [rng.standard_normal((int(m), d)) for m, d in zip(rows, dims)]
        got = _contract(mats, tensor)
        assert same(got, ref_contract(mats, tensor)), (shape, tuple(rows))
