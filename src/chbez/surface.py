"""Tensor product surfaces and volumes with exact control grids.

Coordinates of a multivariate patch are sums of separable products: each
summand multiplies one univariate traditional-form factor per parametric
direction.  Directions are independent; each carries its own kind
(trigonometric or hyperbolic) and shape parameter, so hybrid patches mix
both function families.  The control grid of such a patch is assembled from
outer products of the univariate ordinate vectors of the factors, one
tensor per summand.

``delta`` denotes the number of parametric directions (2 for surfaces, 3
for volumes; up to 4 is supported) and ``kappa`` how many coordinates the
ambient space has beyond ``delta``.  Rational patches carry one more
coordinate, the denominator.  The repair loop that elevates the pre-image
grid until its weights are positive runs round robin over the directions;
unlike the curve case it is not guaranteed to succeed, so it runs under an
explicit budget and reports the offending grid indices when it gives up.

A curve is the one-direction case: the control tensor builder, the lattice
evaluator and the repair loop of :mod:`chbez.exact` and the basis contraction
of :mod:`chbez.curve` serve both, and the dispatch over "curve or patch,
rational or not" for the CLI and the gallery ends this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bbasis import BasisKind, BasisSpace, basis_matrix
from .curve import ControlCurve, _combine, _store_net, evaluate
from .errors import NumericalError, RangeError
from .exact import (
    DEFAULT_MAX_ELEVATIONS,
    CoordinateFunction,
    CurveSpec,
    _check_denominator,
    _elevate_until_positive,
    _is_count,
    _lattice,
    _ordinates,
    exact_curve,
    exact_rational_curve,
)

__all__ = [
    "MAX_DIRECTIONS",
    "Direction",
    "ProductTerm",
    "SurfaceCoordinateFunction",
    "SurfaceSpec",
    "ControlGrid",
    "min_orders",
    "exact_surface",
    "exact_rational_surface",
    "evaluate_surface",
    "sample_lattice",
]

MAX_DIRECTIONS = 4

# Denominator positivity is checked on a lattice of this density per direction.
_POSITIVITY_DENSITY = 33


@dataclass(frozen=True)
class Direction:
    """Kind and shape parameter of one parametric direction."""

    kind: BasisKind
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        BasisSpace(self.kind, 1, self.alpha)

    def space(self, n: int) -> BasisSpace:
        return BasisSpace(self.kind, n, self.alpha)


@dataclass(frozen=True)
class ProductTerm:
    """One separable summand: the product of one factor per direction."""

    factors: tuple[CoordinateFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class SurfaceCoordinateFunction:
    """A coordinate of the patch: a sum of separable products."""

    summands: tuple[ProductTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if len(self.summands) == 0:
            raise RangeError("surface coordinate needs at least one summand")


@dataclass(frozen=True)
class SurfaceSpec:
    """Directions plus coordinate functions of a patch in traditional form.

    ``coords`` has ``delta + kappa`` entries, or one more when the patch is
    rational (the trailing denominator).
    """

    directions: tuple[Direction, ...]
    kappa: int
    coords: tuple[SurfaceCoordinateFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "coords", tuple(self.coords))
        delta = len(self.directions)
        if not 2 <= delta <= MAX_DIRECTIONS:
            raise RangeError(f"number of directions must be 2..{MAX_DIRECTIONS}, got {delta}")
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa < 0:
            raise RangeError(f"kappa must be a nonnegative integer, got {self.kappa!r}")
        object.__setattr__(self, "kappa", int(self.kappa))
        expected = delta + self.kappa
        if len(self.coords) not in (expected, expected + 1):
            raise RangeError(
                f"expected {expected} coordinates ({expected + 1} if rational), "
                f"got {len(self.coords)}"
            )
        for ell, coord in enumerate(self.coords):
            for zeta, summand in enumerate(coord.summands):
                if len(summand.factors) != delta:
                    raise RangeError(
                        f"coords[{ell}].summands[{zeta}] has {len(summand.factors)} "
                        f"factors, expected {delta}"
                    )

    @property
    def delta(self) -> int:
        return len(self.directions)

    @property
    def is_rational(self) -> bool:
        return len(self.coords) == self.delta + self.kappa + 1

    @property
    def channels(self) -> int:
        return len(self.coords)

    @property
    def _directions(self) -> tuple[Direction, ...]:
        return self.directions

    @property
    def _products(self) -> tuple:
        return tuple(tuple(s.factors for s in c.summands) for c in self.coords)

    def evaluate(self, u) -> np.ndarray:
        """Direct evaluation of the traditional form at one parameter vector."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.delta,):
            raise RangeError(f"expected {self.delta} parameters, got shape {u.shape}")
        axes = [u[j : j + 1] for j in range(self.delta)]
        return _lattice(self._products, self.directions, axes)[(0,) * self.delta]


@dataclass(frozen=True)
class ControlGrid:
    """Control net of a patch: per-direction orders, points, optional weights.

    ``points`` has shape ``(2 n_1 + 1, ..., 2 n_delta + 1, channels)``;
    ``weights`` (rational case) drops the channel axis.
    """

    orders: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        pts = np.asarray(self.points, dtype=float)
        dims = tuple(2 * n + 1 for n in self.orders)
        if pts.shape[:-1] != dims:
            raise RangeError(f"points shape {pts.shape} does not match orders {self.orders}")
        _store_net(self, pts, dims, f"weights shape {{}} does not match orders {self.orders}")

    @property
    def channels(self) -> int:
        return self.points.shape[-1]


def min_orders(spec: SurfaceSpec) -> tuple[int, ...]:
    """Per-direction minimum orders (the largest factor frequency, at least 1)."""
    directions = zip(*(factors for channel in spec._products for factors in channel))
    return tuple(max(1, *(f.max_frequency() for f in fs)) for fs in directions)


def _check_orders(spec: SurfaceSpec, orders) -> tuple[int, ...]:
    if orders is None:
        return min_orders(spec)
    for n in orders:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise RangeError(f"order n must be an integer, got {n!r}")
    orders = tuple(int(n) for n in orders)
    if len(orders) != spec.delta:
        raise RangeError(f"expected {spec.delta} orders, got {len(orders)}")
    minimum = min_orders(spec)
    for j, (n, nu) in enumerate(zip(orders, minimum)):
        if n < nu:
            raise RangeError(f"order {n} in direction {j} below the minimum {nu}")
    return orders


def exact_surface(spec: SurfaceSpec, orders=None, r=None) -> ControlGrid:
    """Exact control grid of the patch (or of a mixed partial derivative).

    ``r`` lists one derivative order per direction and defaults to all
    zeros.  Every coordinate channel of ``spec`` is described, so the same
    routine serves rational pre-images.
    """
    orders = _check_orders(spec, orders)
    r = (0,) * spec.delta if r is None else tuple(r)
    if len(r) != spec.delta or not all(_is_count(x) for x in r):
        raise RangeError(f"derivative orders must be {spec.delta} nonnegative integers, got {r!r}")
    spaces = [d.space(n) for d, n in zip(spec.directions, orders)]
    return ControlGrid(orders, _ordinates(spec._products, spaces, r))


def exact_rational_surface(
    spec: SurfaceSpec,
    orders=None,
    max_elevations: int = DEFAULT_MAX_ELEVATIONS,
) -> ControlGrid:
    """Rational description of a patch whose last coordinate is the denominator.

    The denominator must be positive on the whole parameter box (checked on
    a dense lattice, endpoints included).  Directions are elevated round
    robin while some weight fails to be positive; there is no termination
    guarantee in the tensor product case, so the loop stops after
    ``max_elevations`` single-direction steps and reports the offending
    multi-indices.
    """
    if not spec.is_rational:
        raise RangeError(
            "rational description expects delta + kappa + 1 coordinates "
            "(the trailing denominator)"
        )
    _check_denominator(spec, _POSITIVITY_DENSITY, max_elevations)

    orders = _check_orders(spec, orders)
    grid = exact_surface(spec, orders)
    points, orders, _ = _elevate_until_positive(
        grid.points, orders, spec.directions, max_elevations
    )
    weights = points[..., -1]
    return ControlGrid(tuple(orders), points[..., :-1] / weights[..., None], weights)


def _spaces_for(grid: ControlGrid, directions) -> list[BasisSpace]:
    directions = tuple(directions)
    if len(directions) != len(grid.orders):
        raise RangeError(
            f"expected {len(grid.orders)} directions, got {len(directions)}"
        )
    return [d.space(n) for d, n in zip(directions, grid.orders)]


def evaluate_surface(grid: ControlGrid, directions, u) -> np.ndarray:
    """Patch point at one parameter vector ``u``."""
    spaces = _spaces_for(grid, directions)
    u = np.asarray(u, dtype=float)
    if u.shape != (len(spaces),):
        raise RangeError(f"expected {len(spaces)} parameters, got shape {u.shape}")
    mats = [basis_matrix(s, u[j : j + 1]) for j, s in enumerate(spaces)]
    values = _combine(mats, grid.points, grid.weights, lambda bad: NumericalError(
        f"rational denominator vanishes at u = {tuple(float(ui) for ui in u)}"
    ))
    return values[(0,) * len(spaces)]


def sample_lattice(grid: ControlGrid, directions, counts) -> np.ndarray:
    """Evaluate the patch on a uniform lattice, ``counts`` samples per direction.

    Returns an array of shape ``counts + (channels,)``; much faster than
    looping :func:`evaluate_surface` because each direction is contracted
    with a whole basis matrix at once.
    """
    spaces = _spaces_for(grid, directions)
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(spaces) or any(c < 2 for c in counts):
        raise RangeError(f"need at least 2 samples per direction, got {counts!r}")
    mats = [
        basis_matrix(s, np.linspace(0.0, s.alpha, c)) for s, c in zip(spaces, counts)
    ]
    return _combine(mats, grid.points, grid.weights, lambda bad: NumericalError(
        "rational denominator vanishes on the sample lattice"
    ))


def _described_net(spec, rational, orders=None, r=None, max_elevations=DEFAULT_MAX_ELEVATIONS):
    """Control curve or grid of a curve or patch spec, rational or not.

    ``orders`` is one order (curve) or a tuple (patch), ``r`` one derivative
    order per direction, for plain specs only; None means the minimum or none.
    """
    if isinstance(spec, CurveSpec):
        if rational:
            return exact_rational_curve(spec, orders, max_elevations).curve
        return exact_curve(spec, orders, r[0] if r else 0)
    if rational:
        return exact_rational_surface(spec, orders, max_elevations)
    return exact_surface(spec, orders, r)


def _sampled(net, spec, count: int):
    """Uniform axes, ``count`` samples per direction, and the net's values on their lattice.

    ``net`` is a control curve or grid of ``spec``.
    """
    directions = spec._directions
    axes = [np.linspace(0.0, d.alpha, count) for d in directions]
    if isinstance(net, ControlCurve):
        return axes, evaluate(net, axes[0])
    return axes, sample_lattice(net, directions, (count,) * len(axes))
