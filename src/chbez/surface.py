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
"""

from __future__ import annotations

import numpy as np

from . import _exports
from ._record import record
from .bbasis import BasisKind, BasisSpace, _is_count, basis_matrix
from .curve import ControlCurve, _checked_net, _combine, evaluate
from .errors import NumericalError, RangeError
from .exact import (DEFAULT_MAX_ELEVATIONS, CoordinateFunction, _describe, _integers, _lattice,
                    min_orders)

__all__ = _exports(__name__)

MAX_DIRECTIONS = 4


@record
class Direction:
    """Kind and shape parameter of one parametric direction."""

    kind: BasisKind
    alpha: float

    @staticmethod
    def _convert(kind, alpha):
        alpha = float(alpha)
        BasisSpace(kind, 1, alpha)
        return kind, alpha

    def space(self, n: int) -> BasisSpace:
        return BasisSpace(self.kind, n, self.alpha)


@record
class ProductTerm:
    """One separable summand: the product of one factor per direction."""

    factors: tuple[CoordinateFunction, ...]

    @staticmethod
    def _convert(factors):
        return (tuple(factors),)


@record
class SurfaceCoordinateFunction:
    """A coordinate of the patch: a sum of separable products."""

    summands: tuple[ProductTerm, ...]

    @staticmethod
    def _convert(summands):
        summands = tuple(summands)
        if len(summands) == 0:
            raise RangeError("surface coordinate needs at least one summand")
        return (summands,)


@record
class SurfaceSpec:
    """Directions plus coordinate functions of a patch in traditional form.

    ``coords`` has ``delta + kappa`` entries, or one more when the patch is
    rational (the trailing denominator).
    """

    directions: tuple[Direction, ...]
    kappa: int
    coords: tuple[SurfaceCoordinateFunction, ...]

    @staticmethod
    def _convert(directions, kappa, coords):
        directions, coords = tuple(directions), tuple(coords)
        delta = len(directions)
        if not 2 <= delta <= MAX_DIRECTIONS:
            raise RangeError(f"number of directions must be 2..{MAX_DIRECTIONS}, got {delta}")
        if not _is_count(kappa):
            raise RangeError(f"kappa must be a nonnegative integer, got {kappa!r}")
        kappa = int(kappa)
        expected = delta + kappa
        if len(coords) not in (expected, expected + 1):
            raise RangeError(
                f"expected {expected} coordinates ({expected + 1} if rational), got {len(coords)}"
            )
        for ell, coord in enumerate(coords):
            for zeta, summand in enumerate(coord.summands):
                if len(summand.factors) != delta:
                    raise RangeError(
                        f"coords[{ell}].summands[{zeta}] has {len(summand.factors)} "
                        f"factors, expected {delta}"
                    )
        return directions, kappa, coords

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

    def _net(self, orders, points, weights=None) -> ControlGrid:
        return ControlGrid(orders, points, weights)

    def evaluate(self, u) -> np.ndarray:
        """Direct evaluation of the traditional form at one parameter vector."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.delta,):
            raise RangeError(f"expected {self.delta} parameters, got shape {u.shape}")
        axes = [u[j : j + 1] for j in range(self.delta)]
        return _lattice(self._products, self.directions, axes)[(0,) * self.delta]


@record
class ControlGrid:
    """Control net of a patch: per-direction orders, points, optional weights.

    ``points`` has shape ``(2 n_1 + 1, ..., 2 n_delta + 1, channels)``;
    ``weights`` (rational case) drops the channel axis.
    """

    orders: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray | None = None

    @staticmethod
    def _convert(orders, points, weights):
        orders = tuple(int(n) for n in orders)
        pts = np.asarray(points, dtype=float)
        dims = tuple(2 * n + 1 for n in orders)
        if pts.shape[:-1] != dims:
            raise RangeError(f"points shape {pts.shape} does not match orders {orders}")
        shape_error = f"weights shape {{}} does not match orders {orders}"
        return orders, *_checked_net(pts, weights, dims, shape_error)

    @property
    def channels(self) -> int:
        return self.points.shape[-1]


def exact_surface(spec: SurfaceSpec, orders=None, r=None) -> ControlGrid:
    """Exact control grid of the patch (or of a mixed partial derivative).

    ``r`` lists one derivative order per direction and defaults to all
    zeros.  Every coordinate channel of ``spec`` is described, so the same
    routine serves rational pre-images.
    """
    return _describe(spec, orders, r)[0]


def exact_rational_surface(
    spec: SurfaceSpec,
    orders=None,
    max_elevations: int = DEFAULT_MAX_ELEVATIONS,
) -> ControlGrid:
    """Rational description of a patch whose last coordinate is the denominator.

    The denominator must be positive on the whole parameter box (sampled on
    a lattice of 33 points per direction, endpoints included; see
    ``exact._DENOMINATOR_SAMPLES``).  Directions are elevated round
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
    return _describe(spec, orders, None, True, max_elevations)[0]


def _spaces_for(grid: ControlGrid, directions) -> list[BasisSpace]:
    directions = tuple(directions)
    if len(directions) != len(grid.orders):
        raise RangeError(f"expected {len(grid.orders)} directions, got {len(directions)}")
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

    ``counts`` follows the rule of the orders (a sequence of integers, one
    per direction), and each count is at least 2.  Returns an array of shape
    ``counts + (channels,)``; much faster than looping
    :func:`evaluate_surface` because each direction is contracted with a
    whole basis matrix at once.
    """
    spaces = _spaces_for(grid, directions)
    counts = _integers(counts, len(spaces), "sample counts", "sample count")
    if any(c < 2 for c in counts):
        raise RangeError(f"need at least 2 samples per direction, got {counts!r}")
    mats = [
        basis_matrix(s, np.linspace(0.0, s.alpha, c)) for s, c in zip(spaces, counts)
    ]
    return _combine(mats, grid.points, grid.weights, lambda bad: NumericalError(
        "rational denominator vanishes on the sample lattice"
    ))


def _sampled(net, spec, count: int):
    """Uniform axes, ``count`` samples per direction, and the net's values on their lattice.

    ``net`` is a control curve or grid of ``spec``.
    """
    directions = spec._directions
    axes = [np.linspace(0.0, d.alpha, count) for d in directions]
    if isinstance(net, ControlCurve):
        return axes, evaluate(net, axes[0])
    return axes, sample_lattice(net, directions, (count,) * len(axes))
