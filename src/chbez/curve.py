"""Control point curves over a B-basis and their classical algorithms.

A :class:`ControlCurve` pairs a :class:`~chbez.bbasis.BasisSpace` with a
polygon of control points and optional rational weights.  Besides plain
evaluation, the module provides the reparametrization onto ``[0, 1]`` that
turns every such curve into a rational Bezier curve, corner cutting
subdivision at an arbitrary interior parameter, and order elevation.

The subdivision pieces are kept in rational Bezier form (points, weights and
the covered subinterval); re-expressing them over the B-basis of the
subinterval is possible but changes the weights by a geometric factor, see
:func:`piece_matches_subspace_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bbasis import (
    _PARAM_SLACK,
    BasisKind,
    BasisSpace,
    _clamp_param,
    _normalizing_values,
    basis_matrix,
)
from .errors import NumericalError, RangeError
from .xform import elevate_coefficient_vector

__all__ = [
    "ControlCurve",
    "BezierPiece",
    "SubdivisionResult",
    "evaluate",
    "reparametrize",
    "bezier_weights",
    "subdivide",
    "elevate",
    "piece_matches_subspace_weights",
]

# A rational combination whose denominator falls to this level is treated as
# degenerate rather than divided through.  Subdivision and piece evaluation
# scale it by the largest weight: hyperbolic Bezier weights shrink like
# exp(-n * alpha) as a whole, which says nothing about degeneracy.
_WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class ControlCurve:
    """A curve ``sum_i d_i b_i(u)`` (or its rational counterpart).

    ``points`` has shape ``(2n + 1, delta)``; a flat vector is accepted and
    treated as ``delta = 1``.  ``weights``, when given, are the rational
    weights; they must be nonnegative with at least one positive entry.
    """

    space: BasisSpace
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise RangeError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] != self.space.dimension:
            raise RangeError(
                f"expected {self.space.dimension} control points, got {pts.shape[0]}"
            )
        if pts.shape[1] < 1:
            raise RangeError("control points need at least one coordinate")
        if not np.all(np.isfinite(pts)):
            raise RangeError("control points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.space.dimension,):
                raise RangeError(
                    f"expected {self.space.dimension} weights, got shape {w.shape}"
                )
            if not np.all(np.isfinite(w)) or np.any(w < 0.0) or not np.any(w > 0.0):
                raise RangeError(
                    "weights must be finite, nonnegative and not all zero"
                )
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def is_rational(self) -> bool:
        return self.weights is not None


def evaluate(curve: ControlCurve, u):
    """Curve point at ``u``; a 1-d batch of parameters gives a point per row."""
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


def reparametrize(space: BasisSpace, u: float) -> float:
    """Map ``u`` in ``[0, alpha]`` to the Bezier parameter ``v`` in ``[0, 1]``.

    The map is strictly increasing with ``v(0) = 0``, ``v(alpha) = 1`` and
    ``v(alpha / 2) = 1/2``; composed with it, the B-basis functions become
    rational Bernstein weight functions.
    """
    u = _clamp_param(space, u)
    quarter = 0.25 * space.alpha
    if space.kind is BasisKind.TRIGONOMETRIC:
        return 0.5 + math.tan(0.5 * u - quarter) / (2.0 * math.tan(quarter))
    return 0.5 + math.tanh(0.5 * u - quarter) / (2.0 * math.tanh(quarter))


def _reparametrize_params(space: BasisSpace, us: np.ndarray) -> np.ndarray:
    """:func:`reparametrize` on clamped parameters ``us``, elementwise."""
    quarter = 0.25 * space.alpha
    if space.kind is BasisKind.TRIGONOMETRIC:
        return 0.5 + np.tan(0.5 * us - quarter) / (2.0 * math.tan(quarter))
    return 0.5 + np.tanh(0.5 * us - quarter) / (2.0 * math.tanh(quarter))


def bezier_weights(space: BasisSpace) -> np.ndarray:
    """Weights that make the reparametrized curve a rational Bezier curve.

    Entry ``i`` is the normalizing coefficient divided by ``C(2n, i)``.  The
    vector is symmetric, and scaled by ``s(alpha/2)**2n`` it tends to all
    ones as ``alpha -> 0`` (the polynomial Bezier limit).
    """
    return _normalizing_values(space) / _binomials(space.degree)


@cache
def _binomials(degree: int) -> np.ndarray:
    binom = np.array([math.comb(degree, i) for i in range(degree + 1)], dtype=float)
    binom.flags.writeable = False
    return binom


@dataclass(frozen=True)
class BezierPiece:
    """One half of a subdivision in rational Bezier form.

    The piece covers ``u_interval`` of the parent curve; ``evaluate`` maps a
    parent parameter inside that interval through the parent's Bezier
    reparametrization before running the rational Bernstein combination.
    """

    parent_space: BasisSpace
    points: np.ndarray
    weights: np.ndarray
    u_interval: tuple[float, float]

    def evaluate(self, u):
        lo, hi = self.u_interval
        space = self.parent_space
        v_lo = reparametrize(space, lo)
        v_hi = reparametrize(space, hi)
        if not v_hi > v_lo:
            raise RangeError(f"piece interval [{lo:g}, {hi:g}] is empty")
        scalar = np.ndim(u) == 0
        us = np.atleast_1d(np.asarray(u, dtype=float))
        degree = self.points.shape[0] - 1
        outside = ~((us >= lo - 1e-12) & (us <= hi + 1e-12))
        off_parent = ~((us >= -_PARAM_SLACK) & (us <= space.alpha + _PARAM_SLACK))
        s = (_reparametrize_params(space, np.clip(us, 0.0, space.alpha)) - v_lo) / (v_hi - v_lo)
        s = np.clip(s, 0.0, 1.0)[:, None]
        powers = np.arange(degree + 1)
        bern = _binomials(degree) * s**powers * (1.0 - s) ** (degree - powers)
        denom = bern @ self.weights
        vanishing = np.abs(denom) <= _WEIGHT_FLOOR * np.max(np.abs(self.weights))
        # Report the first parameter that fails a check, and for it the first
        # check it fails: piece interval, parent interval, denominator.
        failed = outside | off_parent | vanishing
        if failed.any():
            k = np.argmax(failed)
            ui = us[k]
            if outside[k]:
                raise RangeError(
                    f"parameter u = {ui!r} outside the piece interval [{lo:g}, {hi:g}]"
                )
            if off_parent[k]:
                _clamp_param(space, ui)
            raise NumericalError(f"piece denominator vanishes near u = {ui:g}")
        out = (bern * self.weights) @ self.points / denom[:, None]
        return out[0] if scalar else out


@dataclass(frozen=True)
class SubdivisionResult:
    left: BezierPiece
    right: BezierPiece
    split_ratio: float


def _weight_pyramid(weights: np.ndarray, v: float) -> list[np.ndarray]:
    levels = [weights]
    for _ in range(weights.shape[0] - 1):
        prev = levels[-1]
        levels.append((1.0 - v) * prev[:-1] + v * prev[1:])
    return levels


def subdivide(curve: ControlCurve, u0: float) -> SubdivisionResult:
    """Split the curve at interior parameter ``u0`` by corner cutting.

    The recursion runs at the fixed ratio ``v = reparametrize(space, u0)``
    on the Bezier weights; the two pyramid edges give the left and right
    piece.  Rational curves are folded into their pre-image first so a
    single pyramid serves both cases.
    """
    space = curve.space
    u0 = float(u0)
    if not 0.0 < u0 < space.alpha:
        raise RangeError(
            f"split parameter u0 = {u0!r} must lie strictly inside (0, {space.alpha:g})"
        )
    v = reparametrize(space, u0)
    bez = bezier_weights(space)
    w_levels = _weight_pyramid(bez, v)
    if curve.weights is None:
        pts = curve.points
        effective = w_levels
    else:
        pts = np.hstack([curve.weights[:, None] * curve.points, curve.weights[:, None]])
        effective = _weight_pyramid(bez * curve.weights, v)

    floor = _WEIGHT_FLOOR * np.max(np.abs(effective[0]))
    if np.any(np.abs(np.concatenate(effective)) <= floor):
        raise NumericalError(f"degenerate weight pyramid while splitting at u0 = {u0:g}")

    p_levels = [pts]
    for r in range(1, space.dimension):
        wp, w = p_levels[-1], w_levels[r - 1]
        nw = w_levels[r]
        blended = (1.0 - v) * (w[:-1, None] * wp[:-1]) + v * (w[1:, None] * wp[1:])
        p_levels.append(blended / nw[:, None])

    left_pts = np.array([lev[0] for lev in p_levels])
    left_w = np.array([lev[0] for lev in w_levels])
    right_pts = np.array([lev[-1] for lev in p_levels])[::-1]
    right_w = np.array([lev[-1] for lev in w_levels])[::-1]

    if curve.weights is not None:
        left_w = left_w * left_pts[:, -1]
        right_w = right_w * right_pts[:, -1]
        left_pts = left_pts[:, :-1] / left_pts[:, -1][:, None]
        right_pts = right_pts[:, :-1] / right_pts[:, -1][:, None]

    left = BezierPiece(space, left_pts, left_w, (0.0, u0))
    right = BezierPiece(space, right_pts, right_w, (u0, space.alpha))
    return SubdivisionResult(left, right, v)


def elevate(curve: ControlCurve, z: int = 1) -> ControlCurve:
    """The same curve expressed over the basis of order ``n + z``.

    Rational curves are elevated through their pre-image: weights are folded
    into an extra coordinate, the polygon is elevated, and the result is
    projected back.  Elevation preserves the curve exactly; the polygon
    itself moves toward the curve as ``z`` grows.
    """
    if not isinstance(z, (int, np.integer)) or isinstance(z, bool) or z < 0:
        raise RangeError(f"elevation count must be a nonnegative integer, got {z!r}")
    z = int(z)
    if z == 0:
        return curve
    space = curve.space
    if curve.weights is None:
        pts = curve.points
    else:
        pts = np.hstack([curve.weights[:, None] * curve.points, curve.weights[:, None]])
    for step in range(z):
        pts = elevate_coefficient_vector(BasisSpace(space.kind, space.n + step, space.alpha), pts)
    lifted = BasisSpace(space.kind, space.n + z, space.alpha)
    if curve.weights is None:
        return ControlCurve(lifted, pts)
    w = pts[:, -1]
    if np.any(w <= _WEIGHT_FLOOR):
        raise NumericalError("degenerate weight after elevation")
    return ControlCurve(lifted, pts[:, :-1] / w[:, None], w)


def piece_matches_subspace_weights(piece: BezierPiece, rtol: float = 1e-9) -> bool:
    """Check the documented link between a piece and the subinterval basis.

    The piece's weights agree with the Bezier weights of the B-basis over
    its own subinterval up to a common scale and a geometric factor
    ``gamma**i`` (the two parametrizations differ by a Moebius map fixing 0
    and 1, which rescales rational Bezier weights exactly that way).
    """
    lo, hi = piece.u_interval
    sub = BasisSpace(piece.parent_space.kind, piece.parent_space.n, hi - lo)
    ref = bezier_weights(sub)
    ratio = piece.weights / ref
    if np.any(ratio <= 0.0):
        return False
    gamma = ratio[1] / ratio[0]
    expected = ratio[0] * gamma ** np.arange(ratio.shape[0])
    return bool(np.allclose(ratio, expected, rtol=rtol, atol=0.0))
