"""Control point curves over a B-basis and their classical algorithms.

A :class:`ControlCurve` pairs a :class:`~chbez.bbasis.BasisSpace` with a
polygon of control points and optional rational weights.  Evaluation runs
through the contraction shared with tensor product patches
(:mod:`chbez.surface`): a curve is the one-direction case, one basis matrix
applied to the leading axis of the control tensor.  Besides evaluation, the
module provides the reparametrization onto ``[0, 1]`` that
turns every such curve into a rational Bezier curve, corner cutting
subdivision at an arbitrary interior parameter, and order elevation.

Every Bezier piece is one homogeneous net ``(w p, w)``, the weights
``w`` being the Bezier weights (times the curve's rational weights): one
de Casteljau pyramid on that net splits a curve, its two edges are the
pieces, and one Bernstein product evaluates a piece; each projects back
by dividing by its weight channel only at the end.

The subdivision pieces are kept in rational Bezier form (points, weights and
the covered subinterval); re-expressing them over the B-basis of the
subinterval is possible but changes the weights by a geometric factor, see
:func:`piece_matches_subspace_weights`.
"""

from __future__ import annotations

import math

import numpy as np

from . import _exports
from ._record import record
from .bbasis import (_FUNCTIONS, _PARAM_SLACK, BasisSpace, _bernstein_table, _binomials,
                     _clamp_param, _is_count, _normalizing_values, basis_matrix)
from .errors import NumericalError, RangeError
from .xform import _elevated

__all__ = _exports(__name__)

# Rational denominators and weights at or below this floor are degenerate.
_WEIGHT_FLOOR = 1e-14


def _below_floor(values: np.ndarray, weights: np.ndarray, floor: float = _WEIGHT_FLOOR):
    """Mask of ``values`` at or below ``floor`` times ``min(1, max |weights|)``.

    Weights matter only up to a common scale (hyperbolic Bezier weights shrink
    like exp(-n * alpha) as a whole), so tiny weights lower the floor; a wide
    spread does not raise it, as over a nonnegative partition of unity a
    denominator is at least the smallest weight.
    """
    return values <= floor * min(1.0, abs(weights).max())


def _checked_net(points: np.ndarray, weights, dims: tuple, shape_error: str) -> tuple:
    """Read-only copies of a control net's points and weights (None stays None), once checked.

    Weights whose shape is not ``dims`` raise ``shape_error.format(shape)``.
    """
    if not np.all(np.isfinite(points)):
        raise RangeError("control points must be finite")
    points = points.copy()
    points.flags.writeable = False
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != dims:
            raise RangeError(shape_error.format(w.shape))
        lo, hi = w.min(), w.max()  # a NaN propagates into both and fails every comparison
        if not (lo >= 0.0 and 0.0 < hi < np.inf):
            raise RangeError("weights must be finite, nonnegative and not all zero")
        weights = w.copy()
        weights.flags.writeable = False
    return points, weights


def _folded(points: np.ndarray, weights) -> np.ndarray:
    """The pre-image ``(w p, w)`` of a rational net, weights as a last channel; else ``points``."""
    if weights is None:
        return points
    w = weights[..., None]
    return np.concatenate([w * points, w], axis=-1)


def _projected(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pre-image's numerator channels divided by its weights (last channel), and the weights.

    An overflow gives ``inf`` without a warning; the rational descriptions report it.
    """
    with np.errstate(over="ignore"):
        return points[..., :-1] / points[..., -1:], points[..., -1]


def _contract(mats, tensor: np.ndarray) -> np.ndarray:
    """Replace axis ``j`` of a control tensor by its samples ``mats[j] @``.

    Trailing axes (coordinates) ride along; every direction is one ``np.tensordot``.
    """
    for j, mat in enumerate(mats):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, j)), 0, j)
    return tensor


def _combine(mats, points: np.ndarray, weights, vanishing) -> np.ndarray:
    """Values of a control net on the samples of ``mats`` (see :func:`_contract`).

    Rational when ``weights`` is given; where the denominator falls to the
    floor, the error ``vanishing(mask of failing samples)`` is raised.
    """
    if weights is None:
        return _contract(mats, points)
    den = _contract(mats, weights)
    bad = _below_floor(np.abs(den), weights)
    if bad.any():
        raise vanishing(bad)
    return _contract(mats, weights[..., None] * points) / den[..., None]


@record
class ControlCurve:
    """A curve ``sum_i d_i b_i(u)`` (or its rational counterpart).

    ``points`` has shape ``(2n + 1, delta)``; a flat vector is accepted and
    treated as ``delta = 1``.  ``weights``, when given, are the rational
    weights; they must be nonnegative with at least one positive entry.
    """

    space: BasisSpace
    points: np.ndarray
    weights: np.ndarray | None = None

    @staticmethod
    def _convert(space, points, weights):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise RangeError(f"points must be a 2-d array, got shape {pts.shape}")
        size = space.dimension
        if pts.shape[0] != size:
            raise RangeError(f"expected {size} control points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise RangeError("control points need at least one coordinate")
        shape_error = f"expected {size} weights, got shape {{}}"
        return space, *_checked_net(pts, weights, (size,), shape_error)

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
    values = _combine([basis], curve.points, curve.weights, lambda bad: NumericalError(
        f"rational denominator vanishes near u = {us[np.argmax(bad)]:g}"
    ))
    return values[0] if scalar else values


def reparametrize(space: BasisSpace, u: float) -> float:
    """Map ``u`` in ``[0, alpha]`` to the Bezier parameter ``v`` in ``[0, 1]``.

    The map is strictly increasing with ``v(0) = 0``, ``v(alpha) = 1`` and
    ``v(alpha / 2) = 1/2``; composed with it, the B-basis functions become
    rational Bernstein weight functions.
    """
    return _bezier_parameter(space, [_clamp_param(space, u)])[0]


def _bezier_parameter(space: BasisSpace, us) -> list[float]:
    """:func:`reparametrize` of clamped floats ``us``, one at a time in float arithmetic.

    The tan or tanh is ``math``'s, so a value has the same bits alone and in
    a batch, on every CPU.
    """
    t = _FUNCTIONS[space.kind, math][2]
    quarter = 0.25 * space.alpha
    scale = 2.0 * t(quarter)
    return [0.5 + t(0.5 * u - quarter) / scale for u in us]


def bezier_weights(space: BasisSpace) -> np.ndarray:
    """Weights that make the reparametrized curve a rational Bezier curve.

    Entry ``i`` is the normalizing coefficient divided by ``C(2n, i)``.  The
    vector is symmetric, and scaled by ``s(alpha/2)**2n`` it tends to all
    ones as ``alpha -> 0`` (the polynomial Bezier limit).
    """
    return _normalizing_values(space) / _binomials(space.degree)


@record
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
        outside = ~((us >= lo - _PARAM_SLACK) & (us <= hi + _PARAM_SLACK))
        off_parent = ~((us >= -_PARAM_SLACK) & (us <= space.alpha + _PARAM_SLACK))
        v = np.array(_bezier_parameter(space, np.clip(us, 0.0, space.alpha).tolist()))
        bern = _bernstein_table(self.points.shape[0] - 1, (v - v_lo) / (v_hi - v_lo))
        values = bern @ _folded(self.points, self.weights)
        den = np.abs(values[:, -1])
        vanishing = _below_floor(den, self.weights)
        if vanishing.any():  # keep a cancellation, not positive weights however widely spread
            vanishing &= den <= _WEIGHT_FLOOR * (bern @ np.abs(self.weights))
        # Report the first parameter that fails a check, and for it the first
        # check it fails: piece interval, parent interval, denominator.
        failed = outside | off_parent | vanishing
        if failed.any():
            k = np.argmax(failed)
            ui = us[k]
            if outside[k]:
                raise RangeError(
                    f"parameter u = {float(ui)!r} outside the piece interval [{lo:g}, {hi:g}]"
                )
            if off_parent[k]:
                _clamp_param(space, ui)
            raise NumericalError(f"piece denominator vanishes near u = {ui:g}")
        out = _projected(values)[0]
        return out[0] if scalar else out


@record
class SubdivisionResult:
    """The two pieces of a split and the Bezier parameter of the split point."""

    left: BezierPiece
    right: BezierPiece
    split_ratio: float


def _split_point(space: BasisSpace, u0: float) -> float:
    """``u0`` as a float, or a range error unless it lies strictly inside ``(0, alpha)``."""
    u0 = float(u0)
    if not 0.0 < u0 < space.alpha:
        raise RangeError(
            f"split parameter u0 = {u0!r} must lie strictly inside (0, {space.alpha:g})"
        )
    return u0


def subdivide(curve: ControlCurve, u0: float) -> SubdivisionResult:
    """Split the curve at interior parameter ``u0`` by corner cutting.

    One de Casteljau pyramid runs at the fixed ratio ``v = reparametrize(space,
    u0)`` on the homogeneous net ``(w p, w)``, where ``w`` is the Bezier weights
    times the curve's weights (if any); its first edge is the left piece and its
    last edge, reversed, the right one.  The Bezier weights ride along as one
    more channel, so each weight entry can be judged against the Bezier weights
    it combines: their ratio is a mean of the curve's weights.  An entry at the
    floor both on the scale of ``w`` and in that ratio, on any level, is
    refused before anything is divided by it; positive Bezier weights however
    widely spread never are.  The piece weights keep the scale of ``w``.
    """
    space = curve.space
    u0 = _split_point(space, u0)
    v = reparametrize(space, u0)
    bezier = bezier_weights(space)
    w = bezier if curve.weights is None else bezier * curve.weights
    levels = [np.concatenate([_folded(curve.points, w), bezier[:, None]], axis=1)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append((1.0 - v) * level[:-1] + v * level[1:])
    # All levels stacked: level k starts at row k (d + 1) - k (k - 1) / 2.
    pyramid, k = np.concatenate(levels), np.arange(len(levels))
    first = k * len(levels) - k * (k - 1) // 2
    weights, combined = pyramid[:, -2], pyramid[:, -1]
    at_floor = _below_floor(weights, w)
    scale = 1.0 if curve.weights is None else min(1.0, curve.weights.max())
    if at_floor.any() and np.any(weights[at_floor] <= _WEIGHT_FLOOR * scale * combined[at_floor]):
        raise NumericalError(f"degenerate weight pyramid while splitting at u0 = {u0:g}")
    pieces = [BezierPiece(space, *_projected(pyramid[edge, :-1]), interval)
              for edge, interval in ((first, (0.0, u0)), (first[::-1] + k, (u0, space.alpha)))]
    return SubdivisionResult(*pieces, v)


def elevate(curve: ControlCurve, z: int = 1) -> ControlCurve:
    """The same curve expressed over the basis of order ``n + z``.

    Rational curves are elevated through their pre-image: weights are folded
    into an extra coordinate, the polygon is elevated, and the result is
    projected back.  Elevation preserves the curve exactly; the polygon
    itself moves toward the curve as ``z`` grows.
    """
    if not _is_count(z):
        raise RangeError(f"elevation count must be a nonnegative integer, got {z!r}")
    z = int(z)
    if z == 0:
        return curve
    lifted, pts = _elevated(curve.space, _folded(curve.points, curve.weights), z)
    if curve.weights is None:
        return ControlCurve(lifted, pts)
    if np.any(_below_floor(pts[:, -1], pts[:, -1])):
        raise NumericalError("degenerate weight after elevation")
    return ControlCurve(lifted, *_projected(pts))


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
