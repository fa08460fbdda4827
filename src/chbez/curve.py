"""Control point curves over a B-basis and their classical algorithms.

A :class:`ControlCurve` pairs a :class:`~chbez.bbasis.BasisSpace` with a
polygon of control points and optional rational weights.  Evaluation runs
through the contraction shared with tensor product patches
(:mod:`chbez.surface`): a curve is the one-direction case, one basis matrix
applied to the leading axis of the control tensor by one ``np.dot``.
Besides evaluation, the module provides the reparametrization onto
``[0, 1]`` that turns every such curve into a rational Bezier curve, corner
cutting subdivision at an arbitrary interior parameter, and order elevation.

The Bezier map is stated once, by the two half-angle sines whose powers
make the basis rows: ``v(u) = s(u/2) / (s(u/2) + s((alpha - u)/2))``, ``s``
sin or sinh.  One de Casteljau pyramid with the shares ``1 - v`` and ``v``,
each its own quotient of the sines, splits a curve; the shares and their
refusals are ``bbasis._shares``, which the CLI's split calls too.  The
pyramid runs on the
homogeneous net ``(c p, c)``, ``c_i`` the coefficient sum of the curve's
space over ``C(2n, i)`` (times the curve's rational weight); its two edges,
projected back, are the pieces.  A piece is kept in rational Bezier form:
points ``p_i``, weights ``w_i`` and the covered subinterval ``[lo, hi]``.
The normalized B-bases are translation invariant, so the piece is also the
curve of the same order over ``BasisSpace(kind, n, hi - lo)`` at ``u - lo``,
with the same points and the rational weights

    omega_i = w_i gamma**i C(2n, i) / S_i,
    gamma = (s((alpha - hi) / 2) + s(hi / 2)) / (s((alpha - lo) / 2) + s(lo / 2)),

``S_i`` the coefficient sums of the subinterval's space, and ``gamma`` a
quotient of sums of the same sines: the two Bezier parametrizations differ
by a Moebius map fixing 0 and 1, which rescales rational Bezier weights by
``gamma**i`` (Sanchez-Reyes, CAGD 15, 1998).  A piece is evaluated that
way, by the one rational combination that curves and patches use.

A rational denominator is degenerate where it is at most 1e-14 times the
same combination of the absolute weights.  For nonnegative weights, those
of every control curve and grid, that is a zero denominator only, however
small or widely spread the weights are; elevation and subdivision divide
only by nonnegative combinations, so they refuse a weight only when it is
not positive.
"""

from __future__ import annotations

from . import _exports, _lazy
from ._record import record
from .bbasis import (_PARAM_SLACK, BasisSpace, _binomials, _clamp_param, _coefficient_sums,
                     _count, _half_sines, _normalizing_values, _shares, _split_point,
                     basis_matrix)
from .errors import NumericalError, RangeError
from .xform import _elevated

np = _lazy.Numpy(globals())

__all__ = _exports(__name__)

# A rational denominator at or below this share of the combined absolute weights vanishes.
_CANCELLATION = 1e-14


def _checked_net(points: np.ndarray, weights, dims: tuple, shape_error: str) -> tuple:
    """Read-only copies of a control net's points and weights (None stays None), once checked.

    Weights whose shape is not ``dims`` raise ``shape_error.format(shape)``.
    """
    if not np.isfinite(points).all():
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

    An overflow gives ``inf``, and ``inf / inf`` nan, without a warning; the callers report it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return points[..., :-1] / points[..., -1:], points[..., -1]


def _contract(mats, tensor: np.ndarray) -> np.ndarray:
    """Replace axis ``j`` of a control tensor by its samples ``mats[j] @``.

    Trailing axes (coordinates) ride along.  Every direction is one ``np.dot``
    of the matrix and the tensor's 2-d view with axis ``j`` moved first, the
    call ``np.tensordot`` makes; axis 0 needs no moves.
    """
    for j, mat in enumerate(mats):
        moved = np.moveaxis(tensor, j, 0) if j else tensor
        out = np.dot(mat, moved.reshape(len(moved), -1)).reshape(len(mat), *moved.shape[1:])
        tensor = np.moveaxis(out, 0, j) if j else out
    return tensor


def _combine(mats, points: np.ndarray, weights, vanishing) -> np.ndarray:
    """Values of a control net on the samples of ``mats`` (see :func:`_contract`).

    Rational when ``weights`` is given.  Where the denominator is at most
    ``_CANCELLATION`` times the combination of ``|weights|``, the error
    ``vanishing(mask of failing samples)`` is raised.  That combination is
    formed only where ``|den|`` is below the bound it cannot exceed,
    ``_CANCELLATION * max |weights|``.
    """
    if weights is None:
        return _contract(mats, points)
    den = _contract(mats, weights)
    bad = np.abs(den) <= _CANCELLATION * abs(weights).max()
    if bad.any():
        bad &= np.abs(den) <= _CANCELLATION * _contract(mats, np.abs(weights))
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

    ``v = s(u/2) / (s(u/2) + s((alpha - u)/2))``, a quotient of nonnegative
    terms that nothing cancels.  The map is strictly increasing with
    ``v(0) = 0``, ``v(alpha) = 1`` and ``v(alpha / 2) = 1/2``; composed with
    it, the B-basis functions become rational Bernstein weight functions.
    """
    b, a = _half_sines(space, _clamp_param(space, u))
    return a / (a + b)


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

    The piece covers ``u_interval`` of the parent curve.  ``evaluate`` takes
    a parent parameter inside that interval and evaluates the piece as the
    rational curve over the B-basis of the interval (module docstring).
    """

    parent_space: BasisSpace
    points: np.ndarray
    weights: np.ndarray
    u_interval: tuple[float, float]

    def evaluate(self, u):
        lo, sub, omega = _restricted(self)
        a, b = self.u_interval
        space = self.parent_space
        scalar = np.ndim(u) == 0
        us = np.atleast_1d(np.asarray(u, dtype=float))
        # Report the first parameter that fails a check, and for it the first
        # check it fails: piece interval, parent interval, denominator.  The
        # parameters before the first interval failure are evaluated, so a
        # vanishing denominator among them is reported first.  Both intervals
        # with their slack meet in [low, high] (rounding is monotone), and the
        # mask is built only when the extremes (NaN if any is) leave it.
        low, high = max(a, 0.0) - _PARAM_SLACK, min(b, space.alpha) + _PARAM_SLACK
        k = len(us)
        if k and not (us.min() >= low and us.max() <= high):
            k = int(np.argmax(~((us >= low) & (us <= high))))
        table = basis_matrix(sub, (us[:k] - lo).clip(0.0, sub.alpha))
        out = _combine([table], self.points, omega, lambda bad: NumericalError(
            f"piece denominator vanishes near u = {us[np.argmax(bad)]:g}"
        ))
        if k < len(us):
            if not a - _PARAM_SLACK <= us[k] <= b + _PARAM_SLACK:
                raise RangeError(
                    f"parameter u = {float(us[k])!r} outside the piece interval [{a:g}, {b:g}]"
                )
            _clamp_param(space, us[k])  # raises: off the parent
        return out[0] if scalar else out


def _restricted(piece: BezierPiece) -> tuple[float, BasisSpace, np.ndarray]:
    """The piece as a rational curve over the B-basis of its interval (module docstring).

    Returns the interval's start ``lo``, the space ``BasisSpace(kind, n, hi -
    lo)`` and the weights ``omega`` that go with the piece's points.  The
    ends are clamped to the parent's interval, and an empty interval is refused.
    """
    space = piece.parent_space
    lo, hi = (_clamp_param(space, end) for end in piece.u_interval)
    if not hi > lo:
        a, b = piece.u_interval
        raise RangeError(f"piece interval [{a:g}, {b:g}] is empty")
    gamma = sum(_half_sines(space, hi)) / sum(_half_sines(space, lo))
    sub = BasisSpace(space.kind, space.n, hi - lo)
    powers = np.full(sub.dimension, gamma)
    powers[0] = 1.0
    factors = powers.cumprod() * _binomials(sub.degree) / _coefficient_sums(sub)
    return lo, sub, piece.weights * factors


@record
class SubdivisionResult:
    """The two pieces of a split and the Bezier parameter of the split point."""

    left: BezierPiece
    right: BezierPiece
    split_ratio: float


def subdivide(curve: ControlCurve, u0: float) -> SubdivisionResult:
    """Split the curve at interior parameter ``u0`` by corner cutting.

    One de Casteljau pyramid runs on the homogeneous net ``(c p, c)``, where
    ``c_i = S_i / C(2n, i)`` (the coefficient sums over the binomials, the
    Bezier weights times ``s(alpha/2)**2n``) times the curve's weights (if
    any).  Its shares ``1 - v`` and ``v``, ``v = reparametrize(space, u0)``,
    and their refusals, a share of 0 and a piece too short for the basis of
    its interval, are the split rule ``bbasis._shares``.  The first edge is
    the left piece and the last edge, reversed, the right one; a polynomial
    curve's outer piece weights are exactly 1.  A split is refused too where
    a piece weight is not positive and where a piece point or weight
    overflows double range.
    """
    space = curve.space
    u0 = _split_point(space, u0)
    stay, v = _shares(space, u0)
    c = _coefficient_sums(space) / _binomials(space.degree)
    # A net beyond double range leaves inf or nan in the pieces, refused below without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        net = _folded(curve.points, c if curve.weights is None else c * curve.weights)
        size = len(net)
        # Level k of the pyramid in the first size - k entries of row k; an edge is one
        # copying index.  A list of levels keeping the two edges was 1.03-1.18x slower
        # (2-vCPU x86-64 host, one CPU).
        pyramid = np.empty((size,) + net.shape)
        pyramid[0] = net
        for k in range(1, size):
            level, prev = pyramid[k, : size - k], pyramid[k - 1, : size - k + 1]
            np.add(np.multiply(stay, prev[:-1], out=level), v * prev[1:], out=level)
    rows = np.arange(size)
    edges = pyramid[[rows, rows[::-1]], [0 * rows, rows]]  # the left edge, then the right one
    if not (edges[..., -1] > 0.0).all():
        raise NumericalError(f"degenerate weight pyramid while splitting at u0 = {u0:g}")
    points, weights = _projected(edges)
    if not (np.isfinite(points).all() and np.isfinite(weights).all()):
        raise NumericalError(f"pieces overflow double precision while splitting at u0 = {u0:g}")
    left, right = (BezierPiece(space, p, w, interval)
                   for p, w, interval in zip(points, weights, ((0.0, u0), (u0, space.alpha))))
    return SubdivisionResult(left, right, v)


def elevate(curve: ControlCurve, z: int = 1) -> ControlCurve:
    """The same curve expressed over the basis of order ``n + z``.

    Rational curves are elevated through their pre-image: weights are folded
    into an extra coordinate, the polygon is elevated, and the result is
    projected back.  Elevation preserves the curve exactly; the polygon
    itself moves toward the curve as ``z`` grows.
    """
    z = _count(z, "elevation count")
    if z == 0:
        return curve
    lifted, pts = _elevated(curve.space, _folded(curve.points, curve.weights), z)
    if curve.weights is None:
        return ControlCurve(lifted, pts)
    if not (pts[:, -1] > 0.0).all():
        raise NumericalError("degenerate weight after elevation")
    return ControlCurve(lifted, *_projected(pts))


def piece_matches_subspace_weights(piece: BezierPiece, rtol: float = 1e-9) -> bool:
    """Check the documented link between a piece and the subinterval basis.

    A piece of a polynomial curve is a polynomial curve over the B-basis of
    its own subinterval: its weights are that basis's Bezier weights times
    ``gamma**-i`` up to a common scale, ``gamma`` the closed form of the
    module docstring.  Then the rational weights ``omega`` over that basis
    are positive and equal within ``rtol``.
    """
    omega = _restricted(piece)[2]
    return bool(np.all(omega > 0.0) and np.allclose(omega, omega[0], rtol=rtol, atol=0.0))
