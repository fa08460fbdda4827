"""Change of basis between canonical basis functions and the B-basis.

Two closely related tools live here:

* :func:`elevate_coefficient_vector` rewrites a function given by B-basis
  coefficients of order ``n`` in the basis of order ``n + 1``.  Each new
  coefficient is a convex combination of at most three old ones; the
  combination weights are ratios of normalizing coefficients.

* :func:`transform_matrix` expresses every canonical basis function
  (``1, sin(k u), cos(k u)`` resp. ``1, sinh(k u), cosh(k u)`` for
  ``k = 1..n``) in the B-basis.  The matrix is built by induction on the
  order: known rows are order elevated, and the two new frequency rows
  follow from the angle addition identities
  ``sin((m+1)u) = sin(mu) cos(u) + cos(mu) sin(u)`` and
  ``cos((m+1)u) = cos(mu) cos(u) - sin(mu) sin(u)``
  (for the hyperbolic kind the second identity carries ``+`` instead of
  ``-``; that sign is the only difference between the two kinds).

Both rest on one table of step weights (:func:`_step_table`): the weights of
every elevation step ``m -> m + 1`` over a range of orders, built from the
coefficient sums of those orders at once.  The recursion takes all its steps
from one table, as does an elevation by several orders, and
:func:`elevation_weights` lays out one step of it.  A step writes its terms
into a zero padded array and sums them in place: no per-step copies.

Every order change goes through one operator, :func:`_elevated`, which
raises the coefficients along any one axis of an array by z orders.  Its
three callers: :func:`elevate_coefficient_vector` (axis 0),
``curve.elevate`` (axis 0 of the folded pre-image) and the rational repair
loop ``exact._elevate_until_positive`` (one step along the axis of the
direction whose turn it is).

Caches: the alpha-free table ``C(n, i - r) C(i - r, r)`` is kept per order.
The coefficient sums (``bbasis``) and the transform rows are kept per space
``(kind, n, alpha)`` a caller passes in, for the last 128 spaces; the
normalizing coefficients and the step weight tables are built per call and
not kept.  Arrays are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _exports, _lazy
from ._record import record
from .bbasis import (_ADDITION_SIGNS, _FUNCTIONS, _MEMO_SPACES, BasisKind, BasisSpace, _index,
                     _sums_by_order)
from .errors import RangeError

np = _lazy.Numpy(globals())

__all__ = _exports(__name__)


@record
class TransformMatrix:
    """B-basis coefficients of the canonical functions of a space.

    ``rows`` has shape ``(2n + 1, 2n + 1)``.  Row 0 holds the constant
    function (exactly all ones); row ``2k - 1`` the sine-like and row ``2k``
    the cosine-like function of frequency ``k``.  Summing
    ``rows[r][i] * basis_value(space, i, u)`` over ``i`` reproduces the
    canonical function at ``u``.
    """

    space: BasisSpace
    rows: np.ndarray

    def sine_row(self, k: int) -> np.ndarray:
        """Coefficients of sin(k u) (or sinh).  ``k = 0`` gives zeros."""
        k = _index(k, "frequency", self.space.n)
        if k == 0:
            return np.zeros(self.space.dimension)
        return self.rows[2 * k - 1]

    def cosine_row(self, k: int) -> np.ndarray:
        """Coefficients of cos(k u) (or cosh).  ``k = 0`` gives the ones row."""
        k = _index(k, "frequency", self.space.n)
        return self.rows[2 * k]


def elevation_weights(space: BasisSpace) -> np.ndarray:
    """Convex weights of one order elevation step, shape ``(2n + 3, 3)``.

    ``W[r, j]`` multiplies old coefficient ``r - j``; entries with
    ``r - j`` outside ``0..2n`` are zero.  Every row sums to one, and rows
    0 and ``2n + 2`` reduce to a single weight of exactly 1, so elevation
    preserves the endpoint coefficients bit for bit.
    """
    high = BasisSpace(space.kind, space.n + 1, space.alpha)  # raises if order n + 1 is out of range
    steps = _step_table(high, space.n)[0]
    weights = np.zeros((2 * space.n + 3, 3))
    for j in range(3):
        weights[j : j + 2 * space.n + 1, j] = steps[j]
    weights.flags.writeable = False
    return weights


def _step_table(space: BasisSpace, low: int) -> np.ndarray:
    """Weights of the elevation steps ``m -> m + 1`` for ``m = low .. n - 1``.

    Shape ``(n - low, 3, 2n - 1)``: entry ``[m - low, j, r]`` is
    ``(S_m[r] * S_1[j]) / S_{m + 1}[r + j]``, the share of old coefficient
    ``r`` in new coefficient ``r + j``, with ``S_k`` the coefficient sums of
    order ``k`` at the kind and alpha of ``space``.  Entries past ``r = 2m``
    are padding.
    """
    sums = _sums_by_order(space, [1, *range(low, space.n + 1)])
    size = 2 * space.n - 1
    table = sums[1:-1, None, :size] * sums[0, :3, None]
    for j in range(3):
        table[:, j] /= sums[2:, j : j + size]
    return table


def _raise_order(weights: np.ndarray, coeffs: np.ndarray, out, factors=None) -> np.ndarray:
    """One elevation step of the rows of ``coeffs`` into the first rows of ``out``; returns ``out``.

    Each row of ``coeffs`` holds B-basis coefficients, and ``weights`` is one
    step of :func:`_step_table`: term ``j`` of coefficient ``r``,
    ``weights[j, r] * coeffs[:, r]``, goes to coefficient ``r + j``, the terms
    added onto zeros for j = 0, 1, 2 in turn.  If ``factors`` (shape
    ``(3, k, 1)``) is given, the last ``k`` rows take the terms
    ``(weights[j, r] * factors[j, i]) * coeffs[i, r]`` instead: with the
    order-one row of a canonical function as factor the step realizes
    multiplication by that function, because the product of two B-basis
    functions is again a scaled B-basis function of the combined order.  The
    terms are written into a zero padded array, so each sum is one pass.
    """
    rows, size = coeffs.shape
    terms = np.zeros((3, rows, size + 2))
    # A view of ``terms`` whose entry [j, :, r] is terms[j, :, r + j].
    step, *rest = terms.strides
    shifted = np.ndarray((3, rows, size), buffer=terms, strides=(step + 8, *rest))
    weights = weights[:, None, :size]
    np.multiply(weights, coeffs, out=shifted)
    if factors is not None:
        tail = -factors.shape[1]
        np.multiply(weights * factors, coeffs[tail:], out=shifted[:, tail:])
    head = out[:rows]
    np.add(terms[0], 0.0, out=head)  # 0.0 + t: a -0.0 term gives 0.0, as onto zeros
    head += terms[1]
    head += terms[2]
    return out


def _elevated(space: BasisSpace, coeffs: np.ndarray, z: int, axis: int = 0):
    """The space of order ``n + z`` and ``coeffs`` raised by z steps along ``axis``.

    The B-basis coefficients lie along ``axis`` of ``coeffs``; each step is
    one :func:`_raise_order` of every vector along it, so any axis gets the
    same multiplies and adds.  Raises for the first order out of range.
    """
    for order in range(space.n + 1, space.n + z + 1):
        top = BasisSpace(space.kind, order, space.alpha)
    moved = np.moveaxis(coeffs, axis, 0) if axis else coeffs
    rows = moved.reshape(len(moved), math.prod(moved.shape[1:])).T
    for weights in _step_table(top, space.n):
        rows = _raise_order(weights, rows, np.empty((rows.shape[0], rows.shape[1] + 2)))
    out = rows.T.reshape((rows.shape[1],) + moved.shape[1:])
    return top, np.moveaxis(out, 0, axis) if axis else out


def elevate_coefficient_vector(space: BasisSpace, coeffs) -> np.ndarray:
    """Coefficients of the same function one order higher.

    ``coeffs`` may be a vector of length ``2n + 1`` or a stack of columns of
    that length (control points elevate columnwise).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    got = coeffs.shape[0] if coeffs.ndim else "a scalar"
    if got != space.dimension:
        raise RangeError(f"expected {space.dimension} coefficients, got {got}")
    return _elevated(space, coeffs, 1)[1]


def _order_one_rows(kind: BasisKind, alpha: float) -> np.ndarray:
    s, c, t = _FUNCTIONS[kind]
    return np.array([[1.0, 1.0, 1.0], [0.0, t(0.5 * alpha), s(alpha)], [1.0, 1.0, c(alpha)]])


@lru_cache(maxsize=_MEMO_SPACES)
def _transform_rows(space: BasisSpace) -> np.ndarray:
    base = _order_one_rows(space.kind, space.alpha)
    # Row k of ``rows`` holds the coefficients of canonical function k + 1
    # (the constant is added at the end), followed by four product inputs
    # sin(mu), cos(mu), sin(mu), cos(mu).  Their factor rows are cos(u),
    # sin(u), sign sin(u), cos(u) (the known functions' factor is one), so the
    # pairs of products sum to sin((m+1)u) and cos((m+1)u).  The sign folded
    # into a factor gives the bits of negating the raised product: negation
    # commutes with rounding, and the one zero it may flip vanishes in the sum.
    rows = base[[1, 2, 1, 2, 1, 2]]
    factors = base[[2, 1, 1, 2]].T[..., None] * [[1.0], [1.0], [_ADDITION_SIGNS[space.kind]], [1.0]]
    for m, weights in enumerate(_step_table(space, 1), start=1):
        rows = _raise_order(weights, rows, np.empty((2 * m + 6, 2 * m + 3)), factors)
        # The last six rows as pairs: the two product sums, then their copies.
        pairs = rows[2 * m :].reshape(3, 2, 2 * m + 3)
        np.add(pairs[:2, 0], pairs[:2, 1], out=pairs[2])
        pairs[:2] = pairs[2]
    table = np.vstack([np.ones(space.dimension), rows[: space.degree]])
    table.flags.writeable = False
    return table


def transform_matrix(space: BasisSpace) -> TransformMatrix:
    """The memoized canonical-to-B-basis matrix of the space."""
    return TransformMatrix(space, _transform_rows(space))
