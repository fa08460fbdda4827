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

Caches: the alpha-free table ``C(n, i - r) C(i - r, r)`` is kept per order.
The coefficient sums, the normalizing coefficients and the transform rows
are kept per space ``(kind, n, alpha)`` a caller passes in, for the last 128
spaces; the elevation weights and the recursion's intermediate orders are
not kept.  Arrays are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _exports
from ._record import record
from .bbasis import (_ADDITION_SIGNS, _FUNCTIONS, _MEMO_SPACES, BasisKind, BasisSpace, _is_int,
                     _sums_by_order)
from .errors import RangeError

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
        self._check_frequency(k)
        if k == 0:
            return np.zeros(self.space.dimension)
        return self.rows[2 * k - 1]

    def cosine_row(self, k: int) -> np.ndarray:
        """Coefficients of cos(k u) (or cosh).  ``k = 0`` gives the ones row."""
        self._check_frequency(k)
        return self.rows[2 * k]

    def _check_frequency(self, k: int):
        if not _is_int(k):
            raise RangeError(f"frequency must be an integer, got {k!r}")
        if not 0 <= int(k) <= self.space.n:
            raise RangeError(f"frequency {k} outside 0..{self.space.n}")


def elevation_weights(space: BasisSpace) -> np.ndarray:
    """Convex weights of one order elevation step, shape ``(2n + 3, 3)``.

    ``W[r, j]`` multiplies old coefficient ``r - j``; entries with
    ``r - j`` outside ``0..2n`` are zero.  Every row sums to one, and rows
    0 and ``2n + 2`` reduce to a single weight of exactly 1, so elevation
    preserves the endpoint coefficients bit for bit.
    """
    high = BasisSpace(space.kind, space.n + 1, space.alpha)  # raises if order n + 1 is out of range
    return _step_weights(*_sums_by_order(high, (space.n, 1, space.n + 1)))


def _step_weights(low: np.ndarray, one: np.ndarray, high: np.ndarray) -> np.ndarray:
    """:func:`elevation_weights` from the coefficient sums of orders n, 1 and n + 1."""
    size = low.shape[0]
    weights = np.zeros((size + 2, 3))
    for j in range(3):
        weights[j : j + size, j] = low * one[j] / high[j : j + size]
    weights.flags.writeable = False
    return weights


def _raise_order(coeffs: np.ndarray, factor: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Shifted three-term combination shared by elevation and the recursion.

    With ``factor = (1, 1, 1)`` this is plain order elevation; with the
    order-one row of a canonical function it realizes multiplication by that
    function, because the product of two B-basis functions is again a scaled
    B-basis function of the combined order.  ``factor`` may also have shape
    ``(3, k)`` for ``k`` columns of coefficients, one factor row per column.
    """
    m = coeffs.shape[0]
    out = np.zeros((m + 2,) + coeffs.shape[1:])
    for j in range(3):
        w = weights[j : j + m, j].reshape((m,) + (1,) * (coeffs.ndim - 1)) * factor[j]
        out[j : j + m] += w * coeffs
    return out


def elevate_coefficient_vector(space: BasisSpace, coeffs) -> np.ndarray:
    """Coefficients of the same function one order higher.

    ``coeffs`` may be a vector of length ``2n + 1`` or a stack of columns of
    that length (control points elevate columnwise).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != space.dimension:
        raise RangeError(f"expected {space.dimension} coefficients, got {coeffs.shape[0]}")
    return _raise_order(coeffs, np.ones(3), elevation_weights(space))


def _order_one_rows(kind: BasisKind, alpha: float) -> np.ndarray:
    s, c, t = _FUNCTIONS[kind, math]
    return np.array([[1.0, 1.0, 1.0], [0.0, t(0.5 * alpha), s(alpha)], [1.0, 1.0, c(alpha)]])


@lru_cache(maxsize=_MEMO_SPACES)
def _transform_rows(space: BasisSpace) -> np.ndarray:
    sign = _ADDITION_SIGNS[space.kind]
    base = _order_one_rows(space.kind, space.alpha)
    # Factor rows of the four products sin(mu) cos(u), cos(mu) sin(u),
    # cos(mu) cos(u), sin(mu) sin(u), one column each.
    product_factors = base[[2, 1, 2, 1]].T
    # Column r holds the coefficients of canonical function r.
    cols = base.T
    sums = _sums_by_order(space, range(1, space.n + 1))
    for m in range(1, space.n):
        weights = _step_weights(sums[m - 1], sums[0], sums[m])
        # One three-term pass raises the known functions 1..2m (factor one)
        # and forms the four products of the angle addition identities.
        products = cols[:, [2 * m - 1, 2 * m, 2 * m, 2 * m - 1]]
        coeffs = np.concatenate([cols[:, 1:], products], axis=1)
        factor = np.concatenate([np.ones((3, 2 * m)), product_factors], axis=1)
        raised = _raise_order(coeffs, factor, weights)
        grown = np.empty((2 * m + 3, 2 * m + 3))
        grown[:, 0] = 1.0
        grown[:, 1 : 2 * m + 1] = raised[:, : 2 * m]
        grown[:, 2 * m + 1] = raised[:, 2 * m] + raised[:, 2 * m + 1]
        grown[:, 2 * m + 2] = raised[:, 2 * m + 2] + sign * raised[:, 2 * m + 3]
        cols = grown
    rows = np.array(cols.T)
    rows.flags.writeable = False
    return rows


def transform_matrix(space: BasisSpace) -> TransformMatrix:
    """The memoized canonical-to-B-basis matrix of the space."""
    return TransformMatrix(space, _transform_rows(space))
