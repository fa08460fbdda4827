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

Caches: the alpha-free integer table of the coefficient sums
``C(n, i - r) C(i - r, r)`` is kept once per order ``n``.  Everything that
depends on alpha is kept per space ``(kind, n, alpha)``: the coefficient
sums, the normalizing coefficients, the elevation weights and the transform
rows.  The returned arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bbasis import BasisKind, BasisSpace, _coefficient_sums
from .errors import RangeError

__all__ = [
    "TransformMatrix",
    "elevation_weights",
    "elevate_coefficient_vector",
    "transform_matrix",
]


@dataclass(frozen=True)
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
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise RangeError(f"frequency must be an integer, got {k!r}")
        if not 0 <= int(k) <= self.space.n:
            raise RangeError(f"frequency {k} outside 0..{self.space.n}")


@cache
def elevation_weights(space: BasisSpace) -> np.ndarray:
    """Convex weights of one order elevation step, shape ``(2n + 3, 3)``.

    ``W[r, j]`` multiplies old coefficient ``r - j``; entries with
    ``r - j`` outside ``0..2n`` are zero.  Every row sums to one, and rows
    0 and ``2n + 2`` reduce to a single weight of exactly 1, so elevation
    preserves the endpoint coefficients bit for bit.
    """
    n = space.n
    low = _coefficient_sums(space)
    one = _coefficient_sums(BasisSpace(space.kind, 1, space.alpha))
    high = _coefficient_sums(BasisSpace(space.kind, n + 1, space.alpha))
    weights = np.zeros((2 * n + 3, 3))
    for j in range(3):
        weights[j : j + 2 * n + 1, j] = low * one[j] / high[j : j + 2 * n + 1]
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
        raise RangeError(
            f"expected {space.dimension} coefficients, got {coeffs.shape[0]}"
        )
    return _raise_order(coeffs, np.ones(3), elevation_weights(space))


def _order_one_rows(kind: BasisKind, alpha: float) -> np.ndarray:
    if kind is BasisKind.TRIGONOMETRIC:
        sine = [0.0, math.tan(0.5 * alpha), math.sin(alpha)]
        cosine = [1.0, 1.0, math.cos(alpha)]
    else:
        sine = [0.0, math.tanh(0.5 * alpha), math.sinh(alpha)]
        cosine = [1.0, 1.0, math.cosh(alpha)]
    return np.array([[1.0, 1.0, 1.0], sine, cosine])


@cache
def _transform_rows(space: BasisSpace) -> np.ndarray:
    sign = -1.0 if space.kind is BasisKind.TRIGONOMETRIC else 1.0
    base = _order_one_rows(space.kind, space.alpha)
    # Factor rows of the four products sin(mu) cos(u), cos(mu) sin(u),
    # cos(mu) cos(u), sin(mu) sin(u), one column each.
    product_factors = base[[2, 1, 2, 1]].T
    # Column r holds the coefficients of canonical function r.
    cols = base.T
    for m in range(1, space.n):
        weights = elevation_weights(BasisSpace(space.kind, m, space.alpha))
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
