"""Normalized B-bases of trigonometric and hyperbolic polynomial spaces.

The trigonometric space of order ``n`` over ``[0, alpha]`` (``0 < alpha < pi``)
is spanned by ``{1, sin(u), cos(u), ..., sin(n u), cos(n u)}``; its hyperbolic
counterpart (``alpha > 0``) by ``{1, sinh(u), cosh(u), ..., sinh(n u),
cosh(n u)}``.  Both spaces admit a unique normalized B-basis of ``2n + 1``
functions that are nonnegative, sum to one and are symmetric about the
midpoint of the interval.  The i-th basis function is

    b_i(u) = c_i * s((alpha - u) / 2)**(2n - i) * s(u / 2)**i

where ``s`` is ``sin`` or ``sinh`` and ``c_i`` the normalizing coefficient
returned by :func:`normalizing_coefficients`.  In the limit ``alpha -> 0`` the
basis degenerates to the Bernstein polynomials of degree ``2n`` in the local
parameter ``u / alpha``.

:func:`basis_matrix` evaluates the basis in scaled factors.  With
``lam = s((alpha - u) / 2) / s(alpha / 2)`` and ``rho = s(u / 2) / s(alpha / 2)``,
both in [0, 1], and the coefficient sums ``S_i = c_i s(alpha / 2)**2n``
(:func:`_coefficient_sums`, ``S_0 = S_2n = 1``), entry i of a row is

    b_i(u) = S_i * (lam**(2n - i) * rho**i).

The divisor is the same numpy ``s`` of the same argument ``0.5 * alpha`` as
``lam`` at ``u = 0`` and ``rho`` at ``u = alpha``, so those factors are exactly
1 there and the endpoint rows are exactly ``[1, 0, ..., 0]`` and
``[0, ..., 0, 1]``.  The Bernstein table that rational Bezier pieces
evaluate is the same product with ``1 - v`` and ``v`` for the factors and
``C(d, i)`` for the sums.

Powers are products only, never a power routine whose last bit depends on
the CPU: a ladder with ``P[0] = 1``, ``P[1] = x`` and ``P[k] = P[h] * P[k - h]``,
``h`` the largest power of two below ``k``, so ``x**k`` is off by at most
``(k - 1)`` units of roundoff (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Lemma 3.1).  The ladder runs along the degree axis of a
``(d + 1, block)`` scratch whose rows are contiguous over the parameters;
the rungs ``h + 1 .. 2h`` take one numpy call, about log2(d) calls a block.
Besides the result a table holds one block of scratch, no full-size
temporary.  The scalar :func:`basis_value` is the one-row case of that
kernel and :func:`bernstein_value` the one-row case of the Bernstein table,
so a scalar equals its batch entry bit for bit.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from . import _exports
from ._record import record
from .errors import RangeError

__all__ = _exports(__name__) + ["NormalizingCoefficients"]  # not public at top level

# Largest supported basis degree 2n, and the order cap it sets.  Binomials are
# evaluated exactly with integer arithmetic, so the cap only bounds memory and run time.
_MAX_ORDER = 32
MAX_DEGREE = 2 * _MAX_ORDER

# Hyperbolic coefficients grow like exp(n * alpha); beyond this product the
# normalizing coefficients overflow double precision range.
_OVERFLOW_LIMIT = 300.0

# Parameter values may stick out of [0, alpha] by this much before they are
# rejected; within the slack they are clamped to the nearest endpoint.
_PARAM_SLACK = 1e-12

_MEMO_SPACES = 128  # per-space memos here and in ``xform`` keep the spaces used last

# Parameters per block of a basis or Bernstein table: the block of the largest
# table (order 32, 65 columns) and its scratch, two (65, 500) arrays of powers,
# stay within 800 kB of cache.  Not 512: with scratch rows 4,096 bytes apart the
# transposed write of a block took about 1.6 times as long.
_BLOCK_ROWS = 500


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (``int`` or a numpy integer); bools are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """Whether ``value`` is a nonnegative integer; bools are not."""
    return _is_int(value) and value >= 0


class BasisKind(Enum):
    """Selects the trigonometric or the hyperbolic function space."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


# Each kind's function family s, c, t: (sin, cos, tan) or (sinh, cosh, tanh),
# from ``math`` for floats and from numpy for arrays.  Arrays have no t: the
# Bezier parameter takes ``math``'s entry by entry (``curve._bezier_parameter``).
_FUNCTIONS = {
    (BasisKind.TRIGONOMETRIC, math): (math.sin, math.cos, math.tan),
    (BasisKind.TRIGONOMETRIC, np): (np.sin, np.cos),
    (BasisKind.HYPERBOLIC, math): (math.sinh, math.cosh, math.tanh),
    (BasisKind.HYPERBOLIC, np): (np.sinh, np.cosh),
}

# Each kind's sign in the addition identity c(a + b) = c(a) c(b) + sign s(a) s(b):
# cos carries -, cosh carries +.  Besides the function family, the two kinds'
# constructions differ in nothing else.
_ADDITION_SIGNS = {BasisKind.TRIGONOMETRIC: -1.0, BasisKind.HYPERBOLIC: 1.0}


@record
class BasisSpace:
    """A concrete space ``(kind, order n, shape parameter alpha)``.

    The basis has ``2n + 1`` functions over the interval ``[0, alpha]``.
    Instances are immutable and hashable; they key the internal caches.
    """

    kind: BasisKind
    n: int
    alpha: float

    @staticmethod
    def _convert(kind, n, alpha):
        if not isinstance(kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {kind!r}")
        if not _is_int(n):
            raise RangeError(f"order n must be an integer, got {n!r}")
        n = int(n)
        if n < 1:
            raise RangeError(f"order n must be >= 1, got {n}")
        if n > _MAX_ORDER:
            raise RangeError(f"degree 2n = {2 * n} exceeds the supported cap {MAX_DEGREE}")
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise RangeError(f"alpha must be positive and finite, got {alpha!r}")
        if kind is BasisKind.TRIGONOMETRIC and alpha >= math.pi:
            raise RangeError(f"trigonometric alpha must lie in (0, pi), got {alpha!r}")
        if kind is BasisKind.HYPERBOLIC and n * alpha > _OVERFLOW_LIMIT:
            raise RangeError(
                f"hyperbolic n*alpha = {n * alpha:g} exceeds the "
                f"overflow guard {_OVERFLOW_LIMIT:g}"
            )
        return kind, n, alpha

    @property
    def degree(self) -> int:
        return 2 * self.n

    @property
    def dimension(self) -> int:
        return 2 * self.n + 1


@record
class NormalizingCoefficients:
    """The ``2n + 1`` normalizing coefficients of a space's B-basis."""

    space: BasisSpace
    values: np.ndarray


def _half_functions(space: BasisSpace):
    """sin/sinh and cos/cosh of alpha / 2 for the space's kind."""
    s, c, _ = _FUNCTIONS[space.kind, math]
    half = 0.5 * space.alpha
    return s(half), c(half)


@cache
def _trinomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The alpha-free part of :func:`_coefficient_sums` for order ``n``.

    ``table[r, i]`` is ``C(n, i - r) C(i - r, r)`` as a float (exact, the
    products stay below 2**53) and ``exponents[r, i] = i - 2r`` the power of
    ``2c`` it multiplies.  Absent terms have a zero entry and exponent 0.
    """
    table = np.zeros((n + 1, 2 * n + 1))
    exponents = np.zeros((n + 1, 2 * n + 1), dtype=np.intp)
    for r in range(n + 1):
        for i in range(2 * r, n + r + 1):
            table[r, i] = math.comb(n, i - r) * math.comb(i - r, r)
            exponents[r, i] = i - 2 * r
    table.flags.writeable = False
    exponents.flags.writeable = False
    return table, exponents


def _sums_by_order(space: BasisSpace, orders) -> list[np.ndarray]:
    """:func:`_coefficient_sums` at the kind and alpha of ``space`` for orders up to its ``n``."""
    two_c = 2.0 * _half_functions(space)[1]
    powers = np.array([two_c**k for k in range(space.n + 1)])
    sums = []
    for m in orders:
        table, exponents = _trinomials(m)
        # numpy reduces the outer axis of a C-contiguous array one row after the
        # other, so every entry adds its terms in increasing r, the order of the
        # plain double loop; tests/test_kernel_exact.py checks the bytes.
        sums.append(np.add.reduce(table * powers[exponents], axis=0))
    return sums


@lru_cache(maxsize=_MEMO_SPACES)
def _coefficient_sums(space: BasisSpace) -> np.ndarray:
    """Normalizing coefficients without the 1 / s(alpha/2)**2n prefactor.

    Entry i is  sum_r  C(n, i - r) C(i - r, r) (2 c)**(i - 2 r)  with
    c = cos(alpha/2) or cosh(alpha/2).  These sums have only nonnegative
    terms, the first and last entry are exactly 1, and every coefficient
    ratio used by order elevation reduces to a ratio of these sums (the
    s-prefactors cancel identically).  The basis tables and the normalizing
    coefficients both read this per-space memo.
    """
    sums = _sums_by_order(space, [space.n])[0]
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=_MEMO_SPACES)
def _normalizing_values(space: BasisSpace) -> np.ndarray:
    s, _ = _half_functions(space)
    # For tiny trigonometric alpha s**2n underflows to 0; the overflow is
    # reported below as a RangeError, not as a floating point warning.
    with np.errstate(divide="ignore", over="ignore"):
        values = _coefficient_sums(space) / s ** (2 * space.n)
    if not np.all(np.isfinite(values)):
        raise RangeError(
            f"normalizing coefficients overflow for {space.kind.value} space "
            f"with n={space.n}, alpha={space.alpha:g}"
        )
    values.flags.writeable = False
    return values


def normalizing_coefficients(space: BasisSpace) -> NormalizingCoefficients:
    """Normalizing coefficients of the space's B-basis.

    They are positive, symmetric (entry ``i`` equals entry ``2n - i``) and the
    outermost entries equal ``1 / s(alpha/2)**2n``.
    """
    return NormalizingCoefficients(space, _normalizing_values(space))


def _clamp_param(space: BasisSpace, u: float) -> float:
    u = float(u)
    if math.isnan(u):
        raise RangeError(f"parameter u = {u!r} is not a number")
    if u < 0.0:
        if u >= -_PARAM_SLACK:
            return 0.0
        raise RangeError(f"parameter u = {u!r} below 0")
    if u > space.alpha:
        if u <= space.alpha + _PARAM_SLACK:
            return space.alpha
        raise RangeError(f"parameter u = {u!r} above alpha = {space.alpha!r}")
    return u


def _check_index(space: BasisSpace, i: int) -> int:
    if not _is_int(i):
        raise RangeError(f"basis index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i <= space.degree:
        raise RangeError(f"basis index {i} outside 0..{space.degree}")
    return i


def basis_value(space: BasisSpace, i: int, u: float) -> float:
    """Value of the i-th normalized B-basis function at ``u``: entry i of :func:`basis_vector`."""
    i = _check_index(space, i)
    return basis_matrix(space, [u])[0, i]


def basis_vector(space: BasisSpace, u: float) -> np.ndarray:
    """All ``2n + 1`` basis function values at ``u`` as one vector."""
    return basis_matrix(space, [u])[0]


def basis_matrix(space: BasisSpace, us) -> np.ndarray:
    """Basis values on a batch of parameters, shape ``(len(us), 2n + 1)``.

    Row ``j`` holds the nonnegative partition-of-unity weights at ``us[j]``,
    computed in the scaled factors of the module docstring.  A space whose
    normalizing coefficients overflow is refused, as by
    :func:`normalizing_coefficients`.  Besides the result and a few vectors of
    one value per parameter, only one block of scratch is held.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 1:
        raise RangeError(f"parameter batch must be one dimensional, got shape {us.shape}")
    bad = ~((us >= -_PARAM_SLACK) & (us <= space.alpha + _PARAM_SLACK))
    if bad.any():
        _clamp_param(space, us[np.argmax(bad)])  # raises for the first offender
    _normalizing_values(space)  # raises for a space whose coefficients overflow
    # Like the scalar clamp, np.clip keeps -0.0.
    clamped = np.clip(us, 0.0, space.alpha)
    s = _FUNCTIONS[space.kind, np][0]
    scale = s(0.5 * space.alpha)
    left = s(0.5 * (space.alpha - clamped)) / scale
    right = s(0.5 * clamped) / scale
    return _product_table(left, right, _coefficient_sums(space))


def _ladder(powers: np.ndarray, x: np.ndarray) -> None:
    """Fill row ``k`` of ``powers`` with ``x**k`` by the ladder of multiplies (module docstring)."""
    powers[0] = 1.0
    powers[1:2] = x  # no row to fill at degree 0
    h = 1
    while h + 1 < len(powers):
        top = min(2 * h + 1, len(powers))
        np.multiply(powers[h], powers[1 : top - h], out=powers[h + 1 : top])
        h *= 2


def _product_table(left: np.ndarray, right: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows ``weights[i] * (left**(d - i) * right**i)``, one per parameter (``d + 1`` weights).

    Each block of ``_BLOCK_ROWS`` parameters builds its powers in two
    ``(d + 1, block)`` scratch arrays and is written transposed into the
    result; every entry takes the same multiplies whatever the block size.
    """
    count, width = len(left), len(weights)
    table = np.empty((count, width))
    lefts, rights = np.empty((2, width, min(count, _BLOCK_ROWS)))
    for start in range(0, count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = table[rows]
        lp, rp = lefts[:, : len(block)], rights[:, : len(block)]
        _ladder(lp, left[rows])
        _ladder(rp, right[rows])
        rp *= lp[::-1]
        np.multiply(rp.T, weights, out=block)
    return table


def bernstein_value(degree: int, i: int, v: float) -> float:
    """Bernstein polynomial ``B_i`` of the given degree at ``v`` in [0, 1]."""
    if not _is_count(degree):
        raise RangeError(f"degree must be a nonnegative integer, got {degree!r}")
    degree = int(degree)
    if not _is_int(i):
        raise RangeError(f"index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i <= degree:
        raise RangeError(f"index {i} outside 0..{degree}")
    v = float(v)
    if v < -_PARAM_SLACK or v > 1.0 + _PARAM_SLACK:
        raise RangeError(f"parameter v = {v!r} outside [0, 1]")
    return float(_bernstein_table(degree, np.array([v]))[0, i])


@cache
def _binomials(degree: int) -> np.ndarray:
    binom = np.array([math.comb(degree, i) for i in range(degree + 1)], dtype=float)
    binom.flags.writeable = False
    return binom


def _bernstein_table(degree: int, vs: np.ndarray) -> np.ndarray:
    """Bernstein polynomials of ``degree`` at ``vs`` clamped to [0, 1], one row per parameter."""
    v = np.clip(vs, 0.0, 1.0)
    return _product_table(1.0 - v, v, _binomials(degree))
