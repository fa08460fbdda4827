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
``[0, ..., 0, 1]``.  The Bernstein table of :func:`bernstein_value` is the
same product with ``1 - v`` and ``v`` for the factors and
``C(d, i)`` for the sums.

Powers are products only, never a power routine whose last bit depends on
the CPU: a ladder with ``P[0] = 1``, ``P[1] = x`` and ``P[k] = P[h] * P[k - h]``,
``h`` the largest power of two below ``k``, so ``x**k`` is off by at most
``(k - 1)`` units of roundoff (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Lemma 3.1).  The ladder runs along the degree axis of
``(d + 1, block)`` arrays whose rows are contiguous over the parameters; the
rungs ``h + 1 .. 2h`` take one numpy call, about log2(d) calls a block.  The
right factor's powers fill rows ``0 .. d`` in order and the left factor's
the same rows in reverse (row ``i`` holds ``lam**(d - i)``), so the product
and then the weights multiply whole rows in place, and one copy writes each
block transposed into the result.  The left powers are built in the memory
of the result block they are about to become, so besides the result a table
holds one block of scratch, no full-size temporary.  The scalar
:func:`basis_value` is the one-row case of that kernel and
:func:`bernstein_value` the one-row case of the Bernstein table, so a scalar
equals its batch entry bit for bit.

The split rule of a curve is stated here too, for both split paths
(``curve.subdivide`` and the CLI's ``_pure.subdivide``): :func:`_split_point`
checks the split parameter and :func:`_shares` gives the two de Casteljau
shares from the half-angle sines of :func:`_half_sines`, or refuses the split.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import cache, lru_cache

from . import _exports, _lazy
from ._record import record
from .errors import NumericalError, RangeError

np = _lazy.Numpy(globals())

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

# The per-space memos, coefficient sums here and transform rows in ``xform``, keep the spaces
# used last: every workload asks both for a space again, across jobs or directions.
_MEMO_SPACES = 128

# Parameters per block of a basis or Bernstein table.  The block of the largest
# table (order 32, 65 columns), which holds the left powers first, and one
# (65, 1000) scratch array take 1 MB, within a 2 MB L2 cache.  A sweep of
# 250-1,000 rows (degrees 8, 32 and 64 at 1,001 and 4,001 parameters, Xeon
# with 2 MB L2 per core) was fastest at 1,000 in every case, by up to 25% over
# 500: fewer blocks, fewer numpy calls.
_BLOCK_ROWS = 1000


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (``int`` or a numpy integer); bools are not.

    Before numpy is loaded no value can be a numpy integer, so this never loads it.
    """
    if isinstance(value, int):
        return not isinstance(value, bool)
    return "numpy" in sys.modules and isinstance(value, sys.modules["numpy"].integer)


def _is_count(value) -> bool:
    """Whether ``value`` is a nonnegative integer; bools are not."""
    return _is_int(value) and value >= 0


# The package's argument rules, each stated once: the value as an int, or a
# RangeError whose message starts with ``name``.
def _integer(value, name: str) -> int:
    """``value`` as an int, if :func:`_is_int` takes it."""
    if not _is_int(value):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(value, name: str) -> int:
    """``value`` as an int, if :func:`_is_count` takes it."""
    if not _is_count(value):
        raise RangeError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _index(value, name: str, top: int) -> int:
    """``value`` as an int in ``0..top``."""
    value = _integer(value, name)
    if not 0 <= value <= top:
        raise RangeError(f"{name} {value} outside 0..{top}")
    return value


class BasisKind(Enum):
    """Selects the trigonometric or the hyperbolic function space."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


# Each kind's function family s, c, t from ``math``: (sin, cos, tan) or (sinh,
# cosh, tanh); arrays take numpy's functions of the same names.  Only the
# order-one transform rows read t; the Bezier parameter reads ``math``'s s
# (:func:`_half_sines`).
_FUNCTIONS = {
    BasisKind.TRIGONOMETRIC: (math.sin, math.cos, math.tan),
    BasisKind.HYPERBOLIC: (math.sinh, math.cosh, math.tanh),
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
        n = _integer(n, "order n")
        if n < 1:
            raise RangeError(f"order n must be >= 1, got {n}")
        if n > _MAX_ORDER:
            raise RangeError(f"degree 2n = {2 * n} exceeds the supported cap {MAX_DEGREE}")
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise RangeError(f"alpha must be positive and finite, got {alpha!r}")
        if kind is BasisKind.TRIGONOMETRIC and alpha >= math.pi:
            raise RangeError(f"trigonometric alpha must lie in (0, pi), got {alpha!r}")
        if n > _top_order(kind, alpha):
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


def _top_order(kind: BasisKind, alpha: float) -> int:
    """The highest order of a space of ``kind`` over ``[0, alpha]``.

    That is the order cap, or for a hyperbolic space the last order whose
    ``n * alpha`` stays within the overflow guard (0 if none does).
    """
    n = _MAX_ORDER
    if kind is BasisKind.HYPERBOLIC:
        # The quotient's guess is at most two high; the product n * alpha, the
        # guard's own test, decides.
        n = int(min(n, _OVERFLOW_LIMIT / alpha + 1.0))
        while n * alpha > _OVERFLOW_LIMIT:
            n -= 1
    return n


@record
class NormalizingCoefficients:
    """The ``2n + 1`` normalizing coefficients of a space's B-basis."""

    space: BasisSpace
    values: np.ndarray


def _half_functions(space: BasisSpace):
    """sin/sinh and cos/cosh of alpha / 2 for the space's kind."""
    s, c, _ = _FUNCTIONS[space.kind]
    half = 0.5 * space.alpha
    return s(half), c(half)


@cache
def _trinomials(n: int) -> np.ndarray:
    """The alpha-free part of :func:`_coefficient_sums` for order ``n``.

    ``table[r, i]`` is ``C(n, i - r) C(i - r, r)`` as a float (exact, the
    products stay below 2**53), zero for absent terms; it multiplies
    ``(2c)**(i - 2r)``.
    """
    table = np.zeros((n + 1, 2 * n + 1))
    for r in range(n + 1):
        for i in range(2 * r, n + r + 1):
            table[r, i] = math.comb(n, i - r) * math.comb(i - r, r)
    table.flags.writeable = False
    return table


@cache
def _exponents(n: int) -> np.ndarray:
    """Exponent i - 2r of 2c in entry [r, i] of the trinomial table of order n, 0 where negative."""
    return np.maximum(np.arange(2 * n + 1) - 2 * np.arange(n + 1)[:, None], 0)


def _sums_by_order(space: BasisSpace, orders) -> np.ndarray:
    """:func:`_coefficient_sums` at the kind and alpha of ``space`` for orders up to its ``n``.

    One row per order, padded with ones to the ``2n + 1`` entries of order ``n``.
    """
    two_c = 2.0 * _half_functions(space)[1]
    # Exponents above n reach only absent terms: a zero times a finite power.
    powers = np.array([two_c**k for k in range(space.dimension)])
    scaled = powers[_exponents(space.n)]
    sums = np.ones((len(orders), space.dimension))
    for row, m in zip(sums, orders):
        # numpy reduces the outer axis of a C-contiguous array one row after the
        # other, so every entry adds its terms in increasing r, the order of the
        # plain double loop; tests/test_kernel_exact.py checks the bytes.
        np.add.reduce(_trinomials(m) * scaled[: m + 1, : 2 * m + 1], axis=0, out=row[: 2 * m + 1])
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


def _normalizing_values(space: BasisSpace) -> np.ndarray:
    """The normalizing coefficients, :func:`_coefficient_sums` over ``s(alpha/2)**2n``."""
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


def _half_sines(space: BasisSpace, u: float) -> tuple[float, float]:
    """``s((alpha - u) / 2)`` and ``s(u / 2)`` by ``math``: the basis rows' factors at ``u``."""
    s = _FUNCTIONS[space.kind][0]
    return s(0.5 * (space.alpha - u)), s(0.5 * u)


def _split_point(space: BasisSpace, u0: float) -> float:
    """``u0`` as a float, or a range error unless it lies strictly inside ``(0, alpha)``."""
    u0 = float(u0)
    if not 0.0 < u0 < space.alpha:
        raise RangeError(
            f"split parameter u0 = {u0!r} must lie strictly inside (0, {space.alpha:g})"
        )
    return u0


def _shares(space: BasisSpace, u0: float) -> tuple[float, float]:
    """The shares ``1 - v`` and ``v`` of a split at a checked ``u0``, the rule of every split.

    Each share is its own quotient of the half-angle sines, so a tiny share
    is not lost to ``1 - v``.  Refused are a share that rounds to 0, which
    would collapse a piece to a point, and a piece too short for the basis
    of its interval: ``s(w/2)`` of its width ``w`` is not a normal double,
    the rule of :func:`basis_matrix`.
    """
    b, a = _half_sines(space, u0)
    stay, v = b / (a + b), a / (a + b)
    if not (stay > 0.0 and v > 0.0):
        raise NumericalError(f"split ratio at u0 = {u0!r} rounds to {v:g}")
    if not min(a, b) >= sys.float_info.min:
        raise NumericalError(f"split at u0 = {u0!r} leaves a piece too short for its basis")
    return stay, v


def basis_value(space: BasisSpace, i: int, u: float) -> float:
    """Value of the i-th normalized B-basis function at ``u``: entry i of :func:`basis_vector`."""
    i = _index(i, "basis index", space.degree)
    return basis_matrix(space, [u])[0, i]


def basis_vector(space: BasisSpace, u: float) -> np.ndarray:
    """All ``2n + 1`` basis function values at ``u`` as one vector."""
    return basis_matrix(space, [u])[0]


def basis_matrix(space: BasisSpace, us) -> np.ndarray:
    """Basis values on a batch of parameters, shape ``(len(us), 2n + 1)``.

    Row ``j`` holds the nonnegative partition-of-unity weights at ``us[j]``,
    computed in the scaled factors of the module docstring from the
    coefficient sums alone, which stay finite where the normalizing
    coefficients overflow (tiny alpha at a high order).  The one divisor,
    ``s(alpha / 2)``, must be a normal double.  Besides the result and a few
    vectors of one value per parameter, only one block of scratch is held.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 1:
        raise RangeError(f"parameter batch must be one dimensional, got shape {us.shape}")
    # The mask is built only when the extremes (NaN if any parameter is) fail the check.
    if us.size and not (us.min() >= -_PARAM_SLACK and us.max() <= space.alpha + _PARAM_SLACK):
        bad = ~((us >= -_PARAM_SLACK) & (us <= space.alpha + _PARAM_SLACK))
        _clamp_param(space, us[np.argmax(bad)])  # raises for the first offender
    s = np.sin if space.kind is BasisKind.TRIGONOMETRIC else np.sinh
    scale = s(0.5 * space.alpha)
    if not scale >= sys.float_info.min:
        raise RangeError(
            f"alpha = {space.alpha!r} too small: {s.__name__}(alpha/2) is not a normal double"
        )
    # Like the scalar clamp, clip keeps -0.0.
    clamped = us.clip(0.0, space.alpha)
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
    """Rows ``weights[i] * (right**i * left**(d - i))``, one per parameter (``d + 1`` weights).

    Each block of ``_BLOCK_ROWS`` parameters builds its powers in two
    ``(d + 1, block)`` arrays: row ``i`` of a scratch array holds ``right**i``,
    and row ``i`` of the block's own memory ``left**(d - i)``, the ladder
    running on its reversed view.  The product and then the weights multiply
    whole rows in place, and one copy writes the block transposed over the
    left powers.  Every entry takes the same multiplies whatever the block size.
    """
    count, width = len(left), len(weights)
    table = np.empty((count, width))
    rights = np.empty((width, min(count, _BLOCK_ROWS)))
    for start in range(0, count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = table[rows]
        lp, rp = block.reshape(width, len(block)), rights[:, : len(block)]
        _ladder(lp[::-1], left[rows])
        _ladder(rp, right[rows])
        rp *= lp
        rp *= weights[:, None]
        np.copyto(block, rp.T)
    return table


def bernstein_value(degree: int, i: int, v: float) -> float:
    """Bernstein polynomial ``B_i`` of the given degree at ``v`` in [0, 1]."""
    degree = _count(degree, "degree")
    i = _index(i, "index", degree)
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
    v = vs.clip(0.0, 1.0)
    return _product_table(1.0 - v, v, _binomials(degree))
