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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import RangeError

__all__ = [
    "MAX_DEGREE",
    "BasisKind",
    "BasisSpace",
    "NormalizingCoefficients",
    "normalizing_coefficients",
    "basis_value",
    "basis_vector",
    "basis_matrix",
    "bernstein_value",
]

# Largest supported basis degree 2n.  Binomials are evaluated exactly with
# integer arithmetic, so the cap only bounds memory and run time.
MAX_DEGREE = 64

# Hyperbolic coefficients grow like exp(n * alpha); beyond this product the
# normalizing coefficients overflow double precision range.
_OVERFLOW_LIMIT = 300.0

# Parameter values may stick out of [0, alpha] by this much before they are
# rejected; within the slack they are clamped to the nearest endpoint.
_PARAM_SLACK = 1e-12


class BasisKind(Enum):
    """Selects the trigonometric or the hyperbolic function space."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class BasisSpace:
    """A concrete space ``(kind, order n, shape parameter alpha)``.

    The basis has ``2n + 1`` functions over the interval ``[0, alpha]``.
    Instances are immutable and hashable; they key the internal caches.
    """

    kind: BasisKind
    n: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise RangeError(f"order n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise RangeError(f"order n must be >= 1, got {self.n}")
        if 2 * self.n > MAX_DEGREE:
            raise RangeError(
                f"degree 2n = {2 * self.n} exceeds the supported cap {MAX_DEGREE}"
            )
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise RangeError(f"alpha must be positive and finite, got {alpha!r}")
        if self.kind is BasisKind.TRIGONOMETRIC:
            if alpha >= math.pi:
                raise RangeError(
                    f"trigonometric alpha must lie in (0, pi), got {alpha!r}"
                )
        else:
            if self.n * alpha > _OVERFLOW_LIMIT:
                raise RangeError(
                    f"hyperbolic n*alpha = {self.n * alpha:g} exceeds the "
                    f"overflow guard {_OVERFLOW_LIMIT:g}"
                )

    @property
    def degree(self) -> int:
        return 2 * self.n

    @property
    def dimension(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True)
class NormalizingCoefficients:
    """The ``2n + 1`` normalizing coefficients of a space's B-basis."""

    space: BasisSpace
    values: np.ndarray


def _half_functions(space: BasisSpace):
    """sin/sinh and cos/cosh of alpha / 2 for the space's kind."""
    half = 0.5 * space.alpha
    if space.kind is BasisKind.TRIGONOMETRIC:
        return math.sin(half), math.cos(half)
    return math.sinh(half), math.cosh(half)


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


@cache
def _coefficient_sums(space: BasisSpace) -> np.ndarray:
    """Normalizing coefficients without the 1 / s(alpha/2)**2n prefactor.

    Entry i is  sum_r  C(n, i - r) C(i - r, r) (2 c)**(i - 2 r)  with
    c = cos(alpha/2) or cosh(alpha/2).  These sums have only nonnegative
    terms, the first and last entry are exactly 1, and every coefficient
    ratio used by order elevation reduces to a ratio of these sums (the
    s-prefactors cancel identically).
    """
    n = space.n
    _, c = _half_functions(space)
    two_c = 2.0 * c
    table, exponents = _trinomials(n)
    terms = table * np.array([two_c**k for k in range(n + 1)])[exponents]
    # numpy reduces the outer axis of a C-contiguous array one row after the
    # other, so every entry adds its terms in increasing r, the order of the
    # plain double loop; tests/test_kernel_exact.py checks the bytes.
    sums = np.add.reduce(terms, axis=0)
    sums.flags.writeable = False
    return sums


@cache
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
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise RangeError(f"basis index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i <= space.degree:
        raise RangeError(f"basis index {i} outside 0..{space.degree}")
    return i


def basis_value(space: BasisSpace, i: int, u: float) -> float:
    """Value of the i-th normalized B-basis function at ``u``."""
    i = _check_index(space, i)
    u = _clamp_param(space, u)
    s = math.sin if space.kind is BasisKind.TRIGONOMETRIC else math.sinh
    coeff = _normalizing_values(space)[i]
    return coeff * s(0.5 * (space.alpha - u)) ** (space.degree - i) * s(0.5 * u) ** i


def basis_vector(space: BasisSpace, u: float) -> np.ndarray:
    """All ``2n + 1`` basis function values at ``u`` as one vector."""
    return basis_matrix(space, [u])[0]


def basis_matrix(space: BasisSpace, us) -> np.ndarray:
    """Basis values on a batch of parameters, shape ``(len(us), 2n + 1)``.

    Row ``j`` holds the nonnegative partition-of-unity weights at ``us[j]``.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 1:
        raise RangeError(f"parameter batch must be one dimensional, got shape {us.shape}")
    bad = ~((us >= -_PARAM_SLACK) & (us <= space.alpha + _PARAM_SLACK))
    if bad.any():
        _clamp_param(space, us[np.argmax(bad)])  # raises for the first offender
    # Like the scalar clamp, np.clip keeps -0.0.
    clamped = np.clip(us, 0.0, space.alpha)
    if space.kind is BasisKind.TRIGONOMETRIC:
        left = np.sin(0.5 * (space.alpha - clamped))
        right = np.sin(0.5 * clamped)
    else:
        left = np.sinh(0.5 * (space.alpha - clamped))
        right = np.sinh(0.5 * clamped)
    powers = np.arange(space.degree + 1)
    # 0.0 ** 0 evaluates to 1.0, so the endpoint columns come out exact.
    mat = left[:, None] ** (space.degree - powers)[None, :] * right[:, None] ** powers[None, :]
    return mat * _normalizing_values(space)[None, :]


def bernstein_value(degree: int, i: int, v: float) -> float:
    """Bernstein polynomial ``B_i`` of the given degree at ``v`` in [0, 1]."""
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool) or degree < 0:
        raise RangeError(f"degree must be a nonnegative integer, got {degree!r}")
    degree = int(degree)
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise RangeError(f"index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i <= degree:
        raise RangeError(f"index {i} outside 0..{degree}")
    v = float(v)
    if v < -_PARAM_SLACK or v > 1.0 + _PARAM_SLACK:
        raise RangeError(f"parameter v = {v!r} outside [0, 1]")
    v = min(max(v, 0.0), 1.0)
    return math.comb(degree, i) * v**i * (1.0 - v) ** (degree - i)
