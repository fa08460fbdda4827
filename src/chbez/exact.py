"""Exact control point description of curves given in traditional form.

A traditional curve lists, per coordinate, a finite combination of
``a * cos(k u + phase)`` / ``a * sin(k u + phase)`` terms (``cosh`` and
``sinh`` for the hyperbolic kind).  Any such curve of maximum frequency
``nu`` lies in every space of order ``n >= nu``, and its control points
with respect to the normalized B-basis follow in closed form from the rows
of the basis transformation matrix.  Derivatives of any order are obtained
from the same rows: differentiation multiplies a frequency-``k`` term by
``k`` and shifts its phase by ``pi/2`` (trigonometric) or swaps the
sine-like and cosine-like rows (hyperbolic).

A curve is the one-direction case of a tensor product patch: both use the
control tensor builder :func:`_ordinates`, the lattice evaluator
:func:`_lattice` and the elevation loop :func:`_elevate_until_positive` here.

Rational curves carry their denominator as one extra coordinate.  The
pre-image polygon in one higher dimension is computed first; if some of the
resulting weights fail to be positive, order elevation is applied until
they are (for curves this terminates after finitely many steps whenever the
denominator is positive on the whole interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .bbasis import MAX_DEGREE, BasisKind, BasisSpace
from .curve import ControlCurve, _below_floor
from .errors import NumericalError, RangeError
from .xform import elevate_coefficient_vector, transform_matrix

__all__ = [
    "TermFamily",
    "Term",
    "CoordinateFunction",
    "CurveSpec",
    "PreImageResult",
    "min_order",
    "coordinate_ordinates",
    "exact_curve",
    "exact_rational_curve",
]

# Pre-image weights at or below this floor (see ``curve._below_floor``) are not positive.
WEIGHT_POSITIVITY = 1e-12

# Denominator sign is checked on this many uniform samples of [0, alpha].
_DENOMINATOR_SAMPLES = 1001

DEFAULT_MAX_ELEVATIONS = 32


def _is_count(value) -> bool:
    """Whether ``value`` is a nonnegative integer; bools are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


class TermFamily(Enum):
    """Cosine-like or sine-like; the space kind picks cos/cosh and sin/sinh."""

    COSINE = "cos"
    SINE = "sin"


@dataclass(frozen=True)
class Term:
    """One summand ``amplitude * f(frequency * u + phase)``."""

    family: TermFamily
    frequency: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not isinstance(self.family, TermFamily):
            raise RangeError(f"family must be a TermFamily, got {self.family!r}")
        if not _is_count(self.frequency):
            raise RangeError(
                f"frequency must be a nonnegative integer, got {self.frequency!r}"
            )
        object.__setattr__(self, "frequency", int(self.frequency))
        for name in ("amplitude", "phase"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise RangeError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CoordinateFunction:
    """A finite sum of terms describing one coordinate."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def max_frequency(self) -> int:
        return max((t.frequency for t in self.terms), default=0)

    def values(self, kind: BasisKind, us) -> np.ndarray:
        """Direct evaluation of the traditional form (used as the reference)."""
        us = np.asarray(us, dtype=float)
        out = np.zeros_like(us)
        trig = kind is BasisKind.TRIGONOMETRIC
        for t in self.terms:
            arg = t.frequency * us + t.phase
            if t.family is TermFamily.COSINE:
                out += t.amplitude * (np.cos(arg) if trig else np.cosh(arg))
            else:
                out += t.amplitude * (np.sin(arg) if trig else np.sinh(arg))
        return out

    def differentiated(self, kind: BasisKind) -> CoordinateFunction:
        terms = []
        for t in self.terms:
            if kind is BasisKind.TRIGONOMETRIC:
                terms.append(
                    Term(t.family, t.frequency, t.amplitude * t.frequency, t.phase + 0.5 * math.pi)
                )
            else:
                flipped = TermFamily.SINE if t.family is TermFamily.COSINE else TermFamily.COSINE
                terms.append(Term(flipped, t.frequency, t.amplitude * t.frequency, t.phase))
        return CoordinateFunction(tuple(terms))


@dataclass(frozen=True)
class CurveSpec:
    """A traditional-form curve: kind, shape parameter, coordinate functions."""

    kind: BasisKind
    alpha: float
    coords: tuple[CoordinateFunction, ...]

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {self.kind!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) == 0:
            raise RangeError("curve spec needs at least one coordinate")
        # Constructing a space validates the alpha range for the kind.
        BasisSpace(self.kind, 1, self.alpha)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def space(self, n: int) -> BasisSpace:
        return BasisSpace(self.kind, n, self.alpha)

    @property
    def _directions(self) -> tuple[CurveSpec]:
        return (self,)  # with kind, alpha and space(n), the spec is its own direction

    @property
    def _products(self) -> tuple:
        return tuple(((fn,),) for fn in self.coords)  # one one-factor product per coordinate

    def evaluate(self, us) -> np.ndarray:
        """Pointwise evaluation of the traditional form, one row per sample."""
        us = np.atleast_1d(np.asarray(us, dtype=float))
        return _lattice(self._products, self._directions, [us])

    def differentiated(self) -> CurveSpec:
        return CurveSpec(
            self.kind, self.alpha, tuple(fn.differentiated(self.kind) for fn in self.coords)
        )


def min_order(spec: CurveSpec) -> int:
    """Smallest order whose space contains the curve (at least 1)."""
    return max(1, max(fn.max_frequency() for fn in spec.coords))


def coordinate_ordinates(fn: CoordinateFunction, space: BasisSpace, r: int = 0) -> np.ndarray:
    """B-basis ordinates of the r-th derivative of one coordinate function.

    This is the workhorse shared by curves and tensor product surfaces: each
    term contributes a combination of the sine-like and cosine-like rows of
    the space's transformation matrix, scaled by ``frequency**r`` (with
    ``0**0 = 1`` so constants survive the underived case).
    """
    if not _is_count(r):
        raise RangeError(f"derivative order must be a nonnegative integer, got {r!r}")
    r = int(r)
    if fn.max_frequency() > space.n:
        raise RangeError(
            f"coordinate of frequency {fn.max_frequency()} does not fit order {space.n}"
        )
    matrix = transform_matrix(space)
    out = np.zeros(space.dimension)
    trig = space.kind is BasisKind.TRIGONOMETRIC
    for t in fn.terms:
        k = t.frequency
        scale = t.amplitude * float(k**r)
        if scale == 0.0:
            continue
        sine = matrix.sine_row(k)
        cosine = matrix.cosine_row(k)
        if trig:
            shifted = t.phase + 0.5 * math.pi * r
            c, s = math.cos(shifted), math.sin(shifted)
            if t.family is TermFamily.COSINE:
                out += scale * (c * cosine - s * sine)
            else:
                out += scale * (c * sine + s * cosine)
        else:
            ch, sh = math.cosh(t.phase), math.sinh(t.phase)
            swap = r % 2 == 1
            cosine_like = t.family is TermFamily.COSINE
            if swap:
                cosine_like = not cosine_like
            if cosine_like:
                out += scale * (ch * cosine + sh * sine)
            else:
                out += scale * (ch * sine + sh * cosine)
    return out


def _sum_of_products(products, dims: tuple, factor_values) -> np.ndarray:
    """Channels that are sums of separable products, stacked on a last axis.

    ``products[ell]`` lists the products of channel ``ell``, one factor ``f``
    per direction ``j``; a product is the outer product of ``factor_values(j, f)``.
    """
    out = np.zeros(dims + (len(products),))
    for ell, channel in enumerate(products):
        for factors in channel:
            vecs = [factor_values(j, f) for j, f in enumerate(factors)]
            out[..., ell] += reduce(np.multiply.outer, vecs)
    return out


def _ordinates(products, spaces, r) -> np.ndarray:
    """Control tensor over one space per direction, direction ``j`` derived ``r[j]`` times."""
    dims = tuple(s.dimension for s in spaces)
    return _sum_of_products(products, dims, lambda j, f: coordinate_ordinates(f, spaces[j], r[j]))


def _lattice(products, directions, axes) -> np.ndarray:
    """Traditional-form values on the cartesian lattice of ``axes``."""
    dims = tuple(len(a) for a in axes)
    return _sum_of_products(products, dims, lambda j, f: f.values(directions[j].kind, axes[j]))


def exact_curve(spec: CurveSpec, n: int | None = None, r: int = 0) -> ControlCurve:
    """Control points of the curve (or its r-th derivative) at order ``n``.

    ``n`` defaults to :func:`min_order`.  The returned polygon reproduces the
    traditional form exactly up to rounding; no approximation is involved.
    """
    nu = min_order(spec)
    if n is None:
        n = nu
    if n < nu:
        raise RangeError(f"order {n} below the curve's minimum order {nu}")
    space = spec.space(n)
    return ControlCurve(space, _ordinates(spec._products, [space], (r,)))


@dataclass(frozen=True)
class PreImageResult:
    """Outcome of the rational description.

    ``preimage`` is the polygon in one higher dimension whose last
    coordinate carries the denominator, ``curve`` the projected rational
    control curve, and ``elevations`` counts the order elevation steps that
    were needed to reach positive weights.
    """

    preimage: ControlCurve
    curve: ControlCurve
    elevations: int

    @property
    def order(self) -> int:
        return self.curve.space.n

    @property
    def weights(self) -> np.ndarray:
        return self.curve.weights


def exact_rational_curve(
    spec: CurveSpec,
    n: int | None = None,
    max_elevations: int = DEFAULT_MAX_ELEVATIONS,
) -> PreImageResult:
    """Rational description: last coordinate of ``spec`` is the denominator.

    The denominator must be positive on all of ``[0, alpha]`` (checked by
    dense sampling, endpoints included).  Whenever the pre-image polygon
    yields weights that are not strictly positive, the polygon is order
    elevated; positivity is reached after finitely many steps and the loop
    raises once ``max_elevations`` is exhausted.
    """
    if spec.dimension < 2:
        raise RangeError("rational description needs numerator and denominator coordinates")
    _check_denominator(spec, _DENOMINATOR_SAMPLES, max_elevations)
    pre = exact_curve(spec, n, 0)
    points, (n,), steps = _elevate_until_positive(
        pre.points, [pre.space.n], spec._directions, max_elevations
    )
    weights = points[:, -1]
    projected = ControlCurve(spec.space(n), points[:, :-1] / weights[:, None], weights)
    return PreImageResult(ControlCurve(projected.space, points), projected, steps)


def _check_denominator(spec, samples: int, max_elevations):
    """Check the elevation budget, then that the denominator (last channel) is positive.

    The denominator is sampled on a lattice of ``samples`` points per
    direction, endpoints included; the error names its lowest sample.
    """
    if not _is_count(max_elevations):
        raise RangeError(f"max_elevations must be a nonnegative integer, got {max_elevations!r}")
    directions = spec._directions
    axes = [np.linspace(0.0, d.alpha, samples) for d in directions]
    den = _lattice(spec._products[-1:], directions, axes)[..., 0]
    if np.any(den <= 0.0):
        where = np.unravel_index(int(np.argmin(den)), den.shape)
        at = tuple(float(a[w]) for a, w in zip(axes, where))
        box = f"[0, {directions[0].alpha:g}]" if len(at) == 1 else "the box"
        at = f"{at[0]:g}" if len(at) == 1 else at
        raise NumericalError(f"denominator is not positive on {box} (fails near u = {at})")


def _elevate_until_positive(points: np.ndarray, orders, directions, max_elevations: int):
    """Order elevate a pre-image until its weights (last channel) are positive.

    ``points`` has one leading axis per direction, whose space at order
    ``n`` is ``directions[j].space(n)``.  Directions take turns (one at the
    degree cap gives way to the lowest order) for at most ``max_elevations`` steps.
    Returns the tensor, the orders and the step count, or raises with the
    indices of the weights still not positive (ints for a curve).
    """
    orders = list(orders)
    delta = len(orders)
    steps = 0
    bad = _below_floor(points[..., -1], points[..., -1], WEIGHT_POSITIVITY)
    while np.any(bad) and steps < max_elevations:
        j = steps % delta
        if 2 * (orders[j] + 1) > MAX_DEGREE:
            j = min(range(delta), key=lambda d: orders[d])
            if 2 * (orders[j] + 1) > MAX_DEGREE:
                break
        space = directions[j].space(orders[j])
        lifted = elevate_coefficient_vector(space, np.moveaxis(points, j, 0))
        points = np.moveaxis(lifted, 0, j)
        orders[j] += 1
        steps += 1
        bad = _below_floor(points[..., -1], points[..., -1], WEIGHT_POSITIVITY)
    if np.any(bad):
        found = [tuple(int(x) for x in idx) for idx in np.argwhere(bad)]
        raise NumericalError(
            f"weights not positive after {steps} elevation(s)",
            indices=[i for (i,) in found] if delta == 1 else found,
        )
    return points, orders, steps
