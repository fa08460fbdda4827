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

A curve is the one-direction case of a tensor product patch: one body,
:func:`_describe`, describes both, and it does the dispatch over "curve or
patch, rational or not" for the CLI and the gallery.  The four public entry
points here and in :mod:`chbez.surface` are thin wrappers around it.

Rational shapes carry their denominator as one extra coordinate.  The body
computes the pre-image net in one higher dimension first; if some of the
resulting weights fail to be positive, order elevation is applied until
they are.  The loop stops after ``max_elevations`` steps or at the order
cap 32 (degree ``MAX_DEGREE``), whichever comes first, and then raises.
For a curve whose denominator is positive on the whole interval some finite
order would do, but it can lie beyond the cap: a rational trigonometric
curve with alpha close to pi (3.135, say) stops at the cap.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce

import numpy as np

from . import _exports
from ._record import record
from .bbasis import (_ADDITION_SIGNS, _FUNCTIONS, _MAX_ORDER, BasisKind, BasisSpace, _is_count,
                     _is_int)
from .curve import ControlCurve, _below_floor, _projected
from .errors import NumericalError, RangeError
from .xform import _elevated, transform_matrix

__all__ = _exports(__name__) + ["coordinate_ordinates"]  # not public at top level

# Pre-image weights at or below this floor (see ``curve._below_floor``) are not positive.
WEIGHT_POSITIVITY = 1e-12

# Denominator sign is checked on a lattice of this many uniform samples per
# direction, keyed by the number of directions: dense for a curve, coarse for a patch.
_DENOMINATOR_SAMPLES = {1: 1001, 2: 33, 3: 33, 4: 33}

DEFAULT_MAX_ELEVATIONS = 32


class TermFamily(Enum):
    """Cosine-like or sine-like; the space kind picks cos/cosh and sin/sinh."""

    COSINE = "cos"
    SINE = "sin"


def _finite(name: str, value) -> float:
    """``value`` as a float; a RangeError naming ``name`` if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise RangeError(f"{name} must be finite, got {value!r}")
    return value


@record
class Term:
    """One summand ``amplitude * f(frequency * u + phase)``."""

    family: TermFamily
    frequency: int
    amplitude: float
    phase: float = 0.0

    @staticmethod
    def _convert(family, frequency, amplitude, phase):
        if not isinstance(family, TermFamily):
            raise RangeError(f"family must be a TermFamily, got {family!r}")
        if not _is_count(frequency):
            raise RangeError(f"frequency must be a nonnegative integer, got {frequency!r}")
        amplitude = _finite("amplitude", amplitude)
        return family, int(frequency), amplitude, _finite("phase", phase)


@record
class CoordinateFunction:
    """A finite sum of terms describing one coordinate."""

    terms: tuple[Term, ...]

    @staticmethod
    def _convert(terms):
        return (tuple(terms),)

    def max_frequency(self) -> int:
        return max((t.frequency for t in self.terms), default=0)

    def values(self, kind: BasisKind, us) -> np.ndarray:
        """Direct evaluation of the traditional form (used as the reference)."""
        us = np.asarray(us, dtype=float)
        out = np.zeros_like(us)
        s, c = _FUNCTIONS[kind, np]
        for t in self.terms:
            f = c if t.family is TermFamily.COSINE else s
            out += t.amplitude * f(t.frequency * us + t.phase)
        return out

    def differentiated(self, kind: BasisKind) -> CoordinateFunction:
        terms = []
        for t in self.terms:
            amplitude, phase, cosine_like = _derived(t, kind, 1)
            family = TermFamily.COSINE if cosine_like else TermFamily.SINE
            terms.append(Term(family, t.frequency, amplitude, phase))
        return CoordinateFunction(tuple(terms))


def _derivative_scale(k: int, r: int) -> float:
    """``k**r`` as a float, or a range error when it exceeds double range.

    The bound is checked on ``r * log2(k)``, before the exact integer is built.
    """
    if k > 1 and r * math.log2(k) >= 1024.0:
        raise RangeError(f"derivative order {r} overflows: {k}**{r} exceeds double range")
    return float(k**r)


def _derived(t: Term, kind: BasisKind, r: int) -> tuple[float, float, bool]:
    """Amplitude, phase and cosine-likeness of the r-th derivative of term ``t``.

    The derivative rule: each derivative scales by the frequency k (with
    ``0**0 = 1``, so constants survive the underived case), shifts a
    trigonometric phase by pi/2 and swaps a hyperbolic term's family.
    """
    amplitude = t.amplitude * _derivative_scale(t.frequency, r)
    cosine_like = t.family is TermFamily.COSINE
    if kind is BasisKind.TRIGONOMETRIC:
        return amplitude, t.phase + 0.5 * math.pi * r, cosine_like
    return amplitude, t.phase, cosine_like ^ (r % 2 == 1)


@record
class CurveSpec:
    """A traditional-form curve: kind, shape parameter, coordinate functions."""

    kind: BasisKind
    alpha: float
    coords: tuple[CoordinateFunction, ...]

    @staticmethod
    def _convert(kind, alpha, coords):
        if not isinstance(kind, BasisKind):
            raise RangeError(f"kind must be a BasisKind, got {kind!r}")
        alpha, coords = float(alpha), tuple(coords)
        if len(coords) == 0:
            raise RangeError("curve spec needs at least one coordinate")
        # Constructing a space validates the alpha range for the kind.
        BasisSpace(kind, 1, alpha)
        return kind, alpha, coords

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

    def _net(self, orders, points, weights=None) -> ControlCurve:
        return ControlCurve(self.space(orders[0]), points, weights)

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
    return min_orders(spec)[0]


def min_orders(spec) -> tuple[int, ...]:
    """Minimum order per direction of a curve or patch: its largest frequency, at least 1."""
    directions = zip(*(factors for channel in spec._products for factors in channel))
    return tuple(max(1, *(f.max_frequency() for f in fs)) for fs in directions)


def _sequence(values) -> tuple | None:
    """``values`` as a tuple, or None when it is not iterable (a scalar)."""
    try:
        return tuple(values)
    except TypeError:
        return None


def _integers(values, count: int, noun: str, each: str) -> tuple[int, ...]:
    """``values`` as ``count`` ints, the package's rule for one integer per direction.

    Refuses, in this order, a scalar, an entry that :func:`_is_int` refuses
    (bools too) and a wrong count.  The errors name the values ``noun``
    (``"orders"``) and one of them ``each`` (``"order n"``).
    """
    given = _sequence(values)
    if given is None:
        raise RangeError(f"expected a sequence of {count} {noun}, got {values!r}")
    for v in given:
        if not _is_int(v):
            raise RangeError(f"{each} must be an integer, got {v!r}")
    if len(given) != count:
        raise RangeError(f"expected {count} {noun}, got {len(given)}")
    return tuple(int(v) for v in given)


def _check_orders(spec, orders) -> tuple[int, ...]:
    """``orders`` (one per direction) as ints, or the minimum orders when None.

    Refuses what :func:`_integers` refuses, then an order below its
    direction's minimum.
    """
    minimum = min_orders(spec)
    if orders is None:
        return minimum
    orders = _integers(orders, len(minimum), "orders", "order n")
    for j, (n, nu) in enumerate(zip(orders, minimum)):
        if n < nu and len(minimum) == 1:
            raise RangeError(f"order {n} below the curve's minimum order {nu}")
        if n < nu:
            raise RangeError(f"order {n} in direction {j} below the minimum {nu}")
    return orders


def coordinate_ordinates(fn: CoordinateFunction, space: BasisSpace, r: int = 0) -> np.ndarray:
    """B-basis ordinates of the r-th derivative of one coordinate function.

    This is the workhorse shared by curves and tensor product surfaces: each
    term contributes a combination of the sine-like and cosine-like rows of
    the space's transformation matrix, derived by :func:`_derived`.
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
    s, c, _ = _FUNCTIONS[space.kind, math]
    sign = _ADDITION_SIGNS[space.kind]
    for t in fn.terms:
        scale, phase, cosine_like = _derived(t, space.kind, r)
        if scale == 0.0:
            continue
        sine = matrix.sine_row(t.frequency)
        cosine = matrix.cosine_row(t.frequency)
        # cos(k u + phase) and sin(k u + phase) by the addition identities.
        cp, sp = c(phase), s(phase)
        if cosine_like:
            out += scale * (cp * cosine + sign * sp * sine)
        else:
            out += scale * (cp * sine + sp * cosine)
    return out


def _sum_of_products(products, dims: tuple, factor_values) -> np.ndarray:
    """Channels that are sums of separable products, stacked on a last axis.

    ``products[ell]`` lists the products of channel ``ell``, one factor ``f``
    per direction ``j``; a product is the outer product of ``factor_values(j, f)``.
    """
    out = np.zeros(dims + (len(products),))
    # A channel that overflows holds inf or nan, which callers check; no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for ell, channel in enumerate(products):
            for factors in channel:
                vecs = [factor_values(j, f) for j, f in enumerate(factors)]
                out[..., ell] += reduce(np.multiply.outer, vecs)
    return out


def _finite_channels(out: np.ndarray) -> np.ndarray:
    """``out``, or a RangeError naming the first channel (last axis) that is not finite."""
    finite = np.isfinite(out)
    if not finite.all():
        ell = int(np.argmin(finite.reshape(-1, out.shape[-1]).all(axis=0)))
        raise RangeError(f"coords[{ell}]: control points overflow double precision")
    return out


def _ordinates(products, spaces, r) -> np.ndarray:
    """Control tensor over one space per direction, direction ``j`` derived ``r[j]`` times."""
    dims = tuple(s.dimension for s in spaces)
    out = _sum_of_products(products, dims, lambda j, f: coordinate_ordinates(f, spaces[j], r[j]))
    return _finite_channels(out)


def _lattice(products, directions, axes) -> np.ndarray:
    """Traditional-form values on the cartesian lattice of ``axes``."""
    dims = tuple(len(a) for a in axes)
    return _sum_of_products(products, dims, lambda j, f: f.values(directions[j].kind, axes[j]))


def _describe(spec, orders=None, r=None, rational=False, max_elevations=DEFAULT_MAX_ELEVATIONS):
    """Described net of a curve or patch spec, its pre-image tensor and the elevation steps.

    ``orders`` and ``r`` give one order and one derivative order per
    direction (None: the minimum orders, no derivative).  A rational spec's
    last channel is its denominator: it is checked positive, the pre-image
    is elevated until its weights are positive and the net is its projection.
    """
    if rational:
        _check_denominator(spec, max_elevations)
    orders = _check_orders(spec, orders)
    directions = spec._directions
    delta = len(directions)
    rs = (0,) * delta if r is None else _sequence(r)
    # A curve's derivative order is refused by coordinate_ordinates, once its space is built.
    if delta > 1 and (rs is None or len(rs) != delta or not all(_is_count(x) for x in rs)):
        shown = r if rs is None else rs
        raise RangeError(f"derivative orders must be {delta} nonnegative integers, got {shown!r}")
    spaces = [d.space(n) for d, n in zip(directions, orders)]
    points = _ordinates(spec._products, spaces, rs)
    if not rational:
        return spec._net(orders, points), points, 0
    points, orders, steps = _elevate_until_positive(points, orders, directions, max_elevations)
    numerators, weights = _projected(points)
    return spec._net(orders, _finite_channels(numerators), weights), points, steps


def exact_curve(spec: CurveSpec, n: int | None = None, r: int = 0) -> ControlCurve:
    """Control points of the curve (or its r-th derivative) at order ``n``.

    ``n`` defaults to :func:`min_order`.  The returned polygon reproduces the
    traditional form exactly up to rounding; no approximation is involved.
    """
    return _describe(spec, None if n is None else (n,), (r,))[0]


@record
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

    The denominator must be positive on all of ``[0, alpha]``; it is checked
    at 1001 uniform samples, endpoints included (``_DENOMINATOR_SAMPLES``),
    so a dip between samples goes unseen.  Whenever the pre-image polygon
    yields weights that are not strictly positive, the polygon is order
    elevated.  The loop raises once ``max_elevations`` steps are spent or
    the next step would pass the order cap 32, whichever comes first; a
    positive denominator can need more (trigonometric alpha near pi).
    """
    if spec.dimension < 2:
        raise RangeError("rational description needs numerator and denominator coordinates")
    curve, points, steps = _describe(spec, None if n is None else (n,), None, True, max_elevations)
    return PreImageResult(ControlCurve(curve.space, points), curve, steps)


def _check_denominator(spec, max_elevations):
    """Check the elevation budget, then that the denominator (last channel) is positive.

    The denominator is sampled on a lattice of ``_DENOMINATOR_SAMPLES[delta]``
    points per direction (``delta`` directions), endpoints included; the
    error names its lowest sample.  This table is the only sampling policy
    of both rational descriptions.
    """
    if not _is_count(max_elevations):
        raise RangeError(f"max_elevations must be a nonnegative integer, got {max_elevations!r}")
    directions = spec._directions
    samples = _DENOMINATOR_SAMPLES[len(directions)]
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
    ``n`` is ``directions[j].space(n)``.  Step s raises direction s mod
    delta by one order with :func:`xform._elevated` along its axis; if that
    direction is at the cap, the first lowest-order direction takes the
    step.  One test per pass stops the loop: the weights are positive, or
    ``max_elevations`` steps are spent, or the chosen direction is at the cap.
    Returns the tensor, the orders and the step count, or raises with the
    indices of the weights still not positive (ints for a curve).
    """
    orders = list(orders)
    delta = len(orders)
    steps = 0
    while True:
        bad = _below_floor(points[..., -1], points[..., -1], WEIGHT_POSITIVITY)
        j = steps % delta
        if orders[j] >= _MAX_ORDER:
            j = orders.index(min(orders))
        if not bad.any() or steps >= max_elevations or orders[j] >= _MAX_ORDER:
            break
        points = _elevated(directions[j].space(orders[j]), points, 1, j)[1]
        orders[j] += 1
        steps += 1
    if bad.any():
        found = [tuple(int(x) for x in idx) for idx in np.argwhere(bad)]
        raise NumericalError(
            f"weights not positive after {steps} elevation(s)",
            indices=[i for (i,) in found] if delta == 1 else found,
        )
    return points, orders, steps
