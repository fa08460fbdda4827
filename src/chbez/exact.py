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
they are.  The loop stops after ``max_elevations`` steps or at the highest
order a space allows, whichever comes first, and then raises a numerical
failure.  That order is the cap 32 (degree ``MAX_DEGREE``) or, in a
hyperbolic direction, the overflow guard: the last order with
``n * alpha <= 300``.  For a curve whose denominator is positive on the
whole interval some finite order would do, but it can lie beyond either
stop: a rational trigonometric curve with alpha close to pi (3.135, say)
stops at the cap, and a hyperbolic one at alpha 12 can stop at the guard,
order 25.  Positive weights prove the denominator positive on the whole
interval, since the normalized B-basis is nonnegative and sums to one; the
denominator is sampled only to name the failure of a description that
fails (:func:`_denominator_named`).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache, reduce
from importlib import import_module

from . import _exports, _lazy
from ._record import record
from .bbasis import (_ADDITION_SIGNS, _FUNCTIONS, BasisKind, BasisSpace, _count, _integer,
                     _is_count, _top_order)
from .errors import NumericalError, RangeError

np = _lazy.Numpy(globals())

__all__ = _exports(__name__) + ["coordinate_ordinates"]  # not public at top level

# Pre-image weights at or below this floor, times min(1, max |weight|), are not
# positive: tiny weights lower the floor, as weights matter only up to a common scale.
WEIGHT_POSITIVITY = 1e-12

# A failed rational description samples its denominator on a lattice of uniform
# samples per direction: dense for a curve, coarse for a patch (whatever its
# number of directions).
_CURVE_SAMPLES = 1001
_PATCH_SAMPLES = 33

DEFAULT_MAX_ELEVATIONS = 32


# Local imports in its callers instead made the exact layer 1.07-1.10x slower
# (curve_kernel jobs, 2-vCPU x86-64 host, one CPU).
@cache
def _module(name: str):
    """The module ``chbez.<name>``, imported on first use: the pure path describes a curve
    without :mod:`chbez.curve` and :mod:`chbez.xform`."""
    return import_module(f".{name}", __package__)


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
        frequency = _count(frequency, "frequency")
        amplitude = _finite("amplitude", amplitude)
        return family, frequency, amplitude, _finite("phase", phase)


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
        s, c = (np.sin, np.cos) if kind is BasisKind.TRIGONOMETRIC else (np.sinh, np.cosh)
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

    The bound is checked on ``r * log2(k)``, before the exact integer is built,
    and on ``r`` itself first, since ``k >= 2`` overflows from ``r = 1024`` on.
    """
    if k > 1 and (r >= 1024 or r * math.log2(k) >= 1024.0):
        raise RangeError(f"derivative order {r} overflows: {k}**{r} exceeds double range")
    return float(k**r)


def _derived(t: Term, kind: BasisKind, r: int) -> tuple[float, float, bool]:
    """Amplitude, phase and cosine-likeness of the r-th derivative of term ``t``.

    The derivative rule: each derivative scales by the frequency k (with
    ``0**0 = 1``, so constants survive the underived case), shifts a
    trigonometric phase by pi/2 and swaps a hyperbolic term's family.  A
    shift that overflows is taken modulo a full turn: by ``r % 4`` quarters.
    """
    amplitude = t.amplitude * _derivative_scale(t.frequency, r)
    cosine_like = t.family is TermFamily.COSINE
    if kind is BasisKind.TRIGONOMETRIC:
        try:
            shift = 0.5 * math.pi * r
        except OverflowError:  # r is past float range
            shift = math.inf
        phase = t.phase + (shift if shift < math.inf else 0.5 * math.pi * (r % 4))
        return amplitude, phase, cosine_like
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
        return _module("curve").ControlCurve(self.space(orders[0]), points, weights)

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

    Refuses, in this order, a scalar, an entry that :func:`bbasis._integer` refuses
    (bools too) and a wrong count.  The errors name the values ``noun``
    (``"orders"``) and one of them ``each`` (``"order n"``).
    """
    given = _sequence(values)
    if given is None:
        raise RangeError(f"expected a sequence of {count} {noun}, got {values!r}")
    given = tuple(_integer(v, each) for v in given)
    if len(given) != count:
        raise RangeError(f"expected {count} {noun}, got {len(given)}")
    return given


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
    r = _count(r, "derivative order")
    if fn.max_frequency() > space.n:
        raise RangeError(
            f"coordinate of frequency {fn.max_frequency()} does not fit order {space.n}"
        )
    out = np.zeros(space.dimension)
    rows = _module("xform")._transform_rows(space)
    for scale, a, x, b, y in _term_rows(fn, space, r, rows, np.zeros(len(out))):
        out += scale * (a * x + b * y)
    return out


def _term_rows(fn: CoordinateFunction, space: BasisSpace, r: int, rows, zero):
    """``(scale, a, x, b, y)`` per nonzero term of the r-th derivative of ``fn``.

    The term adds ``scale * (a * x + b * y)`` to the ordinates: ``x`` and ``y``
    are rows of the transform ``rows`` (or the row ``zero``), ``a`` and ``b``
    the cosine and sine of its phase, as the addition identities combine them.
    A hyperbolic phase past about 710 overflows to inf, as in numpy, so the
    callers' check refuses its coordinate.
    """
    s, c, _ = _FUNCTIONS[space.kind]
    sign = _ADDITION_SIGNS[space.kind]
    for t in fn.terms:
        scale, phase, cosine_like = _derived(t, space.kind, r)
        if scale == 0.0:
            continue
        k = t.frequency  # sin(0 u) has the zero row
        sine, cosine = rows[2 * k - 1] if k else zero, rows[2 * k]
        try:
            cp, sp = c(phase), s(phase)
        except OverflowError:
            cp, sp = math.inf, math.copysign(math.inf, phase)
        yield (scale, cp, cosine, sign * sp, sine) if cosine_like else (scale, cp, sine, sp, cosine)


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


def _denominator_named(describe):
    """``describe`` (spec, orders, r, rational, max_elevations), the rule of every description.

    A rational spec's ``max_elevations`` is checked first.  Its positive
    weights prove its denominator positive, so the denominator is sampled
    (:func:`_check_denominator`) only when the description raises: a dip at
    a sample is then the refusal, and any other failure is raised unchanged.
    """
    def checked(spec, orders=None, r=None, rational=False, max_elevations=DEFAULT_MAX_ELEVATIONS):
        if rational:
            _count(max_elevations, "max_elevations")
        try:
            return describe(spec, orders, r, rational, max_elevations)
        except Exception:
            if rational:
                _check_denominator(spec)
            raise

    return checked


@_denominator_named
def _describe(spec, orders, r, rational, max_elevations):
    """Described net of a curve or patch spec, its pre-image tensor and the elevation steps.

    ``orders`` and ``r`` give one order and one derivative order per
    direction (None: the minimum orders, no derivative).  A rational spec's
    last channel is its denominator: the pre-image is elevated until its
    weights are positive and the net is its projection.
    """
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
    numerators, weights = _module("curve")._projected(points)
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

    The denominator must be positive on all of ``[0, alpha]``.  Whenever the
    pre-image polygon yields weights that are not strictly positive, the
    polygon is order elevated; positive weights prove the denominator
    positive.  The loop raises a :class:`NumericalError` once
    ``max_elevations`` steps are spent or the next step would pass the order
    cap 32 or, for the hyperbolic kind, the overflow guard
    ``n * alpha <= 300``, whichever comes first; a positive denominator can
    need more (trigonometric alpha near pi, hyperbolic alpha above 300 / 32).
    A description that fails samples the denominator at 1001 uniform points,
    endpoints included (``_CURVE_SAMPLES``), and a sample at or below 0 names
    the failure instead; a dip between samples ends in the elevation failure.
    """
    if spec.dimension < 2:
        raise RangeError("rational description needs numerator and denominator coordinates")
    curve, points, steps = _describe(spec, None if n is None else (n,), None, True, max_elevations)
    return PreImageResult(_module("curve").ControlCurve(curve.space, points), curve, steps)


def _check_denominator(spec):
    """Refuse a denominator (last channel) that is not positive at some sample.

    It is sampled on a lattice of ``_CURVE_SAMPLES`` points for a curve and
    ``_PATCH_SAMPLES`` per direction for a patch, endpoints included; the
    error names its lowest sample.  Only a failed description runs this
    (:func:`_denominator_named`): the samples name a failure, and positive
    weights, not the samples, prove a denominator positive.
    """
    directions = spec._directions
    samples = _CURVE_SAMPLES if len(directions) == 1 else _PATCH_SAMPLES
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
    delta by one order with :func:`xform._elevated` along its axis.  A
    direction cannot rise past its top order (:func:`bbasis._top_order`):
    the order cap 32, or for a hyperbolic direction the last order within
    the overflow guard ``n * alpha <= 300``.  If the direction whose turn it
    is stands at its top, the first lowest-order direction that can still
    rise takes the step.  One test per pass stops the loop: the weights are
    positive, or ``max_elevations`` steps are spent, or the chosen direction
    is at its top.
    Returns the tensor, the orders and the step count, or raises with the
    indices of the weights still not positive (ints for a curve).
    """
    orders = list(orders)
    delta = len(orders)
    tops = [_top_order(d.kind, d.alpha) for d in directions]
    steps = 0
    while True:
        weights = points[..., -1]
        bad = weights <= WEIGHT_POSITIVITY * min(1.0, abs(weights).max())
        j = steps % delta
        if orders[j] >= tops[j]:  # directions that can rise first, then the lowest order
            j = min(range(delta), key=lambda i: (orders[i] >= tops[i], orders[i]))
        if not bad.any() or steps >= max_elevations or orders[j] >= tops[j]:
            break
        points = _module("xform")._elevated(directions[j].space(orders[j]), points, 1, j)[1]
        orders[j] += 1
        steps += 1
    if bad.any():
        found = [tuple(int(x) for x in idx) for idx in np.argwhere(bad)]
        raise NumericalError(
            f"weights not positive after {steps} elevation(s)",
            indices=[i for (i,) in found] if delta == 1 else found,
        )
    return points, orders, steps
