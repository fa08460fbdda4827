"""Tests for exact curve descriptions in the B-basis."""

import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    BasisSpace,
    CoordinateFunction,
    CurveSpec,
    NumericalError,
    RangeError,
    SurfaceSpec,
    Term,
    TermFamily,
    basis_matrix,
    elevate,
    evaluate,
    exact_curve,
    exact_rational_curve,
    exact_rational_surface,
    exact_surface,
    load_figure,
    min_order,
)
from chbez.exact import coordinate_ordinates
from conftest import central_difference, rel_error

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
COS = TermFamily.COSINE
SIN = TermFamily.SINE


def dip_denominator_spec(alpha=2.0, eps=0.05):
    """A positive denominator whose raw ordinates start out negative.

    The function ``eps + (cos u - cos(alpha/2))**2`` grazes ``eps`` at the
    interval midpoint; expanded into frequencies 0, 1, 2 its low order
    polygon undershoots zero, so the rational description has to elevate.
    """
    d = math.cos(0.5 * alpha)
    den = CoordinateFunction(
        (
            Term(COS, 0, 0.5 + d * d + eps),
            Term(COS, 1, -2.0 * d),
            Term(COS, 2, 0.5),
        )
    )
    x = CoordinateFunction((Term(COS, 1, 1.0),))
    y = CoordinateFunction((Term(SIN, 1, 1.0),))
    return CurveSpec(TRIG, alpha, (x, y, den))


class TestTerm:
    def test_validation(self):
        with pytest.raises(RangeError):
            Term("cos", 1, 1.0)
        with pytest.raises(RangeError):
            Term(COS, -1, 1.0)
        with pytest.raises(RangeError):
            Term(COS, True, 1.0)
        with pytest.raises(RangeError):
            Term(COS, 1.5, 1.0)
        with pytest.raises(RangeError):
            Term(COS, 1, float("inf"))
        with pytest.raises(RangeError):
            Term(COS, 1, 1.0, float("nan"))

    def test_defaults(self):
        t = Term(SIN, 2, 3.0)
        assert t.phase == 0.0


class TestCoordinateFunction:
    def test_values_match_inline_formula(self):
        fn = CoordinateFunction((Term(COS, 2, 1.5, 0.3), Term(SIN, 1, -0.7, -1.1)))
        us = np.linspace(0.0, 2.0, 17)
        expected = 1.5 * np.cos(2 * us + 0.3) - 0.7 * np.sin(us - 1.1)
        assert_allclose(fn.values(TRIG, us), expected, rtol=1e-15)
        expected_h = 1.5 * np.cosh(2 * us + 0.3) - 0.7 * np.sinh(us - 1.1)
        assert_allclose(fn.values(HYP, us), expected_h, rtol=1e-15)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_differentiated_matches_finite_difference(self, kind):
        fn = CoordinateFunction((Term(COS, 3, 0.8, 0.2), Term(SIN, 2, 1.3, -0.4), Term(COS, 0, 5.0)))
        us = np.linspace(0.1, 1.9, 25)
        exact = fn.differentiated(kind).values(kind, us)
        approx = central_difference(lambda t: fn.values(kind, t), us, 1e-6)
        assert np.abs(exact - approx).max() < 1e-7 * (1.0 + np.abs(exact).max())

    def test_second_derivative_of_pure_cosine(self):
        fn = CoordinateFunction((Term(COS, 3, 2.0),))
        twice = fn.differentiated(TRIG).differentiated(TRIG)
        us = np.linspace(0.0, 1.0, 9)
        assert_allclose(twice.values(TRIG, us), -9.0 * fn.values(TRIG, us), rtol=1e-13)

    def test_empty_sum_is_zero(self):
        fn = CoordinateFunction(())
        assert fn.max_frequency() == 0
        assert_allclose(fn.values(TRIG, np.array([0.3])), [0.0])

    def test_max_frequency(self):
        fn = CoordinateFunction((Term(COS, 0, 1.0), Term(SIN, 4, 1.0), Term(COS, 2, 1.0)))
        assert fn.max_frequency() == 4


class TestCurveSpec:
    def test_validation(self):
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        with pytest.raises(RangeError):
            CurveSpec("trig", 1.0, (x,))
        with pytest.raises(RangeError):
            CurveSpec(TRIG, 1.0, ())
        with pytest.raises(RangeError):
            CurveSpec(TRIG, 3.5, (x,))
        CurveSpec(HYP, 3.5, (x,))

    def test_evaluate_stacks_columns(self):
        spec = CurveSpec(
            TRIG,
            2.0,
            (
                CoordinateFunction((Term(COS, 1, 1.0),)),
                CoordinateFunction((Term(SIN, 1, 1.0),)),
            ),
        )
        us = np.linspace(0.0, 2.0, 5)
        values = spec.evaluate(us)
        assert values.shape == (5, 2)
        assert_allclose(values[:, 0], np.cos(us), rtol=1e-15)
        assert_allclose(values[:, 1], np.sin(us), rtol=1e-15)

    def test_min_order(self):
        const = CoordinateFunction((Term(COS, 0, 2.0),))
        assert min_order(CurveSpec(TRIG, 1.0, (const,))) == 1
        mixed = CoordinateFunction((Term(COS, 0, 1.0), Term(SIN, 3, 1.0)))
        assert min_order(CurveSpec(TRIG, 1.0, (const, mixed))) == 3


class TestCoordinateOrdinates:
    def test_constant_is_exact(self):
        space = BasisSpace(HYP, 3, 2.0)
        fn = CoordinateFunction((Term(COS, 0, 4.25),))
        assert np.all(coordinate_ordinates(fn, space) == 4.25)

    def test_constant_differentiates_to_zero(self):
        space = BasisSpace(TRIG, 2, 1.0)
        fn = CoordinateFunction((Term(COS, 0, 4.25),))
        assert np.all(coordinate_ordinates(fn, space, r=1) == 0.0)

    def test_sine_polygon_over_quarter_turn(self):
        # For order one the polygon of sin(u) is [0, tan(alpha/2), sin(alpha)].
        space = BasisSpace(TRIG, 1, math.pi / 2)
        fn = CoordinateFunction((Term(SIN, 1, 1.0),))
        assert_allclose(coordinate_ordinates(fn, space), [0.0, 1.0, 1.0], atol=1e-15)

    def test_frequency_must_fit_space(self):
        fn = CoordinateFunction((Term(SIN, 3, 1.0),))
        with pytest.raises(RangeError, match="does not fit"):
            coordinate_ordinates(fn, BasisSpace(TRIG, 2, 1.0))

    def test_derivative_order_validation(self):
        fn = CoordinateFunction((Term(SIN, 1, 1.0),))
        space = BasisSpace(TRIG, 1, 1.0)
        with pytest.raises(RangeError):
            coordinate_ordinates(fn, space, r=-1)
        with pytest.raises(RangeError):
            coordinate_ordinates(fn, space, r=0.5)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_derivative_ordinates_reconstruct_derivative(self, kind, r):
        fn = CoordinateFunction((Term(COS, 2, 1.2, 0.5), Term(SIN, 1, -0.4, 0.1)))
        space = BasisSpace(kind, 2, 1.4)
        ords = coordinate_ordinates(fn, space, r)
        us = np.linspace(0.0, 1.4, 31)
        target = fn
        for _ in range(r):
            target = target.differentiated(kind)
        direct = target.values(kind, us)
        recon = basis_matrix(space, us) @ ords
        assert np.abs(recon - direct).max() < 1e-12 * (1.0 + np.abs(direct).max())


class TestExactCurve:
    def test_quadrifolium_at_min_order(self):
        doc = load_figure("quadrifolium")
        spec = doc.spec
        assert min_order(spec) == 3
        crv = exact_curve(spec)
        us = np.linspace(0.0, spec.alpha, 200)
        assert rel_error(evaluate(crv, us), spec.evaluate(us)) < 1e-13

    def test_higher_order_remains_exact(self):
        doc = load_figure("equilateral_hyperbola")
        spec = doc.spec
        us = np.linspace(0.0, spec.alpha, 150)
        direct = spec.evaluate(us)
        for n in (1, 2, 5):
            crv = exact_curve(spec, n)
            assert rel_error(evaluate(crv, us), direct) < 1e-12

    def test_below_min_order_rejected(self):
        spec = load_figure("torus_knot").spec
        with pytest.raises(RangeError, match="minimum order"):
            exact_curve(spec, 4)

    def test_description_commutes_with_elevation(self):
        # Describing at a higher order and elevating the low order polygon
        # are two routes to the same unique representation.
        spec = load_figure("hypocycloid").spec
        n0 = min_order(spec)
        direct = exact_curve(spec, n0 + 2)
        lifted = elevate(exact_curve(spec, n0), 2)
        assert_allclose(lifted.points, direct.points, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_derivative_path_consistency(self, r):
        # Differentiating the spec first and describing, or describing with
        # the derivative flag, must give the same polygon.
        spec = load_figure("quadrifolium").spec
        n = min_order(spec)
        shifted = spec
        for _ in range(r):
            shifted = shifted.differentiated()
        a = exact_curve(shifted, n).points
        b = exact_curve(spec, n, r).points
        assert np.abs(a - b).max() < 1e-12 * (1.0 + np.abs(a).max())

    @pytest.mark.parametrize(
        "figure",
        ["hypocycloid", "torus_knot", "equilateral_hyperbola", "rational_hyperbolic_arc_a"],
    )
    def test_derivative_flag_is_the_differentiated_spec_bit_for_bit(self, figure):
        # Both paths apply one derivative rule, so the bytes agree, not only the values.
        spec = load_figure(figure).spec
        n = min_order(spec) + 1
        a = exact_curve(spec.differentiated(), n).points
        b = exact_curve(spec, n, 1).points
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_derivative_flag_bytes_with_phases(self, kind):
        terms = (Term(COS, 0, 2.0), Term(SIN, 3, -1.5, 0.4), Term(COS, 2, 0.7, -1.1))
        fn = CoordinateFunction(terms)
        spec = CurveSpec(kind, 1.3, (fn, CoordinateFunction((Term(SIN, 1, 0.3, 2.5),))))
        for n in (3, 7):
            a = exact_curve(spec.differentiated(), n).points
            assert a.tobytes() == exact_curve(spec, n, 1).points.tobytes()

    def test_derivative_matches_finite_difference(self):
        spec = load_figure("hypocycloid").spec
        crv = exact_curve(spec, r=1)
        us = np.linspace(0.05, spec.alpha - 0.05, 50)
        approx = central_difference(lambda t: spec.evaluate(t), us, 1e-6)
        assert rel_error(evaluate(crv, us), approx) < 1e-7

    @pytest.mark.parametrize("r", [0, 1])
    def test_overflowing_channel_is_named(self, r):
        huge = CoordinateFunction((Term(COS, 1, 1e308), Term(SIN, 1, 1e308)))
        spec = CurveSpec(HYP, 2.0, (CoordinateFunction((Term(COS, 1, 1.0),)), huge))
        with pytest.raises(RangeError, match=r"^coords\[1\]: control points overflow double"):
            exact_curve(spec, 3, r)


class TestExactRationalCurve:
    def test_unit_denominator_gives_unit_weights(self):
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        y = CoordinateFunction((Term(SIN, 1, 1.0),))
        one = CoordinateFunction((Term(COS, 0, 1.0),))
        res = exact_rational_curve(CurveSpec(TRIG, 2.0, (x, y, one)))
        assert res.elevations == 0
        assert np.all(res.weights == 1.0)
        plain = exact_curve(CurveSpec(TRIG, 2.0, (x, y)))
        assert_allclose(res.curve.points, plain.points, rtol=1e-14)

    def test_lemniscate_weights_positive_without_elevation(self):
        spec = load_figure("lemniscate").spec
        for n in (2, 3, 4):
            res = exact_rational_curve(spec, n)
            assert res.elevations == 0
            assert np.all(res.weights > 0.0)

    def test_dip_denominator_needs_elevations(self):
        res = exact_rational_curve(dip_denominator_spec())
        assert res.elevations == 6
        assert res.order == 8
        assert res.weights.min() == pytest.approx(0.005355483215386277, rel=1e-10)
        spec = dip_denominator_spec()
        us = np.linspace(0.0, spec.alpha, 300)
        den = spec.coords[-1].values(TRIG, us)
        direct = spec.evaluate(us)[:, :2] / den[:, None]
        assert rel_error(evaluate(res.curve, us), direct) < 1e-12

    def test_exhausted_budget_reports_bad_indices(self):
        with pytest.raises(NumericalError, match="after 3 elevation"):
            exact_rational_curve(dip_denominator_spec(), max_elevations=3)
        try:
            exact_rational_curve(dip_denominator_spec(), max_elevations=3)
        except NumericalError as err:
            assert err.indices == [5, 6]

    def test_zero_budget_keeps_min_order(self):
        try:
            exact_rational_curve(dip_denominator_spec(), max_elevations=0)
        except NumericalError as err:
            assert err.indices == [2, 3]
        else:
            pytest.fail("expected a NumericalError")

    def test_order_cap_stops_hopeless_elevation(self):
        # With a tighter graze the ordinates stay negative all the way to
        # the largest representable order; the loop must stop cleanly.
        with pytest.raises(NumericalError, match="not positive"):
            exact_rational_curve(dip_denominator_spec(eps=0.002))

    def test_overflowing_projection_is_named(self):
        # The weights pass the floor, which scales with them; coords[1] over
        # them overflows, coords[0] does not.  pytest turns a RuntimeWarning
        # into an error, so none may be emitted either.
        small = CoordinateFunction((Term(SIN, 1, 1e-300),))
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        tiny = CoordinateFunction((Term(COS, 0, 1e-320),))
        with pytest.raises(RangeError, match=r"^coords\[1\]: control points overflow double"):
            exact_rational_curve(CurveSpec(TRIG, 2.0, (small, x, tiny)))

    def test_denominator_scale_does_not_decide_positivity(self):
        # A quarter circle over 1e-13: the circle scaled by 1e13, and its
        # weights are positive at the minimum order.
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        y = CoordinateFunction((Term(SIN, 1, 1.0),))
        tiny = CoordinateFunction((Term(COS, 0, 1e-13),))
        res = exact_rational_curve(CurveSpec(TRIG, 0.5 * math.pi, (x, y, tiny)))
        assert (res.elevations, res.order) == (0, 1)
        us = np.linspace(0.0, 0.5 * math.pi, 50)
        circle = np.column_stack([np.cos(us), np.sin(us)])
        assert_allclose(evaluate(res.curve, us) * 1e-13, circle, atol=1e-12)

    def test_widely_spread_weights_count_as_positive(self):
        # tanh(u) and 1 / cosh(u) over [0, 30]: the pre-image weights run from
        # cosh(0) = 1 to cosh(30) ~ 5.3e12 and are positive at order 1.
        x = CoordinateFunction((Term(SIN, 1, 1.0),))
        y = CoordinateFunction((Term(COS, 0, 1.0),))
        den = CoordinateFunction((Term(COS, 1, 1.0),))
        res = exact_rational_curve(CurveSpec(HYP, 30.0, (x, y, den)))
        assert (res.elevations, res.order) == (0, 1)
        us = np.linspace(0.0, 30.0, 61)
        expected = np.column_stack([np.tanh(us), 1.0 / np.cosh(us)])
        assert_allclose(evaluate(res.curve, us), expected, atol=1e-12)
        assert_allclose(evaluate(elevate(res.curve, 2), us), expected, atol=1e-12)

    def test_weight_just_above_the_positivity_floor(self):
        # 1 + 1e-11 - cos(u) over the quarter turn has the order one polygon
        # [1e-11, 1e-11, 1 + 1e-11]: positive at 1e-11 of the largest weight,
        # ten times the floor WEIGHT_POSITIVITY, so no elevation step is taken.
        x = CoordinateFunction((Term(SIN, 1, 1.0),))
        y = CoordinateFunction((Term(COS, 1, 1.0),))
        den = CoordinateFunction((Term(COS, 0, 1.0 + 1e-11), Term(COS, 1, -1.0)))
        spec = CurveSpec(TRIG, 0.5 * math.pi, (x, y, den))
        res = exact_rational_curve(spec)
        assert (res.elevations, res.order) == (0, 1)
        assert res.weights.min() / res.weights.max() == pytest.approx(1e-11, rel=1e-4)
        us = np.linspace(0.1, 0.5 * math.pi, 40)
        direct = spec.evaluate(us)[:, :2] / den.values(TRIG, us)[:, None]
        assert rel_error(evaluate(res.curve, us), direct) < 1e-12

    def test_nonpositive_denominator_rejected(self):
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        y = CoordinateFunction((Term(SIN, 1, 1.0),))
        with pytest.raises(NumericalError, match="not positive on"):
            exact_rational_curve(CurveSpec(TRIG, 2.0, (x, y, y)))

    def test_validation(self):
        x = CoordinateFunction((Term(COS, 1, 1.0),))
        with pytest.raises(RangeError, match="numerator and denominator"):
            exact_rational_curve(CurveSpec(TRIG, 2.0, (x,)))
        spec = dip_denominator_spec()
        with pytest.raises(RangeError):
            exact_rational_curve(spec, max_elevations=-1)

    def test_bool_budget_rejected(self):
        with pytest.raises(RangeError) as exc:
            exact_rational_curve(dip_denominator_spec(), max_elevations=True)
        assert str(exc.value) == "max_elevations must be a nonnegative integer, got True"

    @pytest.mark.parametrize("alpha, steps", [(12.0, 24), (20.0, 14)])
    def test_repair_stops_at_the_overflow_guard(self, alpha, steps):
        """The weights need an order whose n * alpha passes 300: a numerical failure.

        The loop stops at the last order within the guard, 300 / alpha, with
        the middle weight still not positive, instead of building a space
        the guard refuses.
        """
        x = CoordinateFunction((Term(SIN, 1, 1.0),))
        y = CoordinateFunction((Term(COS, 1, 1.0),))
        den = CoordinateFunction((Term(COS, 0, -0.999), Term(COS, 1, 1.0, -0.5 * alpha)))
        with pytest.raises(NumericalError) as exc:
            exact_rational_curve(CurveSpec(HYP, alpha, (x, y, den)))
        assert str(exc.value) == f"weights not positive after {steps} elevation(s)"
        assert exc.value.indices == [steps + 1]


def _hypocycloid_x():
    """hypocycloid.json without its y coordinate: too few coordinates to be rational."""
    spec = load_figure("hypocycloid").spec
    return CurveSpec(spec.kind, spec.alpha, spec.coords[:1])


def _torus_over_z():
    """torus_patch.json read as rational: its z, which vanishes on the box, is the denominator."""
    spec = load_figure("torus_patch").spec
    return SurfaceSpec(spec.directions, 0, spec.coords)


def _hypocycloid_huge_x():
    """hypocycloid.json with the amplitudes of its x set to 1e308: its control points overflow."""
    spec = load_figure("hypocycloid").spec
    x = CoordinateFunction(tuple(Term(t.family, t.frequency, 1e308, t.phase)
                                 for t in spec.coords[0].terms))
    return CurveSpec(spec.kind, spec.alpha, (x, *spec.coords[1:]))


# Specs a DESCRIBE_ERRORS row may name besides the bundled figures.
DERIVED_SPECS = {"hypocycloid_x": _hypocycloid_x, "torus_over_z": _torus_over_z,
                 "hypocycloid_huge_x": _hypocycloid_huge_x}

_INTEGER = "order n must be an integer, got "
_CAP = "degree 2n = 80 exceeds the supported cap 64"
_CURVE_R = "derivative order must be a nonnegative integer, got "
_PATCH_R = "derivative orders must be 2 nonnegative integers, got "
_BUDGET = "max_elevations must be a nonnegative integer, got "
_CURVE_DEN = "denominator is not positive on [0, 2.35619] (fails near u = 0.419403)"
_PATCH_DEN = "denominator is not positive on the box (fails near u = (2.356194490192345, 0.0))"

# id, entry point, spec (a bundled figure or a DERIVED_SPECS name), arguments after
# the spec -> error type and the whole error text.  hypocycloid's minimum order is
# 4, lemniscate's 2, torus_patch's (1, 1) and rational_trigonometric_patch's (1, 9);
# the two-fault rows pin which fault is reported first.
DESCRIBE_ERRORS = [
    # Orders.
    ("curve-order-zero", exact_curve, "hypocycloid", (0,), RangeError,
     "order 0 below the curve's minimum order 4"),
    ("curve-order-whole-float", exact_curve, "hypocycloid", (2.0,), RangeError,
     f"{_INTEGER}2.0"),
    ("curve-order-float", exact_curve, "hypocycloid", (2.5,), RangeError, f"{_INTEGER}2.5"),
    ("curve-order-float-above-minimum", exact_curve, "hypocycloid", (5.5,), RangeError,
     f"{_INTEGER}5.5"),
    ("curve-order-bool", exact_curve, "hypocycloid", (True,), RangeError, f"{_INTEGER}True"),
    ("curve-order-string", exact_curve, "hypocycloid", ("5",), RangeError, f"{_INTEGER}'5'"),
    ("curve-order-numpy", exact_curve, "hypocycloid", (np.int64(3),), RangeError,
     "order 3 below the curve's minimum order 4"),
    ("curve-order-cap", exact_curve, "hypocycloid", (40,), RangeError, _CAP),
    ("rational-curve-order-zero", exact_rational_curve, "lemniscate", (0,), RangeError,
     "order 0 below the curve's minimum order 2"),
    ("rational-curve-order-float", exact_rational_curve, "lemniscate", (2.5,), RangeError,
     f"{_INTEGER}2.5"),
    ("rational-curve-order-bool", exact_rational_curve, "lemniscate", (True,), RangeError,
     f"{_INTEGER}True"),
    ("rational-curve-order-string", exact_rational_curve, "lemniscate", ("5",), RangeError,
     f"{_INTEGER}'5'"),
    ("rational-curve-order-cap", exact_rational_curve, "lemniscate", (40,), RangeError, _CAP),
    ("patch-order-zero", exact_surface, "torus_patch", ((0, 1),), RangeError,
     "order 0 in direction 0 below the minimum 1"),
    ("patch-order-whole-float", exact_surface, "torus_patch", ((2.0, 1),), RangeError,
     f"{_INTEGER}2.0"),
    ("patch-order-float", exact_surface, "torus_patch", ((1, 2.5),), RangeError,
     f"{_INTEGER}2.5"),
    ("patch-order-bool", exact_surface, "torus_patch", ((True, 1),), RangeError,
     f"{_INTEGER}True"),
    ("patch-order-string", exact_surface, "torus_patch", (("5", 1),), RangeError,
     f"{_INTEGER}'5'"),
    ("patch-order-cap", exact_surface, "torus_patch", ((40, 1),), RangeError, _CAP),
    ("patch-order-count", exact_surface, "torus_patch", ((3,),), RangeError,
     "expected 2 orders, got 1"),
    ("rational-patch-order-numpy", exact_rational_surface, "rational_trigonometric_patch",
     ((np.int64(5), np.int64(5)),), RangeError, "order 5 in direction 1 below the minimum 9"),
    ("rational-patch-order-count", exact_rational_surface, "rational_trigonometric_patch",
     ((2, 9, 1),), RangeError, "expected 2 orders, got 3"),
    ("rational-patch-order-float", exact_rational_surface, "rational_trigonometric_patch",
     ((2, 9.0),), RangeError, f"{_INTEGER}9.0"),
    ("rational-patch-order-cap", exact_rational_surface, "rational_trigonometric_patch",
     ((40, 9),), RangeError, _CAP),
    ("patch-order-scalar", exact_surface, "torus_patch", (5,), RangeError,
     "expected a sequence of 2 orders, got 5"),
    ("patch-order-numpy-scalar", exact_surface, "torus_patch", (np.int64(5),), RangeError,
     "expected a sequence of 2 orders, got np.int64(5)"),
    ("rational-patch-order-scalar", exact_rational_surface, "rational_trigonometric_patch",
     (9,), RangeError, "expected a sequence of 2 orders, got 9"),
    # Derivative orders.
    ("curve-derivative-negative", exact_curve, "hypocycloid", (None, -1), RangeError,
     f"{_CURVE_R}-1"),
    ("curve-derivative-float", exact_curve, "hypocycloid", (None, 1.0), RangeError,
     f"{_CURVE_R}1.0"),
    ("curve-derivative-bool", exact_curve, "hypocycloid", (None, True), RangeError,
     f"{_CURVE_R}True"),
    ("patch-derivative-negative", exact_surface, "torus_patch", (None, (-1, 0)), RangeError,
     f"{_PATCH_R}(-1, 0)"),
    ("patch-derivative-float", exact_surface, "torus_patch", (None, (0, 1.0)), RangeError,
     f"{_PATCH_R}(0, 1.0)"),
    ("patch-derivative-bool", exact_surface, "torus_patch", (None, (True, 0)), RangeError,
     f"{_PATCH_R}(True, 0)"),
    ("patch-derivative-count", exact_surface, "torus_patch", (None, (0,)), RangeError,
     f"{_PATCH_R}(0,)"),
    ("patch-derivative-scalar", exact_surface, "torus_patch", (None, 1), RangeError,
     f"{_PATCH_R}1"),
    ("patch-derivative-float-scalar", exact_surface, "torus_patch", ((1, 1), 1.5), RangeError,
     f"{_PATCH_R}1.5"),
    # k**r beyond double range, refused before the exact integer k**r is built.
    ("curve-derivative-overflow", exact_curve, "hypocycloid", (None, 1000), RangeError,
     "derivative order 1000 overflows: 4**1000 exceeds double range"),
    ("patch-derivative-overflow", exact_surface, "star_surface", (None, (400, 0)), RangeError,
     "derivative order 400 overflows: 6**400 exceeds double range"),
    # Elevation budgets and denominators.
    ("curve-budget-negative", exact_rational_curve, "lemniscate", (None, -1), RangeError,
     f"{_BUDGET}-1"),
    ("curve-budget-bool", exact_rational_curve, "lemniscate", (None, True), RangeError,
     f"{_BUDGET}True"),
    ("patch-budget-negative", exact_rational_surface, "rational_trigonometric_patch",
     (None, -1), RangeError, f"{_BUDGET}-1"),
    ("patch-budget-bool", exact_rational_surface, "rational_trigonometric_patch",
     (None, True), RangeError, f"{_BUDGET}True"),
    ("curve-denominator", exact_rational_curve, "hypocycloid", (), NumericalError, _CURVE_DEN),
    ("patch-denominator", exact_rational_surface, "torus_over_z", (), NumericalError,
     _PATCH_DEN),
    # Two faults: the one reported first.
    ("curve-dimension-before-budget", exact_rational_curve, "hypocycloid_x", (None, -1),
     RangeError, "rational description needs numerator and denominator coordinates"),
    ("patch-dimension-before-budget", exact_rational_surface, "torus_patch", (None, -1),
     RangeError,
     "rational description expects delta + kappa + 1 coordinates (the trailing denominator)"),
    ("curve-budget-before-denominator", exact_rational_curve, "hypocycloid", (None, -1),
     RangeError, f"{_BUDGET}-1"),
    ("patch-budget-before-denominator", exact_rational_surface, "torus_over_z", (None, True),
     RangeError, f"{_BUDGET}True"),
    ("curve-denominator-before-order", exact_rational_curve, "hypocycloid", (0,),
     NumericalError, _CURVE_DEN),
    ("curve-denominator-before-overflow", exact_rational_curve, "hypocycloid_huge_x", (),
     NumericalError, _CURVE_DEN),
    ("curve-overflow", exact_curve, "hypocycloid_huge_x", (), RangeError,
     "coords[0]: control points overflow double precision"),
    ("patch-denominator-before-order", exact_rational_surface, "torus_over_z", ((0, 0),),
     NumericalError, _PATCH_DEN),
    ("patch-integer-before-count", exact_surface, "torus_patch", ((2.5,),), RangeError,
     f"{_INTEGER}2.5"),
    ("patch-count-before-minimum", exact_surface, "torus_patch", ((0,),), RangeError,
     "expected 2 orders, got 1"),
    ("patch-minimum-before-derivative", exact_surface, "rational_trigonometric_patch",
     ((1, 1), (-1, 0)), RangeError, "order 1 in direction 1 below the minimum 9"),
    ("patch-cap-after-derivative", exact_surface, "torus_patch", ((40, 1), (-1, 0)),
     RangeError, f"{_PATCH_R}(-1, 0)"),
    ("curve-cap-before-derivative", exact_curve, "hypocycloid", (40, -1), RangeError, _CAP),
]  # fmt: skip


@pytest.mark.parametrize(
    "entry, figure, args, error, message",
    [row[1:] for row in DESCRIBE_ERRORS],
    ids=[row[0] for row in DESCRIBE_ERRORS],
)
def test_describe_error_text(entry, figure, args, error, message):
    spec = DERIVED_SPECS[figure]() if figure in DERIVED_SPECS else load_figure(figure).spec
    with pytest.raises(Exception) as exc:
        entry(spec, *args)
    assert (type(exc.value), str(exc.value)) == (error, message)


def _sampled(spec):
    raise AssertionError("an accepted description sampled its denominator")


def test_accepted_rational_descriptions_never_sample_the_denominator(monkeypatch, capsys):
    # Their positive weights prove the denominator positive, in the library and the CLI alike.
    from chbez import exact
    from chbez.cli import main

    monkeypatch.setattr(exact, "_check_denominator", _sampled)
    assert exact_rational_curve(load_figure("lemniscate").spec).elevations == 0
    grid = exact_rational_surface(load_figure("rational_trigonometric_patch").spec)
    assert (grid.weights > 0).all()
    figure = Path(exact.__file__).parent / "figures" / "lemniscate.json"
    assert main(["describe-rational", "--spec", str(figure)]) == 0
    assert capsys.readouterr().err == ""


def test_patch_orders_and_derivative_orders_may_be_iterators():
    spec = load_figure("torus_patch").spec
    grid = exact_surface(spec, iter((2, 1)), iter((0, 1)))
    assert grid.orders == (2, 1)
    assert grid.points.tobytes() == exact_surface(spec, (2, 1), (0, 1)).points.tobytes()
