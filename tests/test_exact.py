"""Tests for exact curve descriptions in the B-basis."""

import math

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
    Term,
    TermFamily,
    basis_matrix,
    elevate,
    evaluate,
    exact_curve,
    exact_rational_curve,
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

    def test_derivative_matches_finite_difference(self):
        spec = load_figure("hypocycloid").spec
        crv = exact_curve(spec, r=1)
        us = np.linspace(0.05, spec.alpha - 0.05, 50)
        approx = central_difference(lambda t: spec.evaluate(t), us, 1e-6)
        assert rel_error(evaluate(crv, us), approx) < 1e-7


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
