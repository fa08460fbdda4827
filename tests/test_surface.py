"""Tests for tensor product surface and volume descriptions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    ControlGrid,
    CoordinateFunction,
    Direction,
    NumericalError,
    ProductTerm,
    RangeError,
    SurfaceCoordinateFunction,
    SurfaceSpec,
    Term,
    TermFamily,
    evaluate_surface,
    exact_rational_surface,
    exact_surface,
    load_figure,
    min_orders,
    sample_lattice,
)

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
COS = TermFamily.COSINE
SIN = TermFamily.SINE


from conftest import lattice_direct


def fn(*terms):
    return CoordinateFunction(tuple(terms))


def one():
    return fn(Term(COS, 0, 1.0))


def coord(*summands):
    return SurfaceCoordinateFunction(tuple(ProductTerm(tuple(s)) for s in summands))


def mixed_kind_spec():
    """A trig x hyperbolic patch with a two-summand coordinate."""
    dirs = (Direction(TRIG, 2.0), Direction(HYP, 1.5))
    coords = (
        coord([fn(Term(COS, 1, 1.0)), one()]),
        coord([one(), fn(Term(SIN, 2, 0.5))]),
        coord(
            [fn(Term(COS, 2, 1.0, 0.3)), fn(Term(COS, 1, 1.0))],
            [fn(Term(SIN, 1, -0.4)), one()],
        ),
    )
    return SurfaceSpec(dirs, 1, coords)


def dip_denominator_surface(eps=0.05, scale=1.0):
    d = math.cos(1.0)
    dip = fn(
        Term(COS, 0, scale * (0.5 + d * d + eps)),
        Term(COS, 1, scale * -2.0 * d),
        Term(COS, 2, scale * 0.5),
    )
    dirs = (Direction(TRIG, 2.0), Direction(TRIG, 2.0))
    coords = (
        coord([fn(Term(COS, 1, 1.0)), one()]),
        coord([one(), fn(Term(SIN, 1, 1.0))]),
        coord([dip, one()]),
    )
    return SurfaceSpec(dirs, 0, coords)


class TestSpecValidation:
    def test_direction_alpha_checked_per_kind(self):
        with pytest.raises(RangeError):
            Direction(TRIG, 3.5)
        Direction(HYP, 3.5)

    def test_direction_count_bounds(self):
        c = coord([one()])
        with pytest.raises(RangeError, match="directions"):
            SurfaceSpec((Direction(TRIG, 1.0),), 0, (c,))
        five = tuple(Direction(TRIG, 1.0) for _ in range(5))
        with pytest.raises(RangeError, match="directions"):
            SurfaceSpec(five, 0, (coord([one()] * 5),) * 5)

    def test_coordinate_count_must_fit_kappa(self):
        dirs = (Direction(TRIG, 1.0), Direction(TRIG, 1.0))
        c = coord([one(), one()])
        with pytest.raises(RangeError, match="expected 3 coordinates"):
            SurfaceSpec(dirs, 1, (c, c))
        SurfaceSpec(dirs, 1, (c, c, c))
        SurfaceSpec(dirs, 1, (c, c, c, c))
        with pytest.raises(RangeError):
            SurfaceSpec(dirs, 1, (c, c, c, c, c))
        with pytest.raises(RangeError):
            SurfaceSpec(dirs, -1, (c, c))

    @pytest.mark.parametrize("kappa", [True, False, 1.0, -1])
    def test_kappa_must_be_a_count(self, kappa):
        dirs = (Direction(TRIG, 1.0), Direction(TRIG, 1.0))
        c = coord([one(), one()])
        with pytest.raises(RangeError, match=f"kappa must be a nonnegative integer, got {kappa!r}"):
            SurfaceSpec(dirs, kappa, (c, c, c))

    def test_factor_count_must_match_directions(self):
        dirs = (Direction(TRIG, 1.0), Direction(TRIG, 1.0))
        bad = coord([one(), one(), one()])
        good = coord([one(), one()])
        with pytest.raises(RangeError, match=r"coords\[1\].summands\[0\]"):
            SurfaceSpec(dirs, 0, (good, bad))

    def test_empty_coordinate_rejected(self):
        with pytest.raises(RangeError, match="at least one summand"):
            SurfaceCoordinateFunction(())

    def test_rational_flag(self):
        dirs = (Direction(TRIG, 1.0), Direction(TRIG, 1.0))
        c = coord([one(), one()])
        assert not SurfaceSpec(dirs, 0, (c, c)).is_rational
        assert SurfaceSpec(dirs, 0, (c, c, c)).is_rational


class TestMinOrders:
    def test_hand_built(self):
        spec = mixed_kind_spec()
        assert min_orders(spec) == (2, 2)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("torus_patch", (1, 1)),
            ("star_surface", (6, 1)),
            ("rational_hyperbolic_butterfly", (4, 2)),
            ("rational_trigonometric_patch", (1, 9)),
            ("trigonometric_volume_2", (3, 1, 3)),
            ("hybrid_rational_volume", (1, 1, 3)),
        ],
    )
    def test_bundled_figures(self, name, expected):
        assert min_orders(load_figure(name).spec) == expected


class TestExactSurface:
    def test_reconstruction_on_lattice(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        counts = (21, 19)
        recon = sample_lattice(grid, spec.directions, counts)
        direct = lattice_direct(spec, counts)
        assert np.abs(recon - direct).max() < 1e-13 * (1.0 + np.abs(direct).max())

    def test_higher_orders_remain_exact(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec, orders=(3, 4))
        assert grid.orders == (3, 4)
        assert grid.points.shape == (7, 9, 3)
        counts = (9, 9)
        recon = sample_lattice(grid, spec.directions, counts)
        direct = lattice_direct(spec, counts)
        assert np.abs(recon - direct).max() < 1e-12 * (1.0 + np.abs(direct).max())

    def test_order_validation(self):
        spec = mixed_kind_spec()
        with pytest.raises(RangeError, match="expected 2 orders"):
            exact_surface(spec, orders=(3,))
        with pytest.raises(RangeError, match="below the minimum"):
            exact_surface(spec, orders=(1, 2))
        with pytest.raises(RangeError, match="derivative orders"):
            exact_surface(spec, r=(1,))
        with pytest.raises(RangeError):
            exact_surface(spec, r=(1, -1))

    @pytest.mark.parametrize("r", [(1.7, 0), (True, 0), (0, 1.0)], ids=str)
    def test_non_integer_derivative_orders_rejected(self, r):
        with pytest.raises(RangeError) as exc:
            exact_surface(mixed_kind_spec(), r=r)
        assert str(exc.value) == f"derivative orders must be 2 nonnegative integers, got {r!r}"

    @pytest.mark.parametrize("orders", [(2.7, 2), (2, 2.0), (True, 2)], ids=str)
    def test_non_integer_orders_rejected(self, orders):
        with pytest.raises(RangeError, match=r"^order n must be an integer, got "):
            exact_surface(mixed_kind_spec(), orders=orders)
        with pytest.raises(RangeError, match=r"^order n must be an integer, got "):
            exact_rational_surface(dip_denominator_surface(), orders=orders)

    def test_separable_mixed_partial_is_analytic(self):
        # cos(u1) * sinh(2 u2) has mixed partial -sin(u1) * 2 cosh(2 u2).
        dirs = (Direction(TRIG, 2.2), Direction(HYP, 1.1))
        spec = SurfaceSpec(dirs, 0, (coord([one(), one()]), coord([fn(Term(COS, 1, 1.0)), fn(Term(SIN, 2, 1.0))])))
        grid = exact_surface(spec, orders=(1, 2), r=(1, 1))
        counts = (13, 11)
        recon = sample_lattice(grid, spec.directions, counts)
        u1 = np.linspace(0.0, 2.2, 13)
        u2 = np.linspace(0.0, 1.1, 11)
        direct = np.multiply.outer(-np.sin(u1), 2.0 * np.cosh(2.0 * u2))
        assert np.abs(recon[..., 1] - direct).max() < 1e-12 * (1.0 + np.abs(direct).max())
        assert np.abs(recon[..., 0]).max() < 1e-12

    def test_volume_reconstruction(self):
        doc = load_figure("trigonometric_volume_1")
        spec = doc.spec
        grid = exact_surface(spec)
        counts = (7, 7, 7)
        recon = sample_lattice(grid, spec.directions, counts)
        direct = lattice_direct(spec, counts)
        assert np.abs(recon - direct).max() < 1e-12 * (1.0 + np.abs(direct).max())


class TestControlGrid:
    def test_shape_validation(self):
        with pytest.raises(RangeError, match="does not match orders"):
            ControlGrid((1, 1), np.zeros((3, 5, 2)))
        with pytest.raises(RangeError):
            ControlGrid((1, 1), np.zeros((3, 3, 2)), np.ones((3, 5)))

    def test_points_read_only(self):
        grid = ControlGrid((1, 1), np.zeros((3, 3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            grid.points[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            grid.weights[0, 0] = 2.0

    def test_points_must_be_finite(self):
        points = np.zeros((3, 3, 2))
        points[1, 2, 0] = np.nan
        with pytest.raises(RangeError, match="^control points must be finite$"):
            ControlGrid((1, 1), points)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, 0.0], ids=str)
    def test_weights_finite_nonnegative_not_all_zero(self, bad):
        weights = np.ones((3, 3))
        weights[1, 1] = bad
        if bad == 0.0:
            weights[:] = 0.0
        with pytest.raises(RangeError, match="^weights must be finite, nonnegative and not all zero$"):
            ControlGrid((1, 1), np.zeros((3, 3, 2)), weights)

    @pytest.mark.parametrize(
        "bad",
        [np.nan, -np.nan, np.inf, -np.inf, -1e-300, 0.0],
        ids=["nan", "negative-nan", "inf", "-inf", "negative", "all-zero"],
    )
    def test_each_bad_weight_rejected_anywhere(self, bad):
        # The bad entry sits in the last corner, past every positive weight.
        weights = np.ones((3, 3)) if bad != 0.0 else np.zeros((3, 3))
        weights[2, 2] = bad
        with pytest.raises(RangeError, match="^weights must be finite, nonnegative and not all zero$"):
            ControlGrid((1, 1), np.zeros((3, 3, 2)), weights)

    def test_weight_shape_is_checked_before_values(self):
        with pytest.raises(RangeError, match="^weights shape \\(3, 2\\) does not match orders"):
            ControlGrid((1, 1), np.zeros((3, 3, 2)), np.full((3, 2), np.nan))

    def test_channels_count_the_last_axis(self):
        assert ControlGrid((1, 2), np.zeros((3, 5, 4))).channels == 4


class TestEvaluateSurface:
    def test_matches_lattice_sampling(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        counts = (5, 4)
        lattice = sample_lattice(grid, spec.directions, counts)
        u1 = np.linspace(0.0, 2.0, 5)
        u2 = np.linspace(0.0, 1.5, 4)
        for i, a in enumerate(u1):
            for j, b in enumerate(u2):
                point = evaluate_surface(grid, spec.directions, np.array([a, b]))
                assert_allclose(point, lattice[i, j], atol=1e-12)

    def test_parameter_shape_validation(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        with pytest.raises(RangeError, match="expected 2 parameters"):
            evaluate_surface(grid, spec.directions, np.zeros(3))

    def test_direction_count_validation(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        with pytest.raises(RangeError, match="expected 2 directions"):
            sample_lattice(grid, spec.directions[:1], (5, 5))

    def test_vanishing_denominator_reported_with_plain_floats(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        weights = np.zeros(grid.points.shape[:-1])
        weights[0, 0] = 1.0
        rational = ControlGrid(grid.orders, grid.points, weights)
        with pytest.raises(NumericalError) as err:
            evaluate_surface(rational, spec.directions, [2.0, 0.5])
        assert str(err.value) == "rational denominator vanishes at u = (2.0, 0.5)"

    def test_weight_scale_does_not_decide_evaluation(self):
        # The weight floor is relative: tiny weights describe the same patch.
        spec = dip_denominator_surface()
        grid = exact_rational_surface(spec)
        tiny = ControlGrid(grid.orders, grid.points, grid.weights * 1e-20)
        counts = (7, 6)
        want = sample_lattice(grid, spec.directions, counts)
        assert_allclose(sample_lattice(tiny, spec.directions, counts), want, atol=1e-12)
        point = evaluate_surface(tiny, spec.directions, [2.0, 2.0])
        assert_allclose(point, want[-1, -1], atol=1e-12)

    def test_sample_count_validation(self):
        spec = mixed_kind_spec()
        grid = exact_surface(spec)
        with pytest.raises(RangeError, match="at least 2 samples"):
            sample_lattice(grid, spec.directions, (1, 5))

    @pytest.mark.parametrize(
        "counts,message",
        [
            (5, "expected a sequence of 2 sample counts, got 5"),
            ((2.9, 3), "sample count must be an integer, got 2.9"),
            (("4", 3), "sample count must be an integer, got '4'"),
            ((True, 3), "sample count must be an integer, got True"),
            ((3, 3, 3), "expected 2 sample counts, got 3"),
            ((1, 5), "need at least 2 samples per direction, got (1, 5)"),
        ],
    )
    def test_sample_counts_follow_the_integer_rule(self, counts, message):
        # The counts are checked like the orders: a sequence first, then its
        # entries' type, then its length, then each count's range.
        spec = load_figure("torus_patch").spec
        grid = exact_surface(spec)
        with pytest.raises(RangeError) as err:
            sample_lattice(grid, spec.directions, counts)
        assert str(err.value) == message

    def test_numpy_integer_sample_counts_accepted(self):
        spec = load_figure("torus_patch").spec
        grid = exact_surface(spec)
        lattice = sample_lattice(grid, spec.directions, np.array([4, 3]))
        assert lattice.shape == (4, 3, grid.channels)


class TestExactRationalSurface:
    def test_unit_denominator_gives_unit_weights(self):
        dirs = (Direction(TRIG, 1.5), Direction(TRIG, 1.0))
        spec = SurfaceSpec(
            dirs,
            0,
            (
                coord([fn(Term(COS, 1, 1.0)), one()]),
                coord([one(), fn(Term(SIN, 1, 1.0))]),
                coord([one(), one()]),
            ),
        )
        grid = exact_rational_surface(spec)
        assert np.all(grid.weights == 1.0)
        assert grid.orders == min_orders(spec)

    def test_dip_denominator_needs_elevations(self):
        spec = dip_denominator_surface()
        grid = exact_rational_surface(spec)
        assert grid.orders == (8, 6)
        assert grid.weights.min() == pytest.approx(0.005355483215386277, rel=1e-10)
        counts = (15, 15)
        recon = sample_lattice(grid, spec.directions, counts)
        full = lattice_direct(spec, counts)
        direct = full[..., :2] / full[..., 2:]
        assert np.abs(recon - direct).max() < 1e-10

    def test_bool_budget_rejected(self):
        with pytest.raises(RangeError) as exc:
            exact_rational_surface(dip_denominator_surface(), max_elevations=True)
        assert str(exc.value) == "max_elevations must be a nonnegative integer, got True"

    def test_exhausted_budget_reports_multi_indices(self):
        spec = dip_denominator_surface()
        with pytest.raises(NumericalError, match="after 2 elevation"):
            exact_rational_surface(spec, max_elevations=2)
        try:
            exact_rational_surface(spec, max_elevations=2)
        except NumericalError as err:
            assert err.indices
            assert all(isinstance(idx, tuple) and len(idx) == 2 for idx in err.indices)
            assert (3, 0) in err.indices

    def test_nonpositive_denominator_rejected(self):
        dirs = (Direction(TRIG, 1.5), Direction(TRIG, 1.0))
        spec = SurfaceSpec(
            dirs,
            0,
            (
                coord([one(), one()]),
                coord([one(), one()]),
                coord([fn(Term(SIN, 1, 1.0)), one()]),
            ),
        )
        with pytest.raises(NumericalError, match="not positive on the box"):
            exact_rational_surface(spec)

    def test_denominator_scale_does_not_decide_positivity(self):
        # The same patch scaled by 1e13 needs the same elevations.
        grid = exact_rational_surface(dip_denominator_surface(scale=1e-13))
        want = exact_rational_surface(dip_denominator_surface())
        assert grid.orders == want.orders == (8, 6)
        assert_allclose(grid.points * 1e-13, want.points, rtol=1e-12)

    def test_overflowing_projection_is_named(self):
        # As for curves: positive tiny weights, and only coords[1] overflows over them.
        dirs = (Direction(TRIG, 1.5), Direction(HYP, 1.0))
        spec = SurfaceSpec(
            dirs,
            0,
            (
                coord([one(), fn(Term(COS, 1, 1e-300))]),
                coord([fn(Term(SIN, 1, 1.0)), one()]),
                coord([fn(Term(COS, 0, 1e-320)), one()]),
            ),
        )
        with pytest.raises(RangeError, match=r"^coords\[1\]: control points overflow double"):
            exact_rational_surface(spec)

    def test_non_rational_spec_rejected(self):
        dirs = (Direction(TRIG, 1.5), Direction(TRIG, 1.0))
        c = coord([one(), one()])
        with pytest.raises(RangeError, match="trailing denominator"):
            exact_rational_surface(SurfaceSpec(dirs, 0, (c, c)))

    def test_bundled_rational_figures_stay_at_min_orders(self):
        for name in ("rational_hyperbolic_butterfly", "hybrid_rational_volume"):
            spec = load_figure(name).spec
            grid = exact_rational_surface(spec)
            assert grid.orders == min_orders(spec)
            assert np.all(grid.weights > 0.0)
