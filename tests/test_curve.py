"""Tests for control curves, subdivision and order elevation."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    BasisSpace,
    BezierPiece,
    ControlCurve,
    NumericalError,
    RangeError,
    basis_matrix,
    bezier_weights,
    elevate,
    evaluate,
    exact_curve,
    exact_rational_curve,
    parse_document,
    piece_matches_subspace_weights,
    reparametrize,
    subdivide,
)

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC


def random_curve(kind, n, alpha, dim=2, seed=0, rational=False):
    rng = np.random.default_rng(seed)
    space = BasisSpace(kind, n, alpha)
    points = rng.standard_normal((space.dimension, dim))
    weights = 0.5 + rng.random(space.dimension) if rational else None
    return ControlCurve(space, points, weights)


class TestControlCurve:
    def test_flat_points_become_one_column(self):
        crv = ControlCurve(BasisSpace(TRIG, 1, 1.0), [1.0, 2.0, 3.0])
        assert crv.points.shape == (3, 1)
        assert crv.dimension == 1
        assert not crv.is_rational

    def test_points_are_copied_and_frozen(self):
        pts = np.zeros((3, 2))
        crv = ControlCurve(BasisSpace(TRIG, 1, 1.0), pts)
        pts[0, 0] = 99.0
        assert crv.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            crv.points[0, 0] = 1.0

    def test_validation(self):
        space = BasisSpace(TRIG, 2, 1.0)
        with pytest.raises(RangeError, match="expected 5 control points"):
            ControlCurve(space, np.zeros((3, 2)))
        with pytest.raises(RangeError, match="finite"):
            ControlCurve(space, np.full((5, 2), np.nan))
        with pytest.raises(RangeError, match="weights"):
            ControlCurve(space, np.zeros((5, 2)), np.ones(3))
        with pytest.raises(RangeError):
            ControlCurve(space, np.zeros((5, 2)), -np.ones(5))
        with pytest.raises(RangeError):
            ControlCurve(space, np.zeros((5, 2)), np.zeros(5))

    def test_endpoint_interpolation(self):
        crv = random_curve(HYP, 3, 2.0, seed=5)
        assert_allclose(evaluate(crv, 0.0), crv.points[0], rtol=1e-15)
        assert_allclose(evaluate(crv, crv.space.alpha), crv.points[-1], rtol=1e-15)

    def test_scalar_and_batch_evaluation_agree(self):
        crv = random_curve(TRIG, 2, 2.4, seed=1)
        us = np.linspace(0.0, 2.4, 9)
        batch = evaluate(crv, us)
        assert batch.shape == (9, 2)
        for u, row in zip(us, batch):
            assert_allclose(evaluate(crv, u), row, rtol=1e-15)

    def test_affine_invariance(self):
        crv = random_curve(TRIG, 3, 1.7, seed=2)
        mat = np.array([[2.0, 1.0], [-0.5, 3.0]])
        shift = np.array([4.0, -1.0])
        mapped = ControlCurve(crv.space, crv.points @ mat.T + shift)
        us = np.linspace(0.0, 1.7, 15)
        assert_allclose(evaluate(mapped, us), evaluate(crv, us) @ mat.T + shift, atol=1e-12)

    def test_convex_hull_property(self):
        crv = random_curve(HYP, 2, 1.2, seed=3)
        us = np.linspace(0.0, 1.2, 33)
        values = evaluate(crv, us)
        assert np.all(values >= crv.points.min(axis=0) - 1e-12)
        assert np.all(values <= crv.points.max(axis=0) + 1e-12)

    def test_rational_combination_matches_manual(self):
        crv = random_curve(TRIG, 2, 2.0, seed=4, rational=True)
        us = np.linspace(0.0, 2.0, 11)
        basis = basis_matrix(crv.space, us)
        manual = (basis * crv.weights) @ crv.points / (basis @ crv.weights)[:, None]
        assert_allclose(evaluate(crv, us), manual, rtol=1e-14)

    @pytest.mark.parametrize("rational", [False, True])
    def test_nan_parameter_rejected(self, rational):
        crv = random_curve(TRIG, 2, 1.0, rational=rational)
        with pytest.raises(RangeError, match="parameter u = nan is not a number"):
            evaluate(crv, math.nan)
        with pytest.raises(RangeError, match="parameter u = nan is not a number"):
            evaluate(crv, [0.5, math.nan])

    def test_vanishing_denominator_raises(self):
        space = BasisSpace(TRIG, 1, 1.0)
        crv = ControlCurve(space, np.ones((3, 2)), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NumericalError, match="denominator"):
            evaluate(crv, 0.0)


class TestReparametrize:
    def test_endpoints_and_midpoint_exact(self):
        for kind, alpha in [(TRIG, 2.8), (HYP, 4.1)]:
            space = BasisSpace(kind, 2, alpha)
            assert reparametrize(space, 0.0) == 0.0
            assert reparametrize(space, alpha) == 1.0
            assert reparametrize(space, 0.5 * alpha) == 0.5

    def test_frozen_values(self):
        assert reparametrize(BasisSpace(TRIG, 1, math.pi / 2), math.pi / 4) == 0.5
        assert reparametrize(BasisSpace(HYP, 1, 3.0), 1.0) == pytest.approx(
            0.30719588571849843, rel=1e-15
        )

    def test_strictly_increasing(self):
        space = BasisSpace(HYP, 1, 5.0)
        us = np.linspace(0.0, 5.0, 200)
        vs = [reparametrize(space, u) for u in us]
        assert np.all(np.diff(vs) > 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            reparametrize(BasisSpace(TRIG, 1, 1.0), 1.5)

    def test_nan_rejected(self):
        with pytest.raises(RangeError, match="parameter u = nan is not a number"):
            reparametrize(BasisSpace(HYP, 1, 1.0), math.nan)


class TestBezierWeights:
    def test_quarter_turn_frozen(self):
        w = bezier_weights(BasisSpace(TRIG, 1, math.pi / 2))
        assert_allclose(w, [2.0, math.sqrt(2.0), 2.0], rtol=1e-14)

    def test_symmetric_and_positive(self):
        w = bezier_weights(BasisSpace(HYP, 4, 2.2))
        assert np.all(w > 0.0)
        assert_allclose(w, w[::-1], rtol=1e-15)


class TestSubdivide:
    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_pieces_reproduce_parent(self, kind):
        crv = random_curve(kind, 3, 2.1, seed=8)
        res = subdivide(crv, 0.76)
        left_us = np.linspace(0.0, 0.76, 25)
        right_us = np.linspace(0.76, 2.1, 25)
        assert_allclose(res.left.evaluate(left_us), evaluate(crv, left_us), atol=1e-12)
        assert_allclose(res.right.evaluate(right_us), evaluate(crv, right_us), atol=1e-12)

    def test_rational_pieces_reproduce_parent(self):
        crv = random_curve(TRIG, 2, 2.6, seed=9, rational=True)
        res = subdivide(crv, 1.0)
        us = np.linspace(0.0, 1.0, 20)
        assert_allclose(res.left.evaluate(us), evaluate(crv, us), atol=1e-12)
        us = np.linspace(1.0, 2.6, 20)
        assert_allclose(res.right.evaluate(us), evaluate(crv, us), atol=1e-12)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_midpoint_split_ratio_is_half(self, kind):
        crv = random_curve(kind, 3, 1.8, seed=10)
        res = subdivide(crv, 0.9)
        assert res.split_ratio == 0.5

    def test_pieces_join_at_split_point(self):
        crv = random_curve(HYP, 2, 3.0, seed=11)
        res = subdivide(crv, 2.2)
        at = evaluate(crv, 2.2)
        assert_allclose(res.left.evaluate(2.2), at, atol=1e-12)
        assert_allclose(res.right.evaluate(2.2), at, atol=1e-12)
        assert res.left.u_interval == (0.0, 2.2)
        assert res.right.u_interval == (2.2, 3.0)

    def test_known_sine_polygon_after_split(self):
        # sin(u) over the quarter turn has the order one polygon [0, 1, 1].
        # Each piece re-read over its subinterval must carry the polygon of
        # sin there: [0, tan(pi/8), sin(pi/4)] on the left and, by the angle
        # addition formula, [sin(pi/4), 1, 1] on the right.
        space = BasisSpace(TRIG, 1, math.pi / 2)
        crv = ControlCurve(space, np.array([0.0, 1.0, 1.0]))
        res = subdivide(crv, math.pi / 4)
        assert_allclose(
            res.left.points.ravel(),
            [0.0, math.tan(math.pi / 8), math.sin(math.pi / 4)],
            atol=1e-15,
        )
        assert_allclose(
            res.right.points.ravel(), [math.sin(math.pi / 4), 1.0, 1.0], atol=1e-15
        )

    def test_piece_weights_follow_subspace_up_to_geometric_factor(self):
        crv = random_curve(TRIG, 3, 2.4, seed=12)
        res = subdivide(crv, 0.5)
        assert piece_matches_subspace_weights(res.left)
        assert piece_matches_subspace_weights(res.right)

    def test_geometric_factor_check_rejects_foreign_weights(self):
        space = BasisSpace(TRIG, 2, 2.0)
        piece = BezierPiece(space, np.zeros((5, 2)), np.ones(5), (0.0, 1.0))
        assert not piece_matches_subspace_weights(piece)

    def test_split_parameter_must_be_interior(self):
        crv = random_curve(TRIG, 1, 1.0, seed=13)
        for u0 in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(RangeError, match="strictly inside"):
                subdivide(crv, u0)

    def test_piece_rejects_parameters_outside_interval(self):
        crv = random_curve(TRIG, 2, 2.0, seed=14)
        res = subdivide(crv, 0.8)
        with pytest.raises(RangeError, match="outside the piece interval"):
            res.left.evaluate(1.2)
        with pytest.raises(RangeError):
            res.right.evaluate(0.5)

    def test_empty_piece_interval_rejected(self):
        piece = BezierPiece(BasisSpace(TRIG, 1, 1.0), np.eye(3), np.ones(3), (0.5, 0.5))
        with pytest.raises(RangeError, match=r"piece interval \[0\.5, 0\.5\] is empty"):
            piece.evaluate(0.5)

    def test_piece_rejects_nan(self):
        res = subdivide(random_curve(HYP, 2, 2.0, seed=14), 0.8)
        with pytest.raises(RangeError, match=r"u = .*nan.* outside the piece interval"):
            res.left.evaluate([0.1, math.nan])

    def test_piece_reports_first_offending_parameter(self):
        res = subdivide(random_curve(TRIG, 2, 2.0, seed=14), 0.8)
        with pytest.raises(RangeError, match=r"u = .*1\.5.* outside"):
            res.left.evaluate([0.1, 1.5, -3.0])
        weights = np.array([1.0, -1.0, 1.0])
        degenerate = BezierPiece(BasisSpace(TRIG, 1, 1.0), np.eye(3), weights, (0.0, 1.0))
        with pytest.raises(NumericalError, match="piece denominator vanishes near u = 0.5"):
            degenerate.evaluate([0.1, 0.5, 2.0])

    def test_weight_scale_does_not_decide_splitting(self):
        # Scaling all rational weights leaves the curve and its pieces unchanged.
        crv = random_curve(TRIG, 3, 2.0, seed=15, rational=True)
        tiny = ControlCurve(crv.space, crv.points, crv.weights * 1e-20)
        us = np.linspace(0.0, 0.7, 9)
        assert_allclose(subdivide(tiny, 0.7).left.evaluate(us), evaluate(crv, us), atol=1e-12)

    # Hyperbolic spaces with n * alpha of 54-90: the outer Bezier weights fall
    # below 1e-14, which an absolute floor took for a degenerate pyramid.
    @pytest.mark.parametrize(
        "n, alpha, rational",
        [(12, 4.5, False), (20, 4.0, False), (31, 2.9, False), (14, 4.2, True)],
    )
    def test_large_hyperbolic_spaces_split(self, n, alpha, rational):
        coords = [
            {"terms": [{"family": "cosh", "k": n, "a": 1.0, "phase": 0.3},
                       {"family": "sinh", "k": 1, "a": -2.0}]},
            {"terms": [{"family": "sinh", "k": n // 2, "a": 0.5}]},
        ]
        if rational:
            coords.append({"terms": [{"family": "cosh", "k": 0, "a": 1.0},
                                     {"family": "cosh", "k": 1, "a": 0.6},
                                     {"family": "sinh", "k": 1, "a": -0.3}]})
        doc = {"version": 1, "type": "curve", "kind": "hyperbolic", "alpha": alpha,
               "rational": rational, "coords": coords}
        spec = parse_document(json.dumps(doc)).spec
        crv = exact_rational_curve(spec).curve if rational else exact_curve(spec)
        assert crv.space.n == n
        assert np.min(bezier_weights(crv.space)) < 1e-14
        res = subdivide(crv, 0.4 * alpha)
        for piece in (res.left, res.right):
            us = np.linspace(*piece.u_interval, 101)
            parent = evaluate(crv, us)
            assert np.max(np.abs(piece.evaluate(us) - parent)) <= 1e-12 * np.max(np.abs(parent))


class TestElevate:
    def test_zero_steps_is_identity(self):
        crv = random_curve(TRIG, 2, 1.0, seed=20)
        assert elevate(crv, 0) is crv

    def test_validation(self):
        crv = random_curve(TRIG, 2, 1.0, seed=21)
        with pytest.raises(RangeError):
            elevate(crv, -1)
        with pytest.raises(RangeError):
            elevate(crv, 0.5)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_curve_values_invariant(self, kind):
        crv = random_curve(kind, 2, 1.9, seed=22)
        us = np.linspace(0.0, 1.9, 40)
        reference = evaluate(crv, us)
        for z in (1, 3, 7):
            lifted = elevate(crv, z)
            assert lifted.space.n == crv.space.n + z
            assert lifted.points.shape == (2 * (crv.space.n + z) + 1, 2)
            assert_allclose(evaluate(lifted, us), reference, atol=1e-12)

    def test_rational_values_invariant(self):
        crv = random_curve(HYP, 2, 2.3, seed=23, rational=True)
        us = np.linspace(0.0, 2.3, 30)
        reference = evaluate(crv, us)
        lifted = elevate(crv, 4)
        assert lifted.is_rational
        assert np.all(lifted.weights > 0.0)
        assert_allclose(evaluate(lifted, us), reference, atol=1e-12)

    def test_endpoints_survive_exactly(self):
        crv = random_curve(TRIG, 3, 2.0, seed=24)
        lifted = elevate(crv, 5)
        assert np.all(lifted.points[0] == crv.points[0])
        assert np.all(lifted.points[-1] == crv.points[-1])

    def test_polygon_moves_toward_curve(self):
        crv = random_curve(TRIG, 2, 2.8, seed=25)
        dense = evaluate(crv, np.linspace(0.0, 2.8, 600))

        def polygon_distance(c):
            d2 = ((c.points[:, None, :] - dense[None, :, :]) ** 2).sum(axis=2)
            return np.sqrt(d2.min(axis=1)).max()

        d0 = polygon_distance(crv)
        d5 = polygon_distance(elevate(crv, 5))
        d10 = polygon_distance(elevate(crv, 10))
        assert d5 < d0
        assert d10 < d5
