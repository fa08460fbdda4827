"""Tests for control curves, subdivision and order elevation."""

import json
import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    BasisSpace,
    BezierPiece,
    ControlCurve,
    CoordinateFunction,
    CurveSpec,
    NumericalError,
    RangeError,
    Term,
    TermFamily,
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
from chbez.bbasis import _binomials, _coefficient_sums, _half_sines, _split_point
from chbez.curve import SubdivisionResult, _folded, _projected

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
EPS = np.finfo(float).eps


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

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, 1.0, np.nan, 1.0, 1.0],
            [1.0, 1.0, np.inf, 1.0, 1.0],
            [1.0, -np.inf, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, -1e-300],
            [0.0, -0.0, 0.0, 0.0, 0.0],
            [-1.0, np.nan, 1.0, 1.0, 1.0],
            [0.0, 0.0, np.inf, 0.0, 0.0],
        ],
        ids=["nan", "inf", "-inf", "negative", "all-zero", "nan-and-negative", "inf-among-zeros"],
    )
    def test_weights_finite_nonnegative_not_all_zero(self, weights):
        space = BasisSpace(TRIG, 2, 1.0)
        with pytest.raises(RangeError, match="^weights must be finite, nonnegative and not all zero$"):
            ControlCurve(space, np.zeros((5, 2)), np.array(weights))

    def test_weight_shape_is_checked_before_values(self):
        with pytest.raises(RangeError, match="^expected 5 weights, got shape \\(3,\\)$"):
            ControlCurve(BasisSpace(TRIG, 2, 1.0), np.zeros((5, 2)), [np.nan, -1.0, 0.0])

    def test_zero_and_subnormal_weights_accepted(self):
        weights = np.array([0.0, -0.0, 5e-324, 0.0, 0.0])
        crv = ControlCurve(BasisSpace(TRIG, 2, 1.0), np.zeros((5, 2)), weights)
        assert crv.weights.tobytes() == weights.tobytes()

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

    def test_widely_spread_weights_evaluate_elevate_and_split(self):
        # Over a nonnegative partition of unity the denominator is at least
        # the smallest weight, 1 here, however large the others are.
        space = BasisSpace(HYP, 1, 1.0)
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        weights = np.array([1.0, 1.0, 1e15])
        crv = ControlCurve(space, points, weights)
        us = np.linspace(0.0, 1.0, 5)
        basis = basis_matrix(space, us)
        expected = (basis @ (weights[:, None] * points)) / (basis @ weights)[:, None]
        assert_allclose(evaluate(crv, us), expected, rtol=1e-13, atol=1e-15)
        assert_allclose(evaluate(elevate(crv, 2), us), expected, rtol=1e-12, atol=1e-15)
        parts = subdivide(crv, 0.4)
        for piece in (parts.left, parts.right):
            piece_us = np.linspace(*piece.u_interval, 7)
            assert_allclose(piece.evaluate(piece_us), evaluate(crv, piece_us), atol=1e-14)

    def test_tiny_weight_evaluates_elevates_and_splits(self):
        # Nonnegative weights leave a denominator that is not 0 nonzero,
        # however small the smallest weight is against the largest.
        space = BasisSpace(TRIG, 1, 2.0)
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        weights = np.array([1e-20, 1.0, 1.0])
        crv = ControlCurve(space, points, weights)
        us = np.linspace(0.0, 2.0, 9)
        basis = basis_matrix(space, us)
        expected = (basis @ (weights[:, None] * points)) / (basis @ weights)[:, None]
        assert_allclose(evaluate(crv, us), expected, rtol=1e-14, atol=1e-15)
        assert_allclose(evaluate(crv, 0.0), points[0], rtol=0.0, atol=0.0)
        assert_allclose(evaluate(elevate(crv, 3), us), expected, rtol=1e-13, atol=1e-15)
        parts = subdivide(crv, 1.0)
        for piece in (parts.left, parts.right):
            piece_us = np.linspace(*piece.u_interval, 7)
            assert_allclose(piece.evaluate(piece_us), evaluate(crv, piece_us), atol=1e-14)

    def test_vanishing_denominator_raises(self):
        space = BasisSpace(TRIG, 1, 1.0)
        crv = ControlCurve(space, np.ones((3, 2)), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NumericalError, match="denominator"):
            evaluate(crv, 0.0)


def mp_shares(kind, u: float, rest: float, exact: bool = False):
    """The shares ``(1 - v, v)`` of the split ratio at ``u``, in mpmath at 60 digits.

    ``v = s(u/2) / (s(u/2) + s(rest/2))``, ``rest`` the double ``alpha - u``,
    and ``1 - v`` its own quotient.  With ``exact`` the third argument is
    ``alpha`` itself and ``alpha - u`` is taken exactly.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        s = mp.sin if kind is TRIG else mp.sinh
        a = s(mp.mpf(u) / 2)
        b = s(((mp.mpf(rest) - mp.mpf(u)) if exact else mp.mpf(rest)) / 2)
        return b / (a + b), a / (a + b)


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

    @pytest.mark.parametrize("kind, alpha", [(TRIG, 2.8), (HYP, 4.1)], ids=["trig", "hyp"])
    def test_clamped_within_the_slack(self, kind, alpha):
        # Within _PARAM_SLACK above alpha (or below 0) a parameter is alpha (or 0).
        space = BasisSpace(kind, 3, alpha)
        assert reparametrize(space, alpha + 1e-13) == 1.0
        assert reparametrize(space, -1e-13) == 0.0
        piece = subdivide(random_curve(kind, 3, alpha, seed=3), 0.4 * alpha).right
        over = BezierPiece(space, piece.points, piece.weights, (piece.u_interval[0], alpha + 1e-13))
        at = piece.evaluate([alpha, alpha])
        assert over.evaluate([alpha, alpha + 1e-13]).tobytes() == at.tobytes()

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            reparametrize(BasisSpace(TRIG, 1, 1.0), 1.5)

    def test_nan_rejected(self):
        with pytest.raises(RangeError, match="parameter u = nan is not a number"):
            reparametrize(BasisSpace(HYP, 1, 1.0), math.nan)

    # (kind, alpha, u): the tan/tanh form of the map erred here by 2.3e-9,
    # 9.5e-7, 4.7e-11, 2.1e-13 and 1.0 (a ratio of 8.2e-40 rounded to 0).
    CASES = [(HYP, 40.0, 2.0), (HYP, 60.0, 5.0), (HYP, 30.0, 1.0), (TRIG, 3.14, 0.001),
             (HYP, 200.0, 10.0)]

    @pytest.mark.parametrize("kind, alpha, u", CASES,
                             ids=[f"{k.value[:4]}-{a:g}-{u:g}" for k, a, u in CASES])
    def test_against_mpmath(self, kind, alpha, u):
        v = reparametrize(BasisSpace(kind, 1, alpha), u)
        assert abs(v - mp_shares(kind, u, alpha, exact=True)[1]) <= 4 * EPS * v

    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
    def test_random_against_mpmath(self, kind):
        # Over the whole range: trigonometric alpha up to pi - 1e-3,
        # hyperbolic n * alpha up to 300, u uniform or down to 1e-6 alpha.
        # The oracle takes the double alpha - u, the one rounding before the
        # sines: a hyperbolic s((alpha - u)/2) magnifies that rounding by
        # about alpha / 4, which reaches 57 eps of v at alpha 258, u 0.11.
        rng = np.random.default_rng(1998)
        for _ in range(300):
            n = int(rng.integers(1, 33))
            alpha = rng.uniform(1e-3, math.pi - 1e-3 if kind is TRIG else 300.0 / n)
            u = alpha * (rng.random() if rng.random() < 0.5 else 10 ** rng.uniform(-6, 0))
            v = reparametrize(BasisSpace(kind, n, alpha), u)
            assert abs(v - mp_shares(kind, u, alpha - u)[1]) <= 4 * EPS * v, (n, alpha, u)


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

    def test_geometric_factor_check_rejects_other_factors(self):
        # Weights times a geometric sequence still fit some factor, but only
        # the Moebius factor gamma of the piece's interval makes them match.
        crv = random_curve(HYP, 3, 2.4, seed=12)
        piece = subdivide(crv, 0.9).right
        for factor in (1.3, 0.5):
            skewed = piece.weights * factor ** np.arange(piece.weights.size)
            foreign = BezierPiece(piece.parent_space, piece.points, skewed, piece.u_interval)
            assert not piece_matches_subspace_weights(foreign)

    def test_zero_inner_weight_splits(self):
        # Both pieces of [1, 0, 1] have positive weights: the edges of the
        # pyramid mix the zero weight with a positive neighbour.
        space = BasisSpace(TRIG, 1, 1.0)
        crv = ControlCurve(space, [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [1.0, 0.0, 1.0])
        res = subdivide(crv, 0.5)
        for piece in (res.left, res.right):
            assert np.all(piece.weights > 0.0)
            us = np.linspace(*piece.u_interval, 11)
            assert_allclose(piece.evaluate(us), evaluate(crv, us), atol=1e-15)

    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
    def test_short_piece_at_the_order_cap_evaluates(self, kind):
        # The normalizing coefficients of a 1e-6 long interval overflow at
        # order 32; a piece needs only its coefficient sums.
        crv = random_curve(kind, 32, 2.0, seed=17, rational=True)
        piece = subdivide(crv, 1e-6).left
        us = np.linspace(*piece.u_interval, 5)
        assert_allclose(piece.evaluate(us), evaluate(crv, us), atol=1e-14)

    @pytest.mark.parametrize("n, alpha, u0", [(1, 200.0, 10.0), (1, 200.0, 190.0),
                                              (1, 100.0, 4.0), (3, 90.0, 3.0)])
    def test_saturated_tanh_ratio_splits(self, n, alpha, u0):
        # tanh(u0 / 2 - alpha / 4) rounds to -1 or 1, so a ratio by tanh
        # rounded to 0 or 1 and these splits were refused.  Each share, as
        # small as 8e-40, is its own quotient of positive sines.
        crv = random_curve(HYP, n, alpha, seed=16)
        res = subdivide(crv, u0)
        bound = 2 * (2 * n + 1) * EPS
        assert point_error(crv, (res.left, res.right), oracle_split(crv, u0, exact=True)) <= bound
        scale = np.max(np.abs(crv.points))
        for piece in (res.left, res.right):
            us = np.linspace(*piece.u_interval, 9)
            assert np.max(np.abs(piece.evaluate(us) - evaluate(crv, us))) <= bound * scale

    def test_zero_share_refused(self):
        # s(u0 / 2) underflows to 0: the left piece would collapse to a point.
        crv = random_curve(HYP, 1, 200.0, seed=16)
        with pytest.raises(NumericalError, match=r"^split ratio at u0 = 5e-324 rounds to 0$"):
            subdivide(crv, 5e-324)

    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
    @pytest.mark.parametrize("alpha, u0", [(1.0, 1e-310), (1e-300, 1e-300 - 1e-310)],
                             ids=["left", "right"])
    def test_piece_too_short_for_its_basis_refused(self, kind, alpha, u0):
        # The piece width w (u0, or alpha - u0) leaves s(w / 2) subnormal,
        # which a table over the piece's own interval refuses; the split
        # names u0 instead of an alpha the caller never gave.
        crv = random_curve(kind, 2, alpha, seed=18)
        message = rf"^split at u0 = {re.escape(repr(u0))} leaves a piece too short for its basis$"
        with pytest.raises(NumericalError, match=message):
            subdivide(crv, u0)

    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
    @pytest.mark.parametrize("alpha, u0", [(1.0, 2.0 * sys.float_info.min),
                                           (1e-300, 1e-300 - 2.0 * sys.float_info.min)],
                             ids=["left", "right"])
    def test_shortest_accepted_piece_evaluates(self, kind, alpha, u0):
        # The piece width w is exactly 2**-1021, so s(w / 2) is the smallest
        # normal double: the split is accepted and both pieces evaluate.
        crv = random_curve(kind, 2, alpha, seed=18)
        res = subdivide(crv, u0)
        for piece in (res.left, res.right):
            us = np.array(piece.u_interval)
            assert_allclose(piece.evaluate(us), evaluate(crv, us), atol=1e-14)

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

    def test_piece_error_prints_the_parameter_as_a_float(self):
        piece = BezierPiece(BasisSpace(TRIG, 1, 1.5), np.eye(3), np.ones(3), (0.0, 1.0))
        with pytest.raises(RangeError) as err:
            piece.evaluate(2.0)
        assert str(err.value) == "parameter u = 2.0 outside the piece interval [0, 1]"

    def test_empty_piece_interval_rejected(self):
        piece = BezierPiece(BasisSpace(TRIG, 1, 1.0), np.eye(3), np.ones(3), (0.5, 0.5))
        with pytest.raises(RangeError, match=r"piece interval \[0\.5, 0\.5\] is empty"):
            piece.evaluate(0.5)

    def test_empty_piece_interval_is_refused_at_every_call(self):
        piece = BezierPiece(BasisSpace(TRIG, 1, 1.0), np.eye(3), np.ones(3), (0.5, 0.5))
        for _ in range(2):  # nothing is kept from a refusal
            with pytest.raises(RangeError, match="is empty"):
                piece.evaluate(0.5)

    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=["trig", "hyp"])
    def test_piece_evaluates_the_same_bits_again(self, kind):
        left = subdivide(random_curve(kind, 5, 2.0, seed=15, rational=True), 0.7).left
        first, again = left.evaluate(0.3), left.evaluate(0.3)
        assert first.tobytes() == again.tobytes()

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

    @pytest.mark.parametrize("share, evaluates", [(1e-13, True), (1e-15, False)])
    def test_signed_weights_around_the_cancellation_floor(self, share, evaluates):
        # A hand-made piece with weights [1, w, 1], w < 0, over the whole
        # parent interval (gamma = 1): at the midpoint its denominator is
        # ``share`` times the same combination of |weights|.  The floor,
        # _CANCELLATION = 1e-14, lies between the two shares.
        space = BasisSpace(TRIG, 1, 1.0)
        c = basis_matrix(space, [0.5])[0] * [1.0, 2.0, 1.0] / _coefficient_sums(space)
        w = -(c[0] + c[2]) * (1.0 - share) / ((1.0 + share) * c[1])
        piece = BezierPiece(space, np.eye(3), np.array([1.0, w, 1.0]), (0.0, 1.0))
        if evaluates:
            point = piece.evaluate(0.5)
            assert np.all(np.isfinite(point)) and np.max(np.abs(point)) > 1e12
        else:
            with pytest.raises(NumericalError, match=r"^piece denominator vanishes near u = 0\.5$"):
                piece.evaluate([0.1, 0.5])

    def test_weight_scale_does_not_decide_splitting(self):
        # Scaling all rational weights leaves the curve and its pieces unchanged.
        crv = random_curve(TRIG, 3, 2.0, seed=15, rational=True)
        tiny = ControlCurve(crv.space, crv.points, crv.weights * 1e-20)
        us = np.linspace(0.0, 0.7, 9)
        assert_allclose(subdivide(tiny, 0.7).left.evaluate(us), evaluate(crv, us), atol=1e-12)

    # Hyperbolic spaces with n * alpha of 54-192: the outer Bezier weights fall
    # below 1e-14, which an absolute floor took for a degenerate pyramid, and
    # in the last two they spread by more than 1e14, which a floor relative to
    # the largest weight took for one.
    @pytest.mark.parametrize(
        "n, alpha, rational",
        [(12, 4.5, False), (20, 4.0, False), (31, 2.9, False), (14, 4.2, True),
         (32, 6.0, False), (16, 9.0, False)],
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

    def test_degenerate_weight_pyramid_refused(self):
        # The left piece's first weight is the curve's first, 0.
        space = BasisSpace(TRIG, 1, 1.0)
        crv = ControlCurve(space, [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [0.0, 1.0, 1.0])
        with pytest.raises(
            NumericalError, match=r"^degenerate weight pyramid while splitting at u0 = 0\.5$"
        ):
            subdivide(crv, 0.5)


def oracle_split(curve: ControlCurve, u0: float,
                 exact: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """Points and weights of both pieces, split in mpmath at 50 digits.

    The curve's points and weights and the float pyramid weights ``S_i /
    C(2n, i)`` are taken as exact inputs.  So are the float shares ``1 - v``
    and ``v``, each its own quotient of the double half-angle sines; with
    ``exact`` the shares are the exact split ratio at ``u0`` instead, so that
    the error of the float ratio counts too.  The homogeneous pyramid on
    ``(w p, w)`` then has one exact answer.
    """
    mp = pytest.importorskip("mpmath").mp
    space = curve.space
    with mp.workdps(50):
        if exact:
            stay, v = mp_shares(space.kind, u0, space.alpha, exact=True)
        else:
            s = math.sin if space.kind is TRIG else math.sinh
            a, b = s(0.5 * u0), s(0.5 * (space.alpha - u0))
            stay, v = mp.mpf(b / (a + b)), mp.mpf(a / (a + b))
        w = [mp.mpf(x) for x in _coefficient_sums(space) / _binomials(space.degree)]
        if curve.weights is not None:
            w = [a * mp.mpf(b) for a, b in zip(w, curve.weights.tolist())]
        level = [[a * mp.mpf(x) for x in row] + [a] for a, row in zip(w, curve.points.tolist())]
        left, right = [level[0]], [level[-1]]
        while len(level) > 1:
            level = [[stay * a + v * b for a, b in zip(r0, r1)] for r0, r1 in zip(level, level[1:])]
            left.append(level[0])
            right.append(level[-1])
        return [
            (np.array([[float(x / row[-1]) for x in row[:-1]] for row in edge]),
             np.array([float(row[-1]) for row in edge]))
            for edge in (left, right[::-1])
        ]


class TestParameterBatchChecks:
    """``basis_matrix`` and piece evaluation check a batch by its extremes; the
    first offender, its message and the order of the checks stay."""

    def test_nan_is_the_first_offender(self):
        piece = subdivide(random_curve(TRIG, 2, 2.0, seed=14), 0.8).left
        message = r"^parameter u = nan outside the piece interval \[0, 0\.8\]$"
        with pytest.raises(RangeError, match=message):
            piece.evaluate([0.1, math.nan, 1.5, -1.0])

    def test_just_past_the_slack_at_either_end(self):
        space = BasisSpace(HYP, 2, 1.5)
        with pytest.raises(RangeError, match=r"^parameter u = -2e-12 below 0$"):
            basis_matrix(space, [0.5, -2e-12])
        with pytest.raises(RangeError, match=r"^parameter u = 1\.500000000002 above alpha = 1\.5$"):
            basis_matrix(space, [1.5 + 2e-12, 0.5])
        within = basis_matrix(space, [-5e-13, 1.5 + 5e-13])
        assert within.tobytes() == basis_matrix(space, [0.0, 1.5]).tobytes()

    def test_just_past_the_slack_of_an_inner_piece_end(self):
        # The piece ends inside the parent: the piece's slack decides, not the parent's.
        res = subdivide(random_curve(TRIG, 2, 2.0, seed=14), 0.8)
        for piece, inside, u in ((res.left, 0.1, 0.8 + 2e-12), (res.right, 1.0, 0.8 - 2e-12)):
            with pytest.raises(RangeError, match=rf"^parameter u = {re.escape(repr(u))} outside"):
                piece.evaluate([inside, u])
        for piece, u in ((res.left, 0.8 + 5e-13), (res.right, 0.8 - 5e-13)):
            assert piece.evaluate([u]).tobytes() == piece.evaluate([0.8]).tobytes()

    @pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
    def test_empty_batch(self, rational):
        crv = random_curve(HYP, 3, 1.2, dim=3, seed=19, rational=rational)
        assert basis_matrix(crv.space, []).shape == (0, 7)
        assert evaluate(crv, []).shape == (0, 3)


def ref_subdivide(curve: ControlCurve, u0: float) -> SubdivisionResult:
    """Verbatim copy of ``subdivide`` with its list of pyramid levels, the byte reference."""
    space = curve.space
    u0 = _split_point(space, u0)
    b, a = _half_sines(space, u0)
    stay, v = b / (a + b), a / (a + b)
    if not (stay > 0.0 and v > 0.0):
        raise NumericalError(f"split ratio at u0 = {u0!r} rounds to {v:g}")
    c = _coefficient_sums(space) / _binomials(space.degree)
    levels = [_folded(curve.points, c if curve.weights is None else c * curve.weights)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append(stay * level[:-1] + v * level[1:])
    edges = [np.stack([level[0] for level in levels]),
             np.stack([level[-1] for level in levels[::-1]])]
    if not all(np.all(edge[:, -1] > 0.0) for edge in edges):
        raise NumericalError(f"degenerate weight pyramid while splitting at u0 = {u0:g}")
    left, right = (BezierPiece(space, *_projected(edge), interval)
                   for edge, interval in zip(edges, ((0.0, u0), (u0, space.alpha))))
    return SubdivisionResult(left, right, v)


@pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_pyramid_matches_the_level_list_bit_for_bit(kind, rational):
    # Every order, a random alpha (hyperbolic n * alpha <= 300) and split
    # points across the interval, the ends included.
    rng = np.random.default_rng(4100 + 2 * (kind is HYP) + rational)
    for n in range(1, 33):
        top = 3.14 if kind is TRIG else min(40.0, 300.0 / n)
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(top))))
        crv = random_curve(kind, n, alpha, dim=int(rng.integers(1, 4)), seed=n, rational=rational)
        for share in (1e-9, *rng.uniform(0.0, 1.0, 4), 1.0 - 1e-9):
            u0 = float(share) * alpha
            got, expected = subdivide(crv, u0), ref_subdivide(crv, u0)
            ratios = np.array([got.split_ratio, expected.split_ratio])
            assert ratios[0].tobytes() == ratios[1].tobytes()
            for piece, ref in ((got.left, expected.left), (got.right, expected.right)):
                assert piece.u_interval == ref.u_interval
                assert piece.points.shape == ref.points.shape
                assert piece.points.tobytes() == ref.points.tobytes(), (n, alpha, u0)
                assert piece.weights.tobytes() == ref.weights.tobytes(), (n, alpha, u0)


def point_error(crv: ControlCurve, pieces, oracle) -> float:
    """Largest piece point error against ``oracle``, relative to the largest control coordinate."""
    scale = np.max(np.abs(crv.points))
    return max(np.max(np.abs(p.points - points)) / scale for p, (points, _) in zip(pieces, oracle))


# Spaces every order up to 32 splits in (hyperbolic n * alpha <= 288).  At
# alpha 6, order 32, and alpha 9, orders 16 and 32, the Bezier weights spread
# by more than 1e14, which a floor relative to the largest weight refused.
SPLIT_SPACES = [(TRIG, 1.5), (TRIG, 3.1), (HYP, 1.5), (HYP, 2.5), (HYP, 6.0), (HYP, 9.0)]

# (kind, alpha, n) split at the exact ratio; a ratio by tan or tanh erred by
# up to 4.9e8 (2n + 1) eps in the piece points here.
EXACT_SPLITS = [(HYP, 40.0, n) for n in (1, 2, 4, 7)] + [(HYP, 60.0, n) for n in (1, 3, 5)] + [
    (kind, alpha, n) for kind, alpha in ((TRIG, 1.5), (TRIG, 3.14), (HYP, 9.0))
    for n in (1, 8, 16, 32)
]


class TestSplitAgainstMpmath:
    """Piece points within ``2 (2n + 1)`` eps of the parent's largest
    coordinate, piece weights within as many eps relative to each weight."""

    @pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
    @pytest.mark.parametrize("n", [1, 8, 16, 32])
    @pytest.mark.parametrize(
        "kind, alpha", SPLIT_SPACES, ids=[f"{k.value[:4]}-{a:g}" for k, a in SPLIT_SPACES]
    )
    def test_pieces_against_mpmath(self, kind, alpha, n, rational):
        crv = random_curve(kind, n, alpha, dim=3, seed=n, rational=rational)
        bound = 2 * (2 * n + 1) * EPS
        for u0 in (0.13 * alpha, 0.5 * alpha, 0.71 * alpha):
            res = subdivide(crv, u0)
            pieces = (res.left, res.right)
            oracle = oracle_split(crv, u0)
            assert point_error(crv, pieces, oracle) <= bound, u0
            for piece, (_, weights) in zip(pieces, oracle):
                error = np.max(np.abs(piece.weights - weights) / weights)
                assert error <= bound, (u0, error / EPS)

    @pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
    @pytest.mark.parametrize(
        "kind, alpha, n", EXACT_SPLITS, ids=[f"{k.value[:4]}-{a:g}-{n}" for k, a, n in EXACT_SPLITS]
    )
    def test_points_against_an_exact_ratio(self, kind, alpha, n, rational):
        crv = random_curve(kind, n, alpha, dim=3, seed=n, rational=rational)
        for u0 in (0.05 * alpha, 0.13 * alpha, 0.5 * alpha, 0.71 * alpha):
            res = subdivide(crv, u0)
            error = point_error(crv, (res.left, res.right), oracle_split(crv, u0, exact=True))
            assert error <= 2 * (2 * n + 1) * EPS, (u0, error / EPS)


def term_spec(kind, alpha, coords, shift=0.0):
    """A curve spec from ``(family, k, a, phase)`` tuples, each phase moved by ``k * shift``.

    With ``shift = u0`` it describes the curve at ``u0 + x``: each term's
    ``f(k (u0 + x) + phase)`` is ``f(k x + phase + k u0)``.
    """
    return CurveSpec(kind, alpha, [
        CoordinateFunction([Term(f, k, a, phase + k * shift) for f, k, a, phase in terms])
        for terms in coords
    ])


def random_coords(rng, kind, n, rational):
    """Two or three coordinates of random terms up to frequency ``n``, one of them at ``n``.

    A rational spec's last coordinate is a denominator positive on any interval.
    """
    coords = [
        [(TermFamily(str(rng.choice(["cos", "sin"]))), int(k), rng.standard_normal(),
          rng.uniform(-1, 1)) for k in rng.integers(0, n + 1, 3)]
        for _ in range(2)
    ]
    coords[0].append((TermFamily.COSINE, n, 1.0, 0.0))
    if rational:
        coords.append([(TermFamily.COSINE, 0, 2.0, 0.0),
                       (TermFamily.COSINE, 1, 0.5 if kind is TRIG else 0.3, rng.uniform(-1, 1))])
    return coords


class TestRestrictedDescription:
    """Split pieces against the exact description of the curve restricted to each piece.

    The left piece is the curve over ``[0, u0]``, the right one the curve at
    ``u0 + x`` over ``[0, alpha - u0]``; both are described at the parent's
    order.  A plain piece's points are that description's control points,
    and its values are that curve's values; a rational piece is compared by
    values only, as the restricted pre-image may take a different number of
    elevation steps.  Errors are measured against the parent's largest
    control coordinate and bounded by ``4 (2n + 1)`` eps.
    """

    @pytest.mark.parametrize("rational", [False, True], ids=["plain", "rational"])
    @pytest.mark.parametrize("n", range(1, 33))
    @pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
    def test_pieces_are_the_restricted_curves(self, kind, n, rational):
        rng = np.random.default_rng(100 * n + rational)
        bound = 4 * (2 * n + 1) * EPS
        for _ in range(2):
            alpha = rng.uniform(0.2, 3.1) if kind is TRIG else rng.uniform(0.2, min(6.0, 200.0 / n))
            coords = random_coords(rng, kind, n, rational)
            spec = term_spec(kind, alpha, coords)
            crv = exact_rational_curve(spec, n).curve if rational else exact_curve(spec, n)
            scale = np.max(np.abs(crv.points))
            u0 = rng.uniform(0.1, 0.9) * alpha
            res = subdivide(crv, u0)
            restricted = [term_spec(kind, u0, coords), term_spec(kind, alpha - u0, coords, u0)]
            for piece, sub in zip((res.left, res.right), restricted):
                lo = piece.u_interval[0]
                ref = exact_rational_curve(sub, n).curve if rational else exact_curve(sub, n)
                if not rational:
                    error = np.max(np.abs(piece.points - ref.points)) / scale
                    assert error <= bound, (alpha, u0, error / EPS)
                us = np.linspace(*piece.u_interval, 41)
                want = evaluate(ref, np.clip(us - lo, 0.0, ref.space.alpha))
                error = np.max(np.abs(piece.evaluate(us) - want)) / scale
                assert error <= bound, (alpha, u0, error / EPS)


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

    @pytest.mark.parametrize("z", [-1, True])
    def test_refused_count_text(self, z):
        crv = random_curve(TRIG, 2, 1.0, seed=21)
        with pytest.raises(RangeError) as exc:
            elevate(crv, z)
        assert str(exc.value) == f"elevation count must be a nonnegative integer, got {z!r}"

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

    def test_weight_scale_does_not_decide_evaluation(self):
        # The weight floors of evaluate and elevate are relative: tiny weights
        # describe the same curve.
        crv = random_curve(TRIG, 3, 2.0, seed=15, rational=True)
        tiny = ControlCurve(crv.space, crv.points, crv.weights * 1e-20)
        us = np.linspace(0.0, 2.0, 9)
        assert_allclose(evaluate(tiny, us), evaluate(crv, us), atol=1e-12)
        assert_allclose(evaluate(elevate(tiny, 3), us), evaluate(crv, us), atol=1e-12)

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

    def test_zero_end_weight_refused(self):
        space = BasisSpace(TRIG, 1, 1.0)
        crv = ControlCurve(space, [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [0.0, 1.0, 1.0])
        with pytest.raises(NumericalError, match="^degenerate weight after elevation$"):
            elevate(crv)
