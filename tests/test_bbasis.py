"""Tests for the normalized B-basis construction."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    BasisSpace,
    RangeError,
    basis_matrix,
    basis_value,
    basis_vector,
    bernstein_value,
    normalizing_coefficients,
)
from chbez.bbasis import _top_order

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC


class TestBasisSpace:
    def test_degree_and_dimension(self):
        space = BasisSpace(TRIG, 3, 1.0)
        assert space.degree == 6
        assert space.dimension == 7

    def test_rejects_bad_order(self):
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 0, 1.0)
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 1.5, 1.0)
        with pytest.raises(RangeError):
            BasisSpace(TRIG, True, 1.0)
        with pytest.raises(RangeError, match="cap"):
            BasisSpace(TRIG, 33, 1.0)
        BasisSpace(TRIG, 32, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 1, 0.0)
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 1, -1.0)
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 1, math.pi)
        with pytest.raises(RangeError):
            BasisSpace(TRIG, 1, float("nan"))
        with pytest.raises(RangeError):
            BasisSpace(HYP, 1, float("inf"))
        BasisSpace(TRIG, 1, math.pi - 1e-9)

    def test_hyperbolic_alpha_unbounded_above_but_guarded(self):
        BasisSpace(HYP, 1, 100.0)
        with pytest.raises(RangeError, match="overflow"):
            BasisSpace(HYP, 31, 10.0)

    @pytest.mark.parametrize(
        "alpha", [1e-300, 1.0, 9.375, 9.38, 12.0, 300 / 7, math.nextafter(300 / 7, 0.0), 300.0, 301.0]
    )
    def test_top_order_is_the_last_order_built(self, alpha):
        top = _top_order(HYP, alpha)
        assert top == max(n for n in range(33) if n * alpha <= 300.0)
        assert _top_order(TRIG, min(alpha, 3.0)) == 32
        if top:
            assert BasisSpace(HYP, top, alpha).n == top
        if top < 32:
            with pytest.raises(RangeError, match=r"^hyperbolic n\*alpha = .* exceeds the overflow"):
                BasisSpace(HYP, top + 1, alpha)

    def test_rejects_bad_kind(self):
        with pytest.raises(RangeError):
            BasisSpace("trigonometric", 1, 1.0)


class TestNormalizingCoefficients:
    def test_trig_order_one_quarter_turn(self):
        # t_0 = t_2 = 1 / sin(alpha/2)**2 and t_1 = 2 cos(alpha/2) / sin(alpha/2)**2.
        coeffs = normalizing_coefficients(BasisSpace(TRIG, 1, math.pi / 2)).values
        assert_allclose(coeffs, [2.0, 2.0 * math.sqrt(2.0), 2.0], rtol=1e-14)

    def test_trig_order_two_frozen(self):
        # At alpha = 2 pi / 3 the half-angle cosine is 1/2, which turns the
        # prefactor-free sums into the integers [1, 2, 3, 2, 1].
        coeffs = normalizing_coefficients(BasisSpace(TRIG, 2, 2.0 * math.pi / 3)).values
        expected = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) * (16.0 / 9.0)
        assert_allclose(coeffs, expected, rtol=1e-14)

    def test_hyperbolic_order_one_frozen(self):
        coeffs = normalizing_coefficients(BasisSpace(HYP, 1, 2.0)).values
        assert_allclose(
            coeffs,
            [0.7240616609663106, 2.2345710548985487, 0.7240616609663106],
            rtol=1e-15,
        )

    @pytest.mark.parametrize("kind,alpha", [(TRIG, 0.8), (TRIG, 2.9), (HYP, 0.8), (HYP, 4.0)])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_collocation_oracle(self, kind, alpha, n):
        """The coefficients are the unique solution of a collocation system.

        Writing the constant one in the unnormalized product basis gives a
        linear system whose solution must match the closed form.
        """
        space = BasisSpace(kind, n, alpha)
        us = np.linspace(0.0, alpha, 2 * n + 1)
        s = np.sin if kind is TRIG else np.sinh
        powers = np.arange(2 * n + 1)
        mat = (
            s(0.5 * (alpha - us))[:, None] ** (2 * n - powers)[None, :]
            * s(0.5 * us)[:, None] ** powers[None, :]
        )
        solved, *_ = np.linalg.lstsq(mat, np.ones(2 * n + 1), rcond=None)
        coeffs = normalizing_coefficients(space).values
        assert_allclose(coeffs, solved, rtol=1e-8)

    def test_underflowing_prefactor_raises_without_warning(self):
        # 1 / sin(alpha/2)**64 overflows: a RangeError, and no floating point warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="overflow"):
                normalizing_coefficients(BasisSpace(TRIG, 32, 1e-5))

    def test_symmetry_and_positivity(self):
        for kind, alpha in [(TRIG, 1.3), (HYP, 2.7)]:
            coeffs = normalizing_coefficients(BasisSpace(kind, 5, alpha)).values
            assert np.all(coeffs > 0.0)
            assert_allclose(coeffs, coeffs[::-1], rtol=1e-15)


class TestBasisEvaluation:
    def test_endpoint_columns_are_exact(self):
        space = BasisSpace(TRIG, 3, 2.0)
        start = basis_vector(space, 0.0)
        end = basis_vector(space, space.alpha)
        assert start[0] == 1.0
        assert np.all(start[1:] == 0.0)
        assert end[-1] == 1.0
        assert np.all(end[:-1] == 0.0)

    def test_midpoint_order_one_frozen(self):
        # At the interval midpoint of the quarter turn space the outer
        # functions take 1 - sqrt(2)/2 and the middle one sqrt(2) - 1.
        space = BasisSpace(TRIG, 1, math.pi / 2)
        mid = basis_vector(space, math.pi / 4)
        assert_allclose(mid[0], 0.29289321881345254, rtol=1e-15)
        assert_allclose(mid[1], 0.41421356237309515, rtol=1e-15)
        assert_allclose(mid[2], mid[0], rtol=1e-15)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_partition_of_unity_and_nonnegativity(self, kind):
        rng = np.random.default_rng(20240811)
        for n in (1, 3, 6):
            alpha = 0.2 + 2.6 * rng.random() if kind is TRIG else 0.2 + 4.0 * rng.random()
            space = BasisSpace(kind, n, alpha)
            us = rng.random(64) * alpha
            mat = basis_matrix(space, us)
            assert np.all(mat >= 0.0)
            assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_reflection_symmetry(self, kind):
        space = BasisSpace(kind, 4, 1.9)
        us = np.linspace(0.0, space.alpha, 23)
        mat = basis_matrix(space, us)
        reflected = basis_matrix(space, space.alpha - us)
        assert_allclose(mat, reflected[:, ::-1], rtol=0, atol=1e-14)

    def test_matrix_matches_scalar_values(self):
        space = BasisSpace(HYP, 2, 3.0)
        us = np.linspace(0.0, space.alpha, 7)
        mat = basis_matrix(space, us)
        for row, u in zip(mat, us):
            for i, value in enumerate(row):
                assert_allclose(basis_value(space, i, u), value, rtol=1e-15)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_scalar_is_the_matrix_entry_bit_for_bit(self, kind):
        slack = 5e-13  # inside the clamping slack on both ends
        for n in range(1, 33):
            top = math.pi - 1e-3 if kind is TRIG else 299.0 / n
            for alpha in (1e-3, 0.7, top):
                space = BasisSpace(kind, n, alpha)
                us = [-slack, 0.0, -0.0, 0.3 * alpha, 0.5 * alpha, alpha, alpha + slack]
                mat = basis_matrix(space, us)
                for row, u in zip(mat, us):
                    values = np.array([basis_value(space, i, u) for i in range(space.dimension)])
                    assert values.tobytes() == row.tobytes(), (n, alpha, u)
        assert type(basis_value(space, 0, 0.5 * alpha)) is np.float64

    def test_parameter_clamping(self):
        space = BasisSpace(TRIG, 1, 1.0)
        assert basis_value(space, 0, -1e-13) == 1.0
        assert basis_value(space, 2, 1.0 + 1e-13) == 1.0
        with pytest.raises(RangeError, match="below"):
            basis_value(space, 0, -1e-6)
        with pytest.raises(RangeError, match="above"):
            basis_value(space, 0, 1.0 + 1e-6)

    def test_nan_parameters_rejected(self):
        space = BasisSpace(HYP, 2, 1.0)
        message = r"^parameter u = nan is not a number$"
        with pytest.raises(RangeError, match=message):
            basis_value(space, 0, math.nan)
        with pytest.raises(RangeError, match=message):
            basis_vector(space, math.nan)
        with pytest.raises(RangeError, match=message):
            basis_matrix(space, [0.2, math.nan, 0.4])

    def test_first_offending_parameter_is_reported(self):
        space = BasisSpace(TRIG, 2, 1.0)
        with pytest.raises(RangeError, match=r"^parameter u = inf above alpha = 1\.0$"):
            basis_matrix(space, [0.5, 1.0 + 1e-13, math.inf, math.nan, -1.0])
        with pytest.raises(RangeError, match=r"^parameter u = -inf below 0$"):
            basis_matrix(space, [-1e-13, -math.inf, 2.0])
        with pytest.raises(RangeError, match="not a number"):
            basis_matrix(space, [0.5, math.nan, 2.0])

    def test_index_validation(self):
        space = BasisSpace(TRIG, 1, 1.0)
        with pytest.raises(RangeError):
            basis_value(space, -1, 0.5)
        with pytest.raises(RangeError):
            basis_value(space, 3, 0.5)
        with pytest.raises(RangeError):
            basis_value(space, 0.5, 0.5)

    @pytest.mark.parametrize(
        "i, message",
        [(1.5, "basis index must be an integer, got 1.5"), (99, "basis index 99 outside 0..2")],
    )
    def test_refused_index_text(self, i, message):
        with pytest.raises(RangeError) as exc:
            basis_value(BasisSpace(TRIG, 1, 1.0), i, 0.5)
        assert str(exc.value) == message

    def test_matrix_rejects_bad_batch_shape(self):
        space = BasisSpace(TRIG, 1, 1.0)
        with pytest.raises(RangeError, match="one dimensional"):
            basis_matrix(space, [[0.1, 0.2]])

    def test_table_peak_memory_is_the_table_plus_one_block(self):
        # numpy reports its buffers to tracemalloc; a full-size temporary
        # would take the peak to twice the table.
        space = BasisSpace(HYP, 32, 1.5)
        us = np.linspace(0.0, 1.5, 20001)
        basis_matrix(space, us[:1])  # memoize the coefficients outside the measurement
        tracemalloc.start()
        try:
            table = basis_matrix(space, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table.nbytes

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_small_alpha_degenerates_to_bernstein(self, kind):
        alpha = 1e-4
        for n in (1, 2):
            space = BasisSpace(kind, n, alpha)
            vs = np.linspace(0.0, 1.0, 21)
            mat = basis_matrix(space, vs * alpha)
            bern = np.array(
                [[bernstein_value(2 * n, i, v) for i in range(2 * n + 1)] for v in vs]
            )
            assert np.abs(mat - bern).max() < 1e-6


class TestBernstein:
    def test_frozen_values(self):
        assert bernstein_value(2, 1, 0.3) == pytest.approx(0.42, rel=1e-15)
        assert bernstein_value(4, 0, 0.0) == 1.0
        assert bernstein_value(4, 4, 1.0) == 1.0
        assert bernstein_value(4, 2, 1.0) == 0.0

    def test_scalar_is_the_table_entry_bit_for_bit(self):
        from chbez.bbasis import _bernstein_table

        vs = [-5e-13, 0.0, 0.3, 1.0 / 3.0, 0.5, 0.77, 1.0, 1.0 + 5e-13]
        for degree in range(65):
            table = _bernstein_table(degree, np.array(vs))
            for row, v in zip(table, vs):
                values = np.array([bernstein_value(degree, i, v) for i in range(degree + 1)])
                assert values.tobytes() == row.tobytes(), (degree, v)
                assert all(type(bernstein_value(degree, i, v)) is float for i in (0, degree))

    def test_partition(self):
        vs = np.linspace(0.0, 1.0, 17)
        totals = [sum(bernstein_value(5, i, v) for i in range(6)) for v in vs]
        assert_allclose(totals, 1.0, atol=1e-14)

    def test_validation(self):
        with pytest.raises(RangeError):
            bernstein_value(-1, 0, 0.5)
        with pytest.raises(RangeError):
            bernstein_value(2, 3, 0.5)
        with pytest.raises(RangeError):
            bernstein_value(2, 1, 1.5)
        assert bernstein_value(2, 1, 1.0 + 1e-13) == 0.0

    def test_index_must_be_an_integer(self):
        with pytest.raises(RangeError, match=r"^index must be an integer, got 0\.5$"):
            bernstein_value(2, 0.5, 0.3)

    @pytest.mark.parametrize(
        "degree, i, message",
        [
            (-1, 0, "degree must be a nonnegative integer, got -1"),
            (2, True, "index must be an integer, got True"),
            (2, 3, "index 3 outside 0..2"),
        ],
    )
    def test_refusal_text(self, degree, i, message):
        with pytest.raises(RangeError) as exc:
            bernstein_value(degree, i, 0.5)
        assert str(exc.value) == message
