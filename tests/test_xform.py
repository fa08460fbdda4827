"""Tests for order elevation weights and the canonical basis transform."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chbez import (
    BasisKind,
    BasisSpace,
    RangeError,
    basis_matrix,
    elevate_coefficient_vector,
    elevation_weights,
    normalizing_coefficients,
    transform_matrix,
)
from chbez.bbasis import _MEMO_SPACES, _coefficient_sums
from chbez.xform import _transform_rows

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC

# The per-space memos: each is keyed by one BasisSpace.
MEMOS = (_coefficient_sums, _transform_rows)


class TestElevationWeights:
    def test_shape_and_convexity(self):
        space = BasisSpace(TRIG, 3, 1.1)
        w = elevation_weights(space)
        assert w.shape == (9, 3)
        assert np.all(w >= 0.0)
        assert_allclose(w.sum(axis=1), 1.0, rtol=1e-14)

    def test_endpoint_rows_are_unit(self):
        for kind, alpha in [(TRIG, 2.4), (HYP, 3.3)]:
            w = elevation_weights(BasisSpace(kind, 2, alpha))
            assert w[0, 0] == 1.0
            assert np.all(w[0, 1:] == 0.0)
            assert w[-1, 2] == 1.0
            assert np.all(w[-1, :2] == 0.0)

    def test_rows_are_read_only(self):
        w = elevation_weights(BasisSpace(TRIG, 1, 1.0))
        with pytest.raises(ValueError):
            w[0, 0] = 2.0


class TestElevateCoefficientVector:
    def test_constant_stays_constant(self):
        # The all-ones vector represents the constant one; elevation must
        # reproduce it and keep the endpoints exact.
        space = BasisSpace(HYP, 3, 2.0)
        out = elevate_coefficient_vector(space, np.ones(7))
        assert out.shape == (9,)
        assert out[0] == 1.0 and out[-1] == 1.0
        assert_allclose(out, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("kind,alpha", [(TRIG, 2.2), (HYP, 1.6)])
    def test_function_values_preserved(self, kind, alpha):
        rng = np.random.default_rng(7)
        space = BasisSpace(kind, 4, alpha)
        coeffs = rng.standard_normal(space.dimension)
        lifted = elevate_coefficient_vector(space, coeffs)
        us = np.linspace(0.0, alpha, 40)
        before = basis_matrix(space, us) @ coeffs
        after = basis_matrix(BasisSpace(kind, 5, alpha), us) @ lifted
        assert_allclose(after, before, atol=1e-13)

    def test_columns_elevate_independently(self):
        rng = np.random.default_rng(11)
        space = BasisSpace(TRIG, 2, 1.0)
        block = rng.standard_normal((space.dimension, 3))
        lifted = elevate_coefficient_vector(space, block)
        for col in range(3):
            assert_allclose(
                lifted[:, col], elevate_coefficient_vector(space, block[:, col]), rtol=1e-15
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(RangeError, match="expected 5"):
            elevate_coefficient_vector(BasisSpace(TRIG, 2, 1.0), np.ones(7))

    @pytest.mark.parametrize("coeffs,got", [(3.0, "a scalar"), (np.ones(4), "4")])
    def test_refusal_text(self, coeffs, got):
        with pytest.raises(RangeError, match=f"^expected 5 coefficients, got {got}$"):
            elevate_coefficient_vector(BasisSpace(TRIG, 2, 1.0), coeffs)


class TestTransformMatrix:
    def test_order_one_rows_trigonometric(self):
        tm = transform_matrix(BasisSpace(TRIG, 1, 1.0))
        expected = [
            [1.0, 1.0, 1.0],
            [0.0, math.tan(0.5), math.sin(1.0)],
            [1.0, 1.0, math.cos(1.0)],
        ]
        assert_allclose(tm.rows, expected, rtol=1e-15)

    def test_order_one_rows_hyperbolic(self):
        tm = transform_matrix(BasisSpace(HYP, 1, 1.0))
        expected = [
            [1.0, 1.0, 1.0],
            [0.0, math.tanh(0.5), math.sinh(1.0)],
            [1.0, 1.0, math.cosh(1.0)],
        ]
        assert_allclose(tm.rows, expected, rtol=1e-15)

    def test_constant_row_is_exactly_ones(self):
        tm = transform_matrix(BasisSpace(TRIG, 5, 2.1))
        assert np.all(tm.rows[0] == 1.0)

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rows_reconstruct_canonical_functions(self, kind, n):
        alpha = 2.6 if kind is TRIG else 3.1
        space = BasisSpace(kind, n, alpha)
        tm = transform_matrix(space)
        us = np.linspace(0.0, alpha, 73)
        mat = basis_matrix(space, us)
        sin, cos = (np.sin, np.cos) if kind is TRIG else (np.sinh, np.cosh)
        for k in range(1, n + 1):
            scale = 1.0 + np.abs(cos(k * us)).max()
            assert np.abs(mat @ tm.sine_row(k) - sin(k * us)).max() / scale < 1e-12
            assert np.abs(mat @ tm.cosine_row(k) - cos(k * us)).max() / scale < 1e-12

    def test_zero_frequency_rows(self):
        tm = transform_matrix(BasisSpace(HYP, 2, 1.5))
        assert np.all(tm.sine_row(0) == 0.0)
        assert np.all(tm.cosine_row(0) == 1.0)

    def test_frequency_validation(self):
        tm = transform_matrix(BasisSpace(TRIG, 2, 1.5))
        with pytest.raises(RangeError):
            tm.sine_row(3)
        with pytest.raises(RangeError):
            tm.cosine_row(-1)
        with pytest.raises(RangeError):
            tm.sine_row(1.0)

    def test_refused_frequency_text(self):
        tm = transform_matrix(BasisSpace(TRIG, 2, 1.5))
        with pytest.raises(RangeError) as exc:
            tm.sine_row(1.5)
        assert str(exc.value) == "frequency must be an integer, got 1.5"
        with pytest.raises(RangeError) as exc:
            tm.cosine_row(np.int64(3))
        assert str(exc.value) == "frequency 3 outside 0..2"

    def test_memoized_and_read_only(self):
        space = BasisSpace(TRIG, 3, 0.9)
        first = transform_matrix(space)
        second = transform_matrix(space)
        assert first.rows is second.rows
        with pytest.raises(ValueError):
            first.rows[0, 0] = 0.0


class TestMemoPolicy:
    # Each test draws its spaces from its own alpha range, which no other test uses.

    @pytest.mark.parametrize("kind", [TRIG, HYP])
    def test_cold_transform_keeps_only_its_own_space(self, kind):
        before = [memo.cache_info() for memo in MEMOS]
        transform_matrix(BasisSpace(kind, 32, 0.4321987654321))
        for memo, old in zip(MEMOS, before):
            new = memo.cache_info()
            assert new.misses - old.misses <= 1, memo.__name__
            assert new.currsize - old.currsize <= 1, memo.__name__

    def test_memos_hold_at_most_the_bound(self):
        for k in range(_MEMO_SPACES + 8):
            space = BasisSpace(HYP, 3, 1.2345678 + 1e-6 * k)
            transform_matrix(space)
            elevation_weights(space)
            normalizing_coefficients(space)
        for memo in MEMOS:
            info = memo.cache_info()
            assert info.maxsize == _MEMO_SPACES, memo.__name__
            assert info.currsize <= _MEMO_SPACES, memo.__name__

    def test_recent_space_is_a_hit(self):
        space = BasisSpace(TRIG, 4, 1.8765432)
        others = [BasisSpace(TRIG, 4, 2.0765432 + 1e-6 * k) for k in range(_MEMO_SPACES - 1)]
        for memo in MEMOS:
            first = memo(space)
            for other in others:
                memo(other)
            old = memo.cache_info()
            assert memo(space) is first, memo.__name__
            new = memo.cache_info()
            assert (new.hits - old.hits, new.misses - old.misses) == (1, 0), memo.__name__
