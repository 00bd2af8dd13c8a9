import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlrank import (
    DegenerateInputError,
    DomainError,
    kaiser,
    kneedle,
    scree,
    svd,
)
from mdlrank.linalg import correlation_values, prefix_factors
from helpers import chord_knee_oracle

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestScree:
    def test_unnormalized_squares_singular_values(self):
        variances = scree(svd(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(variances, [9.0, 4.0, 1.0])

    def test_normalized_sums_to_one(self):
        variances = scree(svd(np.diag([3.0, 2.0, 1.0])), normalized=True)
        np.testing.assert_allclose(variances, [9 / 14, 4 / 14, 1 / 14])
        assert abs(variances.sum() - 1.0) <= 1e-9

    def test_flat_spectrum_normalizes_uniformly(self):
        variances = scree(svd(np.eye(4)), normalized=True)
        np.testing.assert_allclose(variances, [0.25] * 4)

    def test_zero_spectrum_cannot_normalize(self):
        s = svd(np.diag([1.0, 1.0]))
        zeroed = s._replace(singular_values=np.zeros(2))
        with pytest.raises(DegenerateInputError):
            scree(zeroed, normalized=True)


class TestKaiser:
    def test_reference_example(self):
        assert kaiser([2.5, 1.2, 0.8, 0.5]) == 2

    def test_all_below_threshold(self):
        assert kaiser([0.5, 0.5, 0.5]) == 0

    def test_boundary_is_inclusive(self):
        assert kaiser([1.0, 1.0, 1.0, 1.0, 1.0]) == 5

    def test_subthreshold_components_never_change_the_count(self):
        base = [2.5, 1.7, 1.0]
        assert kaiser(base + [0.99, 0.4, 0.01]) == kaiser(base) == 3


def correlation_eigenvalues(x):
    """Ascending correlation eigenvalues of all rows of *x*, read from the
    R factor of the streamed pass, or why there are none."""
    (chunk,) = prefix_factors(x, [len(x)])
    values, (reason,) = correlation_values(chunk)
    return reason or values[0, ::-1]


class TestCorrelationEigenvalues:
    def test_matches_corrcoef_on_mixed_scales(self):
        rng = np.random.default_rng(62)
        x = rng.standard_normal((100, 5)) @ rng.standard_normal((5, 5))
        x *= [1.0, 1e-6, 10.0, 1e5, 0.1]
        expected = np.linalg.eigvalsh(np.corrcoef(x, rowvar=False))
        got = correlation_eigenvalues(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert got.sum() == pytest.approx(5.0, abs=1e-12)

    def test_constant_column_named(self):
        x = np.ones((5, 3))
        x[:, 0] = np.arange(5)
        x[:, 2] = np.arange(5) ** 2
        assert correlation_eigenvalues(x) == "column 2 is constant and cannot be standardized"

    def test_column_of_one_inexact_value_is_constant(self):
        # 0.7 has no exact binary form, so the computed standard deviation
        # of this column is rounding noise rather than zero
        x = np.random.default_rng(63).standard_normal((500, 8))
        x[:, 3] = 0.7
        assert correlation_eigenvalues(x) == "column 4 is constant and cannot be standardized"

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        column=st.integers(0, 4),
        exponent=st.integers(-900, 900),
        data=st.data(),
    )
    def test_scaling_and_row_order(self, seed, column, exponent, data):
        """Multiplying a column by 2**k leaves the eigenvalues bit-identical;
        reordering the rows leaves them equal up to rounding."""
        x = np.random.default_rng(seed).standard_normal((20, 5))
        base = correlation_eigenvalues(x)
        scaled = x.copy()
        scaled[:, column] = np.ldexp(scaled[:, column], exponent)
        assert np.array_equal(correlation_eigenvalues(scaled), base)
        rows = np.array(data.draw(st.permutations(range(20)), label="rows"))
        np.testing.assert_allclose(correlation_eigenvalues(x[rows]), base, rtol=0, atol=1e-12)


class TestKneedle:
    def test_linear_curve_has_no_knee(self):
        assert kneedle(np.linspace(10.0, 1.0, 8)) is None

    def test_flat_curve_has_no_knee(self):
        assert kneedle(np.full(5, 3.0)) is None

    def test_agrees_with_chord_oracle_on_hyperbola(self):
        y = 1.0 / (np.arange(10) + 1.0)
        got = kneedle(y, sensitivity=1.0)
        assert got == chord_knee_oracle(y)

    def test_sharp_spectral_drop_keeps_three(self):
        lam = np.array([10.0, 9.0, 8.0, 0.1, 0.1, 0.1, 0.1, 0.1])
        got = kneedle(lam**2)
        assert got == 3
        assert got == chord_knee_oracle(lam**2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            m = int(rng.integers(3, 25))
            y = np.sort(rng.uniform(0.0, 10.0, m))[::-1]
            assert kneedle(y) == kneedle(5.0 * y + 2.0)

    def test_result_is_a_valid_component_count(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            m = int(rng.integers(3, 25))
            y = np.sort(rng.uniform(0.0, 10.0, m))[::-1]
            got = kneedle(y)
            assert got is None or 1 <= got <= m

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError, match="at least 3 scree points, got 2"):
            kneedle(np.array([2.0, 1.0]))

    def test_sensitivity_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                kneedle(np.array([3.0, 2.0, 1.0]), sensitivity=bad)

    def test_high_sensitivity_suppresses_shallow_bends(self):
        y = 1.0 / (np.arange(10) + 1.0)
        assert kneedle(y, sensitivity=1.0) is not None
        assert kneedle(y, sensitivity=9.0) is None
