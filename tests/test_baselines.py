import numpy as np
import pytest

from mdlrank import (
    DegenerateInputError,
    DomainError,
    ScreeCurve,
    kaiser,
    kneedle,
    scree,
    svd,
)
from helpers import chord_knee_oracle


class TestScree:
    def test_unnormalized_squares_singular_values(self):
        curve = scree(svd(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_allclose(curve.variances, [9.0, 4.0, 1.0])
        assert not curve.normalized

    def test_normalized_sums_to_one(self):
        curve = scree(svd(np.diag([3.0, 2.0, 1.0])), normalized=True)
        np.testing.assert_allclose(curve.variances, [9 / 14, 4 / 14, 1 / 14])
        assert abs(curve.variances.sum() - 1.0) <= 1e-9

    def test_flat_spectrum_normalizes_uniformly(self):
        curve = scree(svd(np.eye(4)), normalized=True)
        np.testing.assert_allclose(curve.variances, [0.25] * 4)

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


class TestKneedle:
    def test_linear_curve_has_no_knee(self):
        curve = ScreeCurve(np.linspace(10.0, 1.0, 8), normalized=False)
        assert kneedle(curve) is None

    def test_flat_curve_has_no_knee(self):
        curve = ScreeCurve(np.full(5, 3.0), normalized=False)
        assert kneedle(curve) is None

    def test_agrees_with_chord_oracle_on_hyperbola(self):
        y = 1.0 / (np.arange(10) + 1.0)
        got = kneedle(ScreeCurve(y, normalized=False), sensitivity=1.0)
        assert got == chord_knee_oracle(y)

    def test_sharp_spectral_drop_keeps_three(self):
        lam = np.array([10.0, 9.0, 8.0, 0.1, 0.1, 0.1, 0.1, 0.1])
        curve = ScreeCurve(lam**2, normalized=False)
        got = kneedle(curve)
        assert got == 3
        assert got == chord_knee_oracle(lam**2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            m = int(rng.integers(3, 25))
            y = np.sort(rng.uniform(0.0, 10.0, m))[::-1]
            curve = ScreeCurve(y, normalized=False)
            moved = ScreeCurve(5.0 * y + 2.0, normalized=False)
            assert kneedle(curve) == kneedle(moved)

    def test_result_is_a_valid_component_count(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            m = int(rng.integers(3, 25))
            y = np.sort(rng.uniform(0.0, 10.0, m))[::-1]
            got = kneedle(ScreeCurve(y, normalized=False))
            assert got is None or 1 <= got <= m

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            kneedle(ScreeCurve(np.array([2.0, 1.0]), normalized=False))

    def test_sensitivity_must_be_positive(self):
        curve = ScreeCurve(np.array([3.0, 2.0, 1.0]), normalized=False)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                kneedle(curve, sensitivity=bad)

    def test_high_sensitivity_suppresses_shallow_bends(self):
        y = 1.0 / (np.arange(10) + 1.0)
        curve = ScreeCurve(y, normalized=False)
        assert kneedle(curve, sensitivity=1.0) is not None
        assert kneedle(curve, sensitivity=9.0) is None
