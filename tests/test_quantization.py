import math

import numpy as np
import pytest

from mdlrank import (
    DiscreteModel,
    DomainError,
    inner_product_perturbation_bound,
    quantize,
    quantized_unitary_log_count_bound,
    verify_elimination_sandwich,
)
from mdlrank.quantization import (
    maximized_likelihood_integral,
    validate_epsilon,
    worst_case_inner_product_bound,
)
from helpers import gaussian_grid_model, random_discrete_model, random_orthonormal

# frozen from a 50-digit evaluation of the closed form at m=4, k=2, eps=0.1
COUNT_BOUND_4_2_01 = 19.209174702748264


class TestValidateEpsilon:
    def test_accepts_unit_fractions_below_width_reciprocal(self):
        validate_epsilon(1 / 8, 4)
        validate_epsilon(0.05, 10)

    @pytest.mark.parametrize("eps,m", [(0.0, 4), (-0.1, 4), (0.15, 4), (0.3, 4), (1 / 4, 4)])
    def test_rejects_bad_steps(self, eps, m):
        with pytest.raises(DomainError):
            validate_epsilon(eps, m)

    def test_rejects_a_width_below_one(self):
        with pytest.raises(DomainError, match="m must be positive, got 0"):
            validate_epsilon(1 / 10, 0)


class TestQuantize:
    def test_nearest_multiple(self):
        q = quantize(np.array([[0.123]]), 0.05)
        assert q.v_eps[0, 0] == pytest.approx(0.10, abs=1e-15)

    def test_grid_point_maps_to_itself(self):
        q = quantize(np.array([[0.15]]), 0.05)
        assert q.v_eps[0, 0] == pytest.approx(0.15, abs=1e-15)

    def test_midpoint_rounds_away_from_zero(self):
        q = quantize(np.array([[0.125], [-0.125]]), 1 / 4)
        assert q.v_eps[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert q.v_eps[1, 0] == pytest.approx(-0.25, abs=1e-15)

    def test_entrywise_error_within_half_step(self):
        rng = np.random.default_rng(42)
        v = random_orthonormal(rng, 6, 3)
        q = quantize(v, 1 / 12)
        assert np.max(np.abs(q.v_eps - v)) <= 1 / 24 + 1e-15

    def test_perturbation_recovered(self):
        rng = np.random.default_rng(43)
        v = random_orthonormal(rng, 8, 4)
        q = quantize(v, 1 / 16)
        assert np.max(np.abs(q.e)) <= 0.5 + 1e-12
        np.testing.assert_allclose(v + q.epsilon * q.e, q.v_eps, atol=1e-15)

    def test_entries_are_grid_multiples_in_unit_box(self):
        rng = np.random.default_rng(44)
        v = random_orthonormal(rng, 10, 5)
        q = quantize(v, 1 / 16)
        steps = q.v_eps / q.epsilon
        assert np.max(np.abs(steps - np.round(steps))) <= 1e-12
        assert np.max(np.abs(q.v_eps)) <= 1.0

    def test_rejects_entries_outside_unit_box(self):
        with pytest.raises(DomainError):
            quantize(np.array([[1.1]]), 0.05)

    def test_rejects_invalid_step(self):
        with pytest.raises(DomainError):
            quantize(np.array([[0.5, 0.5], [0.5, -0.5]]), 0.5)

    def test_rejects_a_vector(self):
        with pytest.raises(DomainError, match="expected a 2-D loadings matrix, got ndim=1"):
            quantize(np.array([0.5, -0.5]), 0.1)


class TestInnerProductBounds:
    def test_nominal_closed_form(self):
        assert inner_product_perturbation_bound(4, 0.1) == pytest.approx(0.11, abs=1e-15)

    def test_vanishes_with_the_step(self):
        values = [inner_product_perturbation_bound(8, 2.0**-j) for j in range(4, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_worst_case_bound_never_violated(self):
        """eps*sqrt(m) + m*eps^2/4 holds for every column pair of every
        quantized orthonormal draw."""
        rng = np.random.default_rng(777)
        for _ in range(100):
            m = int(rng.integers(2, 17))
            for eps in (1 / 8, 1 / 16, 1 / 32):
                if eps >= 1.0 / m:
                    continue
                v = random_orthonormal(rng, m)
                q = quantize(v, eps)
                dev = np.abs(q.v_eps.T @ q.v_eps - v.T @ v)
                assert dev.max() <= worst_case_inner_product_bound(m, eps) + 1e-12

    def test_nominal_bound_is_not_worst_case(self):
        """The advertised eps + m*eps^2/4 underestimates the attainable
        deviation: rounding residuals can align with the other column. This
        fixed seed exhibits violations, all inside the corrected bound."""
        rng = np.random.default_rng(12345)
        worst_ratio = 0.0
        for _ in range(200):
            m = int(rng.integers(3, 17))
            eps = 1 / 32
            v = random_orthonormal(rng, m)
            q = quantize(v, eps)
            dev = np.abs(q.v_eps.T @ q.v_eps - v.T @ v)
            worst_ratio = max(worst_ratio, dev.max() / inner_product_perturbation_bound(m, eps))
            assert dev.max() <= worst_case_inner_product_bound(m, eps)
        assert worst_ratio > 1.0


class TestQuantizedUnitaryLogCountBound:
    def test_frozen_value(self):
        assert quantized_unitary_log_count_bound(4, 2, 0.1) == pytest.approx(
            COUNT_BOUND_4_2_01, abs=1e-9
        )

    def test_single_column_has_no_pairwise_term(self):
        m, eps = 6, 1 / 8
        shrink = (1.0 - (1.0 + eps + eps**2 / 4.0) / math.sqrt(m)) / 2.0
        first_term = m * 1 * (math.log(2.0 / eps + 1.0) - shrink)
        assert quantized_unitary_log_count_bound(m, 1, eps) == first_term

    def test_grows_as_the_grid_refines(self):
        values = [quantized_unitary_log_count_bound(4, 2, eps) for eps in (1 / 8, 1 / 16, 1 / 32)]
        assert values[0] < values[1] < values[2]

    def test_coarse_step_warns_but_evaluates(self):
        with pytest.warns(UserWarning, match="small-step"):
            value = quantized_unitary_log_count_bound(4, 2, 1 / 2)
        assert math.isfinite(value)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quantized_unitary_log_count_bound(4, 0, 0.1)
        with pytest.raises(DomainError):
            quantized_unitary_log_count_bound(1, 2, 0.1)
        with pytest.raises(DomainError):
            quantized_unitary_log_count_bound(4, 2, 0.15)


def _table_model(table, weights=None):
    """DiscreteModel from a dict {(x, a, b): value} on integer grids."""
    xs = sorted({x for x, _, _ in table})
    a_family = tuple(sorted({a for _, a, _ in table}))
    b_family = tuple(sorted({b for _, _, b in table}))
    return DiscreteModel(
        x_points=tuple(xs),
        weights=tuple(weights if weights is not None else [1.0] * len(xs)),
        a_family=a_family,
        b_family=b_family,
        likelihood=lambda x, a, b: table[(x, a, b)],
    )


class TestMaximizedLikelihoodIntegral:
    def test_degenerate_single_cell(self):
        model = _table_model({(0, 0, 0): 1.0})
        assert maximized_likelihood_integral(model) == 1.0

    def test_single_b_joint_equals_fixed(self):
        model = gaussian_grid_model(n_points=51, sigmas=(0.8,))
        joint = maximized_likelihood_integral(model)
        fixed = maximized_likelihood_integral(model, b=0.8)
        assert joint == fixed

    def test_grid_refinement_stability(self):
        coarse = gaussian_grid_model(n_points=201)
        fine = gaussian_grid_model(n_points=402)
        for b in (None, 0.5, 1.0):
            i_coarse = maximized_likelihood_integral(coarse, b=b)
            i_fine = maximized_likelihood_integral(fine, b=b)
            assert abs(i_fine - i_coarse) / i_fine < 0.01

    def test_grid_order_does_not_matter(self):
        model = gaussian_grid_model(n_points=101)
        rng = np.random.default_rng(5)
        perm = rng.permutation(101)
        shuffled = DiscreteModel(
            x_points=tuple(np.array(model.x_points)[perm]),
            weights=tuple(np.array(model.weights)[perm]),
            a_family=model.a_family,
            b_family=model.b_family,
            likelihood=model.likelihood,
        )
        assert maximized_likelihood_integral(shuffled) == maximized_likelihood_integral(model)

    def test_empty_grid_rejected(self):
        model = DiscreteModel(
            x_points=(), weights=(), a_family=(0,), b_family=(0,), likelihood=lambda *_: 1.0
        )
        with pytest.raises(DomainError):
            maximized_likelihood_integral(model)

    def test_negative_likelihood_rejected(self):
        model = _table_model({(0, 0, 0): -0.5})
        with pytest.raises(DomainError):
            maximized_likelihood_integral(model)

    @pytest.mark.parametrize("a_family, b_family", [((), (0,)), ((0,), ())])
    def test_empty_parameter_family_rejected(self, a_family, b_family):
        with pytest.raises(DomainError, match="parameter families must be nonempty"):
            DiscreteModel(
                x_points=(0,), weights=(1.0,), a_family=a_family, b_family=b_family,
                likelihood=lambda *_: 1.0,
            )

    def test_mismatched_weights_rejected(self):
        with pytest.raises(DomainError):
            DiscreteModel(
                x_points=(0, 1), weights=(1.0,), a_family=(0,), b_family=(0,),
                likelihood=lambda *_: 1.0,
            )


class TestEliminationSandwich:
    def test_single_b_coincides_exactly(self):
        model = gaussian_grid_model(n_points=51, sigmas=(1.0,))
        check = verify_elimination_sandwich(model)
        assert check.upper_holds and check.lower_holds
        assert check.slack_upper == 0.0 and check.slack_lower == 0.0

    def test_pointwise_dominant_b_slack_identity(self):
        """When one b dominates at every cell, the upper slack is exactly
        the summed integrals of the others (hand enumeration: 1.5 + 0.75)."""
        heights = {1: 1.0, 2: 0.5, 3: 0.25}
        table = {(x, 0, b): heights[b] for x in (0, 1, 2) for b in (1, 2, 3)}
        check = verify_elimination_sandwich(_table_model(table))
        assert check.upper_holds and check.lower_holds
        assert check.slack_upper == pytest.approx(2.25, abs=1e-12)
        assert check.slack_lower == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support_saturates_the_upper_bound(self):
        table = {
            (x, 0, b): (1.0 if x == b - 1 else 0.0) for x in (0, 1, 2) for b in (1, 2, 3)
        }
        check = verify_elimination_sandwich(_table_model(table))
        assert check.upper_holds and check.lower_holds
        assert check.slack_upper == pytest.approx(0.0, abs=1e-12)
        assert check.slack_lower == pytest.approx(2.0, abs=1e-12)

    def test_randomized_models_hold(self):
        for seed in range(20):
            check = verify_elimination_sandwich(random_discrete_model(seed))
            assert check.upper_holds and check.lower_holds, seed
            assert check.slack_upper >= -1e-9 and check.slack_lower >= -1e-9

    def test_minimizing_selector_breaks_the_lower_bound(self):
        """Under the minimizing b-selector the left-hand side can drop
        below every fixed-b integral; the slack goes negative."""
        table = {
            (x, 0, b): (1.0 if x == b - 1 else 0.0) for x in (0, 1, 2) for b in (1, 2, 3)
        }
        check = verify_elimination_sandwich(_table_model(table), b_convention="min")
        assert check.upper_holds
        assert not check.lower_holds
        assert check.slack_lower == pytest.approx(-1.0, abs=1e-12)

    def test_unknown_convention_rejected(self):
        with pytest.raises(DomainError):
            verify_elimination_sandwich(random_discrete_model(0), b_convention="median")
