import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlrank import (
    DegenerateInputError,
    DomainError,
    Spectrum,
    SyntheticSpec,
    default_epsilon,
    generate_lin,
    score_table,
    select_rank,
    singular_spectrum,
    svd,
    tail_energy,
)
from mdlrank.complexity import ComplexityTerms, RegressionNmlInputs, _argmin_by, regression_nml
from helpers import planted_rank_matrix

# seeded once per example: deterministic, and no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# 8 ln2 + 4 ln100 + 7 ln1.5 - 5 ln4, frozen from a 50-digit evaluation
WORKED_SCORE = 19.872642139589626


class TestRegressionNml:
    def test_all_terms_vanish(self):
        inp = RegressionNmlInputs(n_obs=2, n_params=1, tau_hat=1.0, fit_energy=1.0)
        assert regression_nml(inp) == 0.0

    def test_worked_value(self):
        inp = RegressionNmlInputs(n_obs=12, n_params=4, tau_hat=2.0, fit_energy=100.0)
        assert regression_nml(inp) == pytest.approx(WORKED_SCORE, abs=1e-12)

    def test_params_must_be_fewer_than_observations(self):
        with pytest.raises(DomainError):
            RegressionNmlInputs(n_obs=10, n_params=10, tau_hat=1.0, fit_energy=1.0)

    @pytest.mark.parametrize("tau,fit", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_scales_rejected(self, tau, fit):
        with pytest.raises(DomainError):
            RegressionNmlInputs(n_obs=5, n_params=2, tau_hat=tau, fit_energy=fit)


def _spectrum(n, values):
    """Spectrum of the n x m matrix whose nonzero block is diag(values)."""
    return Spectrum(n=n, singular_values=np.array(values, dtype=np.float64))


class TestStochasticComplexityTerms:
    """The per-k stochastic-complexity terms, as tabulated by score_table."""

    def test_worked_example(self):
        t = score_table(_spectrum(4, [math.sqrt(98.0), 1.0, 1.0]), math.log(100.0), epsilon=1 / 6)[0]
        assert t.k == 1
        assert t.lower_total == pytest.approx(WORKED_SCORE, abs=1e-9)

    def test_delta_upper_closed_form(self):
        per_k = score_table(_spectrum(20, list(range(10, 0, -1))), 0.0, epsilon=0.05)
        assert per_k[1].k == 2
        assert per_k[1].delta_upper == pytest.approx(20 * math.log(4.0), abs=1e-12)
        assert all(t.upper_total >= t.lower_total for t in per_k)

    def test_matches_regression_kernel(self):
        """The table must agree with the scalar kernel: the k-score is the
        regression code length at n_obs=mn, n_params=kn, tau=tail energy."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, m = int(rng.integers(6, 30)), int(rng.integers(3, 8))
            n = max(n, m)
            x = rng.standard_normal((n, m))
            s = svd(x)
            gram = float(np.sum((x.T @ x) ** 2))
            per_k = score_table(singular_spectrum(x), math.log(gram), epsilon=default_epsilon(m))
            assert [t.k for t in per_k] == list(range(1, m))
            for t in per_k:
                kernel = regression_nml(
                    RegressionNmlInputs(
                        n_obs=m * n,
                        n_params=t.k * n,
                        tau_hat=tail_energy(s, t.k),
                        fit_energy=gram,
                    )
                )
                assert t.lower_total == pytest.approx(kernel, rel=1e-12)

    def test_k_out_of_range(self):
        """A single singular value leaves no candidate rank in [1, m-1]; a
        spectrum with more values than rows is not a taller-than-wide one."""
        with pytest.raises(DomainError):
            score_table(_spectrum(4, [3.0]), 0.0, epsilon=0.25)
        with pytest.raises(DomainError):
            score_table(_spectrum(2, [3.0, 2.0, 1.0]), 0.0, epsilon=1 / 6)

    def test_invalid_epsilon(self):
        s = _spectrum(4, [3.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            score_table(s, 0.0, epsilon=0.4)  # >= 1/m
        with pytest.raises(DomainError):
            score_table(s, 0.0, epsilon=0.15)  # 1/eps not integer
        with pytest.raises(DomainError):
            score_table(s, math.inf, epsilon=1 / 6)  # gram energy must be finite

    def test_tail_floor_marks_exactly_zero_tail(self):
        per_k = score_table(_spectrum(20, [3.0, 2.0, 0.0, 0.0, 0.0]), math.log(10.0), epsilon=0.1)
        assert [t.floored for t in per_k] == [False, True, True, True]
        assert all(math.isfinite(t.lower_total) for t in per_k)

    def test_tiny_nonzero_tail_not_floored(self):
        rng = np.random.default_rng(9)
        x = planted_rank_matrix(rng, 20, 5, 2)
        t = score_table(singular_spectrum(x), math.log(10.0), epsilon=0.1)[3]
        assert t.k == 4
        assert not t.floored
        assert math.isfinite(t.lower_total)


class TestSelectRank:
    def test_recovers_planted_rank(self):
        rng = np.random.default_rng(100)
        x0 = planted_rank_matrix(rng, 50, 8, 3)
        lam3 = np.linalg.svd(x0, compute_uv=False)[2]
        x = x0 + rng.normal(0.0, 1e-6 * lam3, x0.shape)
        rep = select_rank(x)
        assert rep.k_lower_opt == 3 and rep.k_upper_opt == 3
        assert rep.k_bracket == (3, 3)

    def test_equal_singular_values_still_reports(self):
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        rep = select_rank(np.vstack([q, q]) * 2.0)
        assert len(rep.per_k) == 5
        assert 1 <= rep.k_lower_opt <= 5 and 1 <= rep.k_upper_opt <= 5

    def test_planted_rank_regime_both_gram_args(self):
        x = generate_lin(SyntheticSpec(n=500, m=30, true_k=10, noise_sigma=0.1, seed=7))
        rep = select_rank(x)
        assert rep.k_bracket[0] <= 10 <= rep.k_bracket[1]
        alt = select_rank(x, gram_mode="per_row_sum")
        assert len(alt.per_k) == 29  # alternative aggregation also reports fully

    def test_per_row_sum_gram_term_is_log_sum_of_row_energies(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((12, 4))
        rep = select_rank(x, gram_mode="per_row_sum")
        row_log_sum = float(np.sum(np.log(np.sum(x * x, axis=1))))
        for t in rep.per_k:
            assert t.gram_term == pytest.approx(t.k * row_log_sum, rel=1e-12)

    def test_per_row_sum_survives_a_zero_row(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 4))
        x[3] = 0.0
        rep = select_rank(x, gram_mode="per_row_sum")
        assert all(math.isfinite(t.lower_total) for t in rep.per_k)

    def test_default_epsilon_is_half_reciprocal_width(self):
        rng = np.random.default_rng(6)
        rep = select_rank(rng.standard_normal((10, 4)))
        assert rep.epsilon == pytest.approx(1 / 8, abs=0)

    def test_per_k_covers_range_ascending(self):
        rng = np.random.default_rng(23)
        rep = select_rank(rng.standard_normal((15, 6)))
        assert [t.k for t in rep.per_k] == list(range(1, 6))

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            select_rank(np.zeros((8, 4)))

    def test_too_small_or_wide_rejected(self):
        with pytest.raises(DomainError):
            select_rank(np.ones((1, 3)))
        with pytest.raises(DomainError, match="transpose"):
            select_rank(np.ones((3, 5)))

    def test_shared_spectrum_must_match_the_matrix(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((12, 4))
        shared = select_rank(x, spectrum=singular_spectrum(x))
        assert shared.per_k == select_rank(x).per_k
        with pytest.raises(DomainError, match="does not match"):
            select_rank(x, spectrum=singular_spectrum(x[:-1]))

    def test_invalid_gram_mode(self):
        with pytest.raises(DomainError):
            select_rank(np.eye(4), gram_mode="mystery")


class TestArgminTieBreaking:
    @staticmethod
    def _terms(k, total):
        return ComplexityTerms(
            k=k,
            tail_term=total,
            gram_term=0.0,
            ratio_term=0.0,
            count_term=0.0,
            delta_upper=0.0,
        )

    def test_smallest_k_wins_ties(self):
        per_k = [self._terms(k, total) for k, total in [(1, 5.0), (2, 3.0), (3, 3.0), (4, 9.0)]]
        assert _argmin_by(per_k, "lower_total") == 2

    def test_evaluation_order_does_not_matter(self):
        rng = np.random.default_rng(31)
        totals = [5.0, 3.0, 3.0, 9.0, 3.0]
        per_k = [self._terms(k + 1, t) for k, t in enumerate(totals)]
        for _ in range(20):
            shuffled = list(per_k)
            rng.shuffle(shuffled)
            assert _argmin_by(shuffled, "lower_total") == 2


class TestBoundGapRatio:
    @staticmethod
    def _ratios(totals_and_deltas):
        """(k, gap_ratio) of terms whose lower total is the given total."""
        return [
            (k, ComplexityTerms(
                k=k,
                tail_term=total,
                gram_term=0.0,
                ratio_term=0.0,
                count_term=0.0,
                delta_upper=delta,
            ).gap_ratio)
            for k, (total, delta) in enumerate(totals_and_deltas, start=1)
        ]

    def test_zero_delta_gives_zero_ratios(self):
        assert self._ratios([(10.0, 0.0), (20.0, 0.0)]) == [(1, 0.0), (2, 0.0)]

    def test_worked_ratio(self):
        (k, ratio), = self._ratios([(100.0, 20 * math.log(4.0))])
        assert k == 1
        assert ratio == pytest.approx(0.27726, abs=5e-6)

    def test_zero_lower_total_flagged_undefined(self):
        ratios = self._ratios([(0.0, 1.0), (5.0, 1.0)])
        assert ratios[0] == (1, None)
        assert ratios[1][1] == pytest.approx(0.2)

    def test_ratios_from_real_selection(self):
        rng = np.random.default_rng(77)
        rep = select_rank(rng.standard_normal((20, 5)))
        for t in rep.per_k:
            assert t.gap_ratio is not None
            assert t.gap_ratio == (t.upper_total - t.lower_total) / abs(t.lower_total)


def test_exact_rank_recovery_property():
    """Constructions with noise far below the smallest kept singular value
    recover their planted rank with both totals."""
    rng = np.random.default_rng(2024)
    for trial in range(20):
        r = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(max(r + 2, 6), 16))
        n = 10 * m
        x0 = planted_rank_matrix(rng, n, m, r)
        lam_r = np.linalg.svd(x0, compute_uv=False)[r - 1]
        x = x0 + rng.normal(0.0, 1e-6 * lam_r, (n, m))
        rep = select_rank(x)
        assert rep.k_lower_opt == r and rep.k_upper_opt == r, (trial, r, m)


def _gaussian(seed, n, m):
    return np.random.default_rng(seed).standard_normal((n, m))


def _totals(rep):
    return np.array([[t.lower_total, t.upper_total] for t in rep.per_k])


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    log10_c=st.floats(-100.0, 100.0),
)
def test_full_gram_scale_identity(seed, log10_c):
    """Rescaling X by c adds exactly 2nm ln c + 2nk ln c to the rank-k
    score under full_gram (the tail energy is quadratic in X, the gram
    energy quartic), for c from 1e-100 to 1e100. Floored ranks are exempt:
    their residual energy is replaced by a constant."""
    n, m = 15, 5
    x = _gaussian(seed, n, m)
    c = 10.0**log10_c
    base, scaled = select_rank(x), select_rank(x * c)
    ln_c = math.log(c)
    for t0, t1 in zip(base.per_k, scaled.per_k):
        if t0.floored or t1.floored:
            continue
        shift = 2 * n * m * ln_c + 2 * n * t0.k * ln_c
        magnitude = sum(abs(v) for v in (t0.tail_term, t0.gram_term, t1.tail_term, t1.gram_term))
        assert abs((t1.lower_total - t0.lower_total) - shift) <= 1e-12 * magnitude + 1e-9
        assert t1.delta_upper == t0.delta_upper


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    gram_mode=st.sampled_from(["full_gram", "per_row_sum"]),
    data=st.data(),
)
def test_row_and_column_permutation_invariance(seed, gram_mode, data):
    """Reordering the observations or the variables changes neither the
    selected ranks nor, beyond rounding, the per-k totals."""
    n, m = 20, 6
    x = _gaussian(seed, n, m)
    rows = np.array(data.draw(st.permutations(range(n)), label="rows"))
    cols = np.array(data.draw(st.permutations(range(m)), label="cols"))
    base = select_rank(x, gram_mode=gram_mode)
    for moved in (x[rows], x[:, cols], x[rows][:, cols]):
        rep = select_rank(moved, gram_mode=gram_mode)
        assert (rep.k_lower_opt, rep.k_upper_opt) == (base.k_lower_opt, base.k_upper_opt)
        np.testing.assert_allclose(_totals(rep), _totals(base), rtol=1e-12)
