import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlrank import (
    DegenerateInputError,
    DomainError,
    Spectrum,
    SyntheticSpec,
    analyse,
    default_epsilon,
    generate_lin,
    score_table,
    select_rank,
    singular_spectrum,
    svd,
    tail_energy,
)
from mdlrank import complexity, linalg, quantized_unitary_log_count_bound
from mdlrank.complexity import GRAM_MODES, ScoreTable, _gap_ratio, regression_nml, score_stack
from mdlrank.linalg import UNIT_ROUNDOFF
from helpers import planted_rank_matrix

# seeded once per example: deterministic, and no example database on disk
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# 8 ln2 + 4 ln100 + 7 ln1.5 - 5 ln4, frozen from a 50-digit evaluation
WORKED_SCORE = 19.872642139589626


class TestRegressionNml:
    def test_all_terms_vanish(self):
        assert regression_nml(n_obs=2, n_params=1, tau_hat=1.0, fit_energy=1.0) == 0.0

    def test_worked_value(self):
        got = regression_nml(n_obs=12, n_params=4, tau_hat=2.0, fit_energy=100.0)
        assert got == pytest.approx(WORKED_SCORE, abs=1e-12)

    def test_no_parameters_rejected(self):
        with pytest.raises(DomainError, match="n_params must be >= 1, got 0"):
            regression_nml(n_obs=10, n_params=0, tau_hat=1.0, fit_energy=1.0)

    def test_params_must_be_fewer_than_observations(self):
        with pytest.raises(DomainError):
            regression_nml(n_obs=10, n_params=10, tau_hat=1.0, fit_energy=1.0)

    @pytest.mark.parametrize("tau,fit", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_scales_rejected(self, tau, fit):
        with pytest.raises(DomainError):
            regression_nml(n_obs=5, n_params=2, tau_hat=tau, fit_energy=fit)


def _spectrum(n, values):
    """Spectrum of the n x m matrix whose nonzero block is diag(values)."""
    return Spectrum(n=n, singular_values=np.array(values, dtype=np.float64))


class TestScoreTable:
    """The per-k stochastic-complexity terms, as tabulated by score_table."""

    def test_worked_example(self):
        table = score_table(_spectrum(4, [math.sqrt(98.0), 1.0, 1.0]), math.log(100.0), epsilon=1 / 6)
        assert table.k[0] == 1
        assert table.lower_total[0] == pytest.approx(WORKED_SCORE, abs=1e-9)

    def test_delta_upper_closed_form(self):
        table = score_table(_spectrum(20, list(range(10, 0, -1))), 0.0, epsilon=0.05)
        assert table.k[1] == 2
        assert table.delta_upper[1] == pytest.approx(20 * math.log(4.0), abs=1e-12)
        assert np.all(table.upper_total >= table.lower_total)

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
            table = score_table(singular_spectrum(x), math.log(gram), epsilon=default_epsilon(m))
            assert table.k.tolist() == list(range(1, m))
            for k in range(1, m):
                kernel = regression_nml(
                    n_obs=m * n,
                    n_params=k * n,
                    tau_hat=tail_energy(s, k),
                    fit_energy=gram,
                )
                assert table.lower_total[k - 1] == pytest.approx(kernel, rel=1e-12)

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
        """A zero residual energy is scored at n*m*(u*s1)^2."""
        table = score_table(_spectrum(20, [3.0, 2.0, 0.0, 0.0, 0.0]), math.log(10.0), epsilon=0.1)
        assert table.floored.tolist() == [False, True, True, True]
        assert np.all(np.isfinite(table.lower_total))
        floor = 20 * 5 * (UNIT_ROUNDOFF * 3.0) ** 2
        want = (20 * 5 - 20 * table.k[1:]) * math.log(floor)
        np.testing.assert_allclose(table.tail_term[1:], want, rtol=1e-15)

    def test_exact_rank_tails_are_floored(self):
        """The tails of an exactly rank-2 matrix beyond rank 2 are rounding
        noise, not zero, and are floored."""
        x = planted_rank_matrix(np.random.default_rng(9), 20, 5, 2)
        table = score_table(singular_spectrum(x), math.log(10.0), epsilon=0.1)
        assert table.floored.tolist() == [False, True, True, True]

    def test_tiny_nonzero_tail_not_floored(self):
        """A column scaled by 2**-30 leaves a small but real tail."""
        x = np.random.default_rng(9).standard_normal((20, 5))
        x[:, 4] = np.ldexp(x[:, 4], -30)
        table = score_table(singular_spectrum(x), math.log(10.0), epsilon=0.1)
        assert not table.floored.any()
        assert math.isfinite(table.lower_total[4 - 1])


class TestScoreStack:
    """The stacked kernel scores each spectrum of a stack exactly as it
    scores that spectrum alone, whatever else is in the stack."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        rows=st.integers(1, 12),
        data=st.data(),
    )
    def test_each_row_is_its_spectrum_scored_alone(self, seed, m, rows, data):
        """Mixed row counts and scales, zero values, and numerically zero
        tails: every cell of every row has the bits of score_table."""
        rng = np.random.default_rng(seed)
        spectra = []
        for _ in range(rows):
            values = np.sort(np.abs(rng.standard_normal(m)))[::-1]
            values = np.ldexp(values, data.draw(st.integers(-600, 600), label="exponent"))
            cliff = data.draw(st.integers(1, m), label="cliff")
            values[cliff:] = np.ldexp(values[cliff:], -data.draw(st.integers(0, 800), label="drop"))
            values[m - data.draw(st.integers(0, m - 1), label="zeros"):] = 0.0
            spectra.append(Spectrum(m + data.draw(st.integers(0, 500), label="extra"), values))
        log_gram = [data.draw(st.floats(-1e3, 1e3), label="log_gram") for _ in range(rows)]
        epsilon = 1 / data.draw(st.integers(m + 1, 4 * m), label="1/epsilon")
        stack = Spectrum(
            n=np.array([s.n for s in spectra]),
            singular_values=np.array([s.singular_values for s in spectra]),
        )
        table = score_stack(stack, log_gram, epsilon)
        for p, spectrum in enumerate(spectra):
            alone = score_table(spectrum, log_gram[p], epsilon)
            for name, column, want in zip(ScoreTable._fields, table, alone):
                got = column[p]
                assert got.dtype == want.dtype, name
                assert list(map(repr, got.tolist())) == list(map(repr, want.tolist())), (p, name)

    def test_all_zero_spectrum_rejected(self):
        """It has no scale to floor its residual energies against."""
        stack = Spectrum(n=[4, 4], singular_values=np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(DomainError, match="all-zero spectrum"):
            score_stack(stack, [0.0, 0.0], 1 / 6)


class TestSlack:
    """``delta_upper = m*k*ln(2/(m*eps))`` charges ln(2/(m*eps)) nats per
    loadings entry. It is not criterion 7's count of quantized
    orthonormal-column matrices, which charges about ln(2/eps + 1) - 1/2
    per entry, and at the default step it lies below that count for every
    m up to 300."""

    def test_below_the_count_bound_at_the_default_step(self):
        worst = 0.0
        for m in range(2, 301):
            epsilon = default_epsilon(m)
            slack = score_table(Spectrum(m, np.ones(m)), 0.0, epsilon).delta_upper
            for k, value in enumerate(slack.tolist(), start=1):
                bound = quantized_unitary_log_count_bound(m, k, epsilon)
                assert 0 < value < bound, (m, k)
                worst = max(worst, value / bound)
        assert worst == pytest.approx(0.7168, abs=1e-4)  # at m = 3, k = 2

    @pytest.mark.parametrize(
        "m, k, slack, bound",
        [(30, 5, 207.9, 637.8), (30, 10, 415.9, 1270.5), (300, 10, 4158.9, 19792.7)],
    )
    def test_recorded_figures(self, m, k, slack, bound):
        epsilon = default_epsilon(m)
        table = score_table(Spectrum(m, np.ones(m)), 0.0, epsilon)
        assert table.delta_upper[k - 1] == pytest.approx(slack, abs=0.05)
        assert table.delta_upper[k - 1] == pytest.approx(m * k * math.log(4.0), rel=1e-15)
        assert quantized_unitary_log_count_bound(m, k, epsilon) == pytest.approx(bound, abs=0.05)


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
        assert len(rep.per_k.k) == 5
        assert 1 <= rep.k_lower_opt <= 5 and 1 <= rep.k_upper_opt <= 5

    def test_planted_rank_regime_both_gram_args(self):
        x = generate_lin(SyntheticSpec(n=500, m=30, true_k=10, noise_sigma=0.1, seed=7))
        rep = select_rank(x)
        assert rep.k_bracket[0] <= 10 <= rep.k_bracket[1]
        alt = select_rank(x, gram_mode="per_row_sum")
        assert len(alt.per_k.k) == 29  # alternative aggregation also reports fully

    def test_per_row_sum_gram_term_is_log_sum_of_row_energies(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((12, 4))
        rep = select_rank(x, gram_mode="per_row_sum")
        row_log_sum = float(np.sum(np.log(np.sum(x * x, axis=1))))
        for k, gram_term in zip(rep.per_k.k.tolist(), rep.per_k.gram_term.tolist()):
            assert gram_term == pytest.approx(k * row_log_sum, rel=1e-12)

    def test_per_row_sum_survives_a_zero_row(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 4))
        x[3] = 0.0
        rep = select_rank(x, gram_mode="per_row_sum")
        assert np.all(np.isfinite(rep.per_k.lower_total))

    def test_default_epsilon_is_half_reciprocal_width(self):
        """The report carries no epsilon; the default shows in the slack
        column, which is the only one epsilon enters."""
        x = np.random.default_rng(6).standard_normal((10, 4))
        slack = select_rank(x).per_k.delta_upper
        assert np.array_equal(slack, select_rank(x, epsilon=1 / 8).per_k.delta_upper)
        assert not np.array_equal(slack, select_rank(x, epsilon=1 / 16).per_k.delta_upper)

    def test_default_epsilon_needs_a_column(self):
        with pytest.raises(DomainError, match="m must be positive, got 0"):
            default_epsilon(0)

    def test_per_k_covers_range_ascending(self):
        rng = np.random.default_rng(23)
        rep = select_rank(rng.standard_normal((15, 6)))
        assert rep.per_k.k.tolist() == list(range(1, 6))

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            select_rank(np.zeros((8, 4)))

    def test_too_small_or_wide_rejected(self):
        """In either gram mode, as is a NaN entry: the matrix is checked
        once, where it enters, before anything is scored."""
        nan = np.random.default_rng(25).standard_normal((12, 4))
        nan[7, 2] = np.nan
        for gram_mode in GRAM_MODES:
            with pytest.raises(DomainError):
                select_rank(np.ones((1, 3)), gram_mode=gram_mode)
            with pytest.raises(DomainError, match=r"^need at least as many rows as columns, got 3 x 5$"):
                select_rank(np.ones((3, 5)), gram_mode=gram_mode)
            with pytest.raises(DomainError, match="finite"):
                select_rank(nan, gram_mode=gram_mode)

    def test_largest_singular_value_beyond_float64_rejected(self):
        """Finite entries whose largest singular value (here about 4.5e308)
        is beyond the float64 range: a DomainError in either gram mode, not
        infinite totals or an overflow warning."""
        x = np.random.default_rng(0).standard_normal((2000, 5)) * 1e307
        for gram_mode in GRAM_MODES:
            with pytest.raises(DomainError, match="float64 range"):
                select_rank(x, gram_mode=gram_mode)

    def test_invalid_gram_mode(self):
        with pytest.raises(DomainError):
            select_rank(np.eye(4), gram_mode="mystery")


class TestArgminTieBreaking:
    def test_smallest_k_wins_ties(self, monkeypatch):
        """Equal totals select the smallest k that attains them."""
        lower = np.array([5.0, 3.0, 3.0, 9.0, 3.0])
        upper = np.array([4.0, 4.0, 1.0, 2.0, 1.0])
        k = np.arange(1, 6)
        zeros = np.zeros(5)
        tied = ScoreTable(k, zeros, zeros, zeros, zeros, upper - lower, lower, upper,
                          _gap_ratio(lower, upper), np.zeros(5, dtype=bool))
        stack = ScoreTable(*(column[None] for column in tied))
        monkeypatch.setattr(complexity, "score_stack", lambda *args: stack)
        rep = select_rank(np.random.default_rng(31).standard_normal((12, 6)))
        assert (rep.k_lower_opt, rep.k_upper_opt, rep.k_bracket) == (2, 3, (2, 3))


def _assert_same_report(got, want):
    """Both selections and every score column, bit for bit."""
    assert (got.k_lower_opt, got.k_upper_opt, got.k_bracket) == (
        want.k_lower_opt, want.k_upper_opt, want.k_bracket
    )
    for name, mine, theirs in zip(ScoreTable._fields, got.per_k, want.per_k):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


def _constant_head(rows, m, head):
    """Gaussian rows whose column 3 is constant over the first *head*."""
    x = np.random.default_rng(41).standard_normal((rows, m))
    x[:head, 2] = 1.5
    return x


# a width at which analyse stacks a few prefixes per SVD call, and prefix
# lengths that fill two of those chunks and start a third
WIDE = 100
CHUNK = max(1, linalg.STACK_BYTES // (8 * (WIDE + 1) ** 2))
WIDE_LENGTHS = list(range(WIDE, WIDE + 2 * CHUNK + 1))
# column 3 is constant up to the second prefix of the second chunk
WIDE_HEAD = WIDE_LENGTHS[CHUNK + 1]


class TestAnalyse:
    """analyse over many prefixes gives each the bits of analyse on that
    prefix alone, and select_rank is its one-prefix, one-mode case."""

    @pytest.mark.parametrize(
        "x, lengths, skipped",
        [
            # Kaiser is skipped on the prefixes where column 3 is constant
            (_constant_head(60, 5, 25), [40, 5, 25, 60, 26, 5, 40],
             [{"kaiser"}, {"kaiser"}, set(), set(), set()]),
            # the same across the boundary of two stacked chunks
            (_constant_head(WIDE_LENGTHS[-1], WIDE, WIDE_HEAD), WIDE_LENGTHS[::-1] + WIDE_LENGTHS[:3],
             [{"kaiser"} if n <= WIDE_HEAD else set() for n in WIDE_LENGTHS]),
            # two scree points have no knee
            (np.random.default_rng(43).standard_normal((30, 2)), [30, 2, 10, 2], [{"kneedle"}] * 3),
        ],
    )
    @pytest.mark.parametrize("gram_modes", [GRAM_MODES, GRAM_MODES[::-1]])
    def test_each_prefix_as_if_alone(self, x, lengths, skipped, gram_modes):
        epsilon = default_epsilon(x.shape[1])
        analyses = analyse(x, lengths, epsilon, gram_modes, sensitivity=0.5)
        assert [got.spectrum.n for got in analyses] == sorted(set(lengths))
        assert [set(got.baselines.get("skipped", ())) for got in analyses] == skipped
        for got in analyses:
            n = got.spectrum.n
            (want,) = analyse(x[:n].copy(), [n], epsilon, gram_modes, sensitivity=0.5)
            assert n == want.spectrum.n
            assert np.array_equal(got.spectrum.singular_values, want.spectrum.singular_values)
            assert got.baselines == want.baselines
            assert len(got.reports) == len(want.reports) == len(gram_modes)
            for mine, theirs in zip(got.reports, want.reports):
                _assert_same_report(mine, theirs)

    def test_failed_stack_falls_back_matrix_by_matrix(self, monkeypatch):
        """When LAPACK fails on a stack, the values-only SVD of the spectra
        and the eigensolve of the correlations alike take each of its
        matrices alone, with the bits of the stacked call, so the reports
        and the baselines are the same."""
        x = _constant_head(WIDE_LENGTHS[-1], WIDE, WIDE_HEAD)
        want = analyse(x, WIDE_LENGTHS, default_epsilon(WIDE))
        stacks = []

        def failing(name, real):
            def call(a, *args, **kwargs):
                if a.ndim == 3:
                    stacks.append((name, len(a)))
                    raise np.linalg.LinAlgError(f"{name} did not converge")
                return real(a, *args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "svd", failing("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", failing("eigvalsh", np.linalg.eigvalsh))
        got = analyse(x, WIDE_LENGTHS, default_epsilon(WIDE))
        # per chunk its spectra, then the correlations of its usable prefixes:
        # none in the first, all but the two with column 3 constant in the second
        assert stacks == [("svd", CHUNK), ("svd", CHUNK), ("eigvalsh", CHUNK - 2), ("svd", 1), ("eigvalsh", 1)]
        for mine, theirs in zip(got, want, strict=True):
            assert mine.spectrum.n == theirs.spectrum.n
            assert np.array_equal(mine.spectrum.singular_values, theirs.spectrum.singular_values)
            assert mine.baselines == theirs.baselines
            _assert_same_report(*mine.reports, *theirs.reports)

    def test_no_length_rejected(self):
        with pytest.raises(DomainError, match="no prefix length"):
            analyse(np.eye(3), [], 1 / 6)

    def test_unknown_mode_refused_before_any_row_is_factored(self, monkeypatch):
        calls, real = [], complexity.prefix_factors

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(complexity, "prefix_factors", spy)
        with pytest.raises(DomainError, match="gram_mode must be one of"):
            analyse(np.eye(3), [3], 1 / 6, ("bogus",))
        assert calls == []

    @pytest.mark.parametrize("gram_mode", GRAM_MODES)
    def test_select_rank_is_the_one_prefix_case(self, gram_mode):
        x = generate_lin(SyntheticSpec(n=200, m=12, true_k=4, seed=3))
        (analysis,) = analyse(x, [200], default_epsilon(12), (gram_mode,))
        (report,) = analysis.reports
        _assert_same_report(select_rank(x, gram_mode=gram_mode), report)


class TestBoundGapRatio:
    @staticmethod
    def _ratios(totals_and_deltas):
        """(k, gap_ratio) of ranks whose lower total is the given total and
        whose upper total exceeds it by the given slack."""
        lower = np.array([total for total, _ in totals_and_deltas])
        upper = lower + np.array([delta for _, delta in totals_and_deltas])
        return list(enumerate(_gap_ratio(lower, upper).tolist(), start=1))

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
        table = select_rank(rng.standard_normal((20, 5))).per_k
        rows = zip(table.gap_ratio.tolist(), table.lower_total.tolist(), table.upper_total.tolist())
        for gap, lower, upper in rows:
            assert gap is not None
            assert gap == (upper - lower) / abs(lower)


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
    return np.column_stack([rep.per_k.lower_total, rep.per_k.upper_total])


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    log10_c=st.floats(-100.0, 100.0),
)
def test_full_gram_scale_identity(seed, log10_c):
    """Rescaling X by c adds exactly 2nm ln c + 2nk ln c to the rank-k
    score under full_gram (the tail energy is quadratic in X, the gram
    energy quartic), for c from 1e-100 to 1e100."""
    n, m = 15, 5
    x = _gaussian(seed, n, m)
    c = 10.0**log10_c
    t0, t1 = select_rank(x).per_k, select_rank(x * c).per_k
    ln_c = math.log(c)
    shift = 2 * n * m * ln_c + 2 * n * t0.k * ln_c
    magnitude = sum(np.abs(v) for v in (t0.tail_term, t0.gram_term, t1.tail_term, t1.gram_term))
    error = np.abs((t1.lower_total - t0.lower_total) - shift)
    assert np.all(error <= 1e-12 * magnitude + 1e-9)
    assert np.array_equal(t1.delta_upper, t0.delta_upper)


EXACT_KINDS = ("planted", "lin", "integer")


def _exact_rank(kind, seed, n, m, r):
    """An exactly rank-r n x m matrix: a planted spectrum in [1, 10],
    generate_lin without noise, or the product of two integer factors in
    [-9, 9] of full rank r."""
    rng = np.random.default_rng(seed)
    if kind == "planted":
        return planted_rank_matrix(rng, n, m, r)
    if kind == "lin":
        return generate_lin(SyntheticSpec(n=n, m=m, true_k=r, noise_sigma=0.0, seed=seed))
    while True:
        left, right = rng.integers(-9, 10, (n, r)), rng.integers(-9, 10, (r, m))
        if np.linalg.matrix_rank(left) == np.linalg.matrix_rank(right) == r:
            return (left @ right).astype(np.float64)


@st.composite
def _gaussian_or_exact_rank(draw):
    """(x, r): a Gaussian matrix, which may have a zero row, with r = None,
    or an exactly rank-r matrix of one of EXACT_KINDS."""
    seed, m = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 12))
    n = draw(st.integers(m, 120))
    kind = draw(st.sampled_from(("gaussian",) + EXACT_KINDS))
    if kind == "gaussian":
        x = _gaussian(seed, n, m)
        if draw(st.booleans()):
            x[draw(st.integers(0, n - 1))] = 0.0
        return x, None
    r = draw(st.integers(1, m - 1))
    return _exact_rank(kind, seed, n, m, r), r


def _reports(x, log2_scale=0):
    """The full_gram and per_row_sum reports of x * 2**log2_scale."""
    y = np.ldexp(x, log2_scale)
    (analysis,) = analyse(y, [len(y)], default_epsilon(x.shape[1]), GRAM_MODES)
    return analysis.reports


class TestNumericalZero:
    """A residual energy below n*m*(u*s1)^2 is numerically zero: the
    floored ranks are a function of the spectrum's shape, so they and
    per_row_sum's selected k do not change when the data are scaled by a
    power of two, and an exactly rank-r matrix floors exactly ranks r and
    beyond, its tails there being the decomposition's rounding."""

    @PROPERTY
    @given(matrix=_gaussian_or_exact_rank(), log2_scale=st.integers(-900, 900))
    def test_floored_is_bit_identical_under_powers_of_two(self, matrix, log2_scale):
        x, r = matrix
        full, rows = _reports(x)
        scaled_full, scaled_rows = _reports(x, log2_scale)
        assert np.array_equal(full.per_k.floored, scaled_full.per_k.floored)
        assert np.array_equal(rows.per_k.floored, scaled_rows.per_k.floored)
        if r is not None:
            assert full.per_k.floored.tolist() == [k >= r for k in full.per_k.k.tolist()]

    @PROPERTY
    @given(matrix=_gaussian_or_exact_rank(), log2_scale=st.integers(-900, 900))
    def test_full_gram_scale_identity_on_every_rank(self, matrix, log2_scale):
        """Scaling by c = 2**j adds 2nm ln c + 2nk ln c to every rank's
        lower total, floored ranks included, since the floor moves with s1."""
        x, _ = matrix
        (n, m), ln_c = x.shape, log2_scale * math.log(2.0)
        t0, t1 = _reports(x)[0].per_k, _reports(x, log2_scale)[0].per_k
        shift = 2 * n * m * ln_c + 2 * n * t0.k * ln_c
        magnitude = sum(np.abs(v) for v in (t0.tail_term, t0.gram_term, t1.tail_term, t1.gram_term))
        error = np.abs((t1.lower_total - t0.lower_total) - shift)
        assert np.all(error <= 1e-12 * magnitude + 1e-9)

    @PROPERTY
    @given(matrix=_gaussian_or_exact_rank(), log2_scale=st.integers(-900, 900))
    def test_per_row_sum_selection_is_unit_free(self, matrix, log2_scale):
        x, _ = matrix
        rows, scaled = _reports(x)[1], _reports(x, log2_scale)[1]
        assert (rows.k_lower_opt, rows.k_upper_opt) == (scaled.k_lower_opt, scaled.k_upper_opt)

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_tall_exact_rank_floors_exactly_ranks_from_its_rank(self, kind, r):
        """At 20000 x 3 the rounding-noise tail lies above (m*u*s1)^2, 10 to
        380 times over these six draws, so a floor without the row count
        would score it as signal."""
        x = _exact_rank(kind, 3, 20000, 3, r)
        s = singular_spectrum(x).singular_values
        assert np.sum(s[r:] ** 2) > (3 * UNIT_ROUNDOFF * s[0]) ** 2
        full, _ = _reports(x)
        assert full.per_k.floored.tolist() == [k >= r for k in (1, 2)]


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


def _column_sliced(x, order):
    """*x* as every other column of a twice-as-wide array in *order*."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]), order=order)
    wide[:, ::2] = x
    return wide[:, ::2]


LAYOUTS = {
    "row-major": np.ascontiguousarray,
    "column-major": np.asfortranarray,
    "column-sliced": lambda x: _column_sliced(x, "C"),
    "column-major-sliced": lambda x: _column_sliced(x, "F"),
}


def _assert_scores_ignore_layout(x, gram_mode):
    """Every score column of each layout of *x* equals the row-major one's."""
    reference = select_rank(np.ascontiguousarray(x), gram_mode=gram_mode).per_k
    for layout, copy in LAYOUTS.items():
        table = select_rank(copy(x), gram_mode=gram_mode).per_k
        for name, got, want in zip(ScoreTable._fields, table, reference):
            assert got.dtype == want.dtype and np.array_equal(got, want), (layout, name)


class TestMemoryLayout:
    """The scores are a function of the matrix's values alone: a row-major,
    a column-major and a column-sliced copy give bit-identical columns."""

    def test_per_row_sum_of_a_column_major_synthetic_matrix(self):
        """numpy sums a column-major row in another order; on this matrix
        that moved the last bit of the gram term."""
        x = generate_lin(SyntheticSpec(n=500, m=30, true_k=5, seed=5))
        _assert_scores_ignore_layout(x, "per_row_sum")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), extra_rows=st.integers(0, 200))
    def test_score_columns_do_not_depend_on_layout(self, seed, m, extra_rows):
        x = _gaussian(seed, m + extra_rows, m)
        for gram_mode in ("full_gram", "per_row_sum"):
            _assert_scores_ignore_layout(x, gram_mode)


class TestLogRowEnergies:
    """_log_row_energies sums each row alone, in an order fixed by its
    buffer: the same bits for every layout of X and every prefix of it,
    -inf for a zero row, and within the rounding of an m-term sum of a
    math.fsum oracle at any power-of-two scale."""

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 400),
        zero_row=st.booleans(),
        log2_scale=st.sampled_from([-1000, 0, 1000]),
    )
    def test_each_row_against_an_exact_sum(self, seed, m, n, zero_row, log2_scale):
        x = _gaussian(seed, n, m)
        if zero_row:
            x[seed % n] = 0.0
        got = complexity._log_row_energies(np.ldexp(x, log2_scale))
        for layout, copy in LAYOUTS.items():
            assert np.array_equal(complexity._log_row_energies(copy(np.ldexp(x, log2_scale))), got), layout
        prefix = seed % n + 1
        assert np.array_equal(complexity._log_row_energies(np.ldexp(x[:prefix], log2_scale)), got[:prefix])
        for row, value in zip(x, got.tolist()):
            energy = math.fsum(float(v) * float(v) for v in row)
            if energy == 0.0:
                assert value == -math.inf
                continue
            want = math.log(energy) + 2 * log2_scale * math.log(2.0)
            # an m-term sum of squares is within m*u relative of the exact
            # one, and the logarithms add their own rounding
            assert abs(value - want) <= m * UNIT_ROUNDOFF + 4 * UNIT_ROUNDOFF * max(1.0, abs(want))

    def test_one_row_alone_as_in_a_block(self):
        """A row is summed in the same order when it is a block of one, the
        whole of X or the last row of a longer block."""
        x = _gaussian(7, 60, 9)
        got = complexity._log_row_energies(x)
        for i in range(len(x)):
            assert complexity._log_row_energies(x[i : i + 1])[0] == got[i]
