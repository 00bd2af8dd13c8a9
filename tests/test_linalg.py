from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlrank import (
    ConvergenceError,
    DomainError,
    frobenius_sq,
    singular_spectrum,
    svd,
    tail_energy,
    truncate,
)
from mdlrank import linalg
from mdlrank.complexity import analyse, default_epsilon
from mdlrank.linalg import (
    BLOCK_FACTOR,
    GRAM_TAU,
    UNIT_ROUNDOFF,
    correlation_values,
    factor_spectrum,
    jacobi_svd,
    prefix_factors,
)
from helpers import random_orthonormal, singular_values_by_gram_eig

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestSvd:
    def test_diagonal_matrix(self):
        s = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(s.singular_values, [3.0, 2.0])

    def test_permutation_matrix(self):
        s = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s.singular_values, [1.0, 1.0])

    def test_singular_values_match_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 3))
        s = svd(x)
        np.testing.assert_allclose(
            s.singular_values, singular_values_by_gram_eig(x), atol=1e-8
        )

    def test_result_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, n + 1))
            x = rng.standard_normal((n, m)) * rng.uniform(0.01, 100)
            s = svd(x)
            sv = s.singular_values
            assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)
            assert np.max(np.abs(s.u.T @ s.u - np.eye(m))) <= 1e-10
            assert np.max(np.abs(s.v.T @ s.v - np.eye(m))) <= 1e-10
            recon = (s.u * sv) @ s.v.T
            assert np.linalg.norm(recon - x) <= 1e-8 * max(1.0, np.linalg.norm(x))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_wide_matrix(self):
        with pytest.raises(DomainError, match="transpose"):
            svd(np.ones((2, 5)))

    @pytest.mark.parametrize(
        "x, message",
        [(np.ones(3), "expected a 2-D matrix, got ndim=1"),
         (np.ones((0, 3)), r"matrix must be non-empty, got shape \(0, 3\)")],
    )
    def test_rejects_what_is_not_a_matrix(self, x, message):
        with pytest.raises(DomainError, match=message):
            linalg.as_matrix(x)

    def test_falls_back_to_jacobi_when_lapack_fails(self, monkeypatch):
        """U, the singular values and V are jacobi_svd's, bit for bit."""
        x = np.random.default_rng(14).standard_normal((7, 4))
        want = jacobi_svd(x)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        for got, expected in zip(svd(x), want, strict=True):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestSingularSpectrum:
    def test_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, 4))
        spec = singular_spectrum(x)
        assert spec.n == 9
        np.testing.assert_allclose(
            spec.singular_values, singular_values_by_gram_eig(x), atol=1e-8
        )

    def test_validates_like_svd(self):
        with pytest.raises(DomainError):
            singular_spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(DomainError, match=r"^need at least as many rows as columns, got 2 x 5$"):
            singular_spectrum(np.ones((2, 5)))

    def test_largest_value_must_be_within_float64(self):
        """Every entry may be finite while the largest singular value is
        not: the float64 maximum itself is kept exactly, and a value
        sqrt(2) times larger is a DomainError, with no overflow warning."""
        big = np.finfo(np.float64).max
        spectrum = singular_spectrum(np.array([[big, 0.0], [0.0, 1.0]]))
        assert spectrum.singular_values.tolist() == [big, 1.0]
        with pytest.raises(DomainError, match="float64 range"):
            singular_spectrum(np.array([[big, 0.0], [big, 1.0]]))

    def test_falls_back_to_jacobi_when_lapack_fails(self, monkeypatch):
        """Both small SVDs of the R factor fall back to one-sided Jacobi."""
        x = np.random.default_rng(13).standard_normal((8, 3))
        x[:, 1] *= 2.0**40
        ((factor,),) = prefix_factors(x, [8])
        top = factor.exponent.max()
        spectrum = jacobi_svd(np.ldexp(factor.r[:-1, :-1], factor.exponent - top)).singular_values
        u = factor.r[:, -1:] / np.linalg.norm(factor.r[:, -1])
        centred = factor.r[:, :-1] - u @ (u.T @ factor.r[:, :-1])
        correlation = jacobi_svd(centred / np.linalg.norm(centred, axis=0)).singular_values ** 2

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        np.testing.assert_array_equal(singular_spectrum(x).singular_values, np.ldexp(spectrum, top))
        np.testing.assert_array_equal(correlation_values([factor]), [correlation])


class TestPrefixFactors:
    M = 5
    STEP = BLOCK_FACTOR * (M + 1)

    def test_is_the_r_factor_of_the_scaled_rows(self):
        x = np.random.default_rng(14).standard_normal((70, self.M)) * [1.0, 1e-9, 1e9, 3.0, 0.5]
        (factors,) = prefix_factors(x, [70, 5, 24, 25, 6])
        for factor in factors:
            assert factor.r.shape == (self.M + 1, self.M + 1)
            assert np.array_equal(factor.r, np.triu(factor.r))
            ones = np.column_stack([np.ldexp(x[: factor.n], -factor.exponent), np.ones(factor.n)])
            np.testing.assert_allclose(
                factor.r.T @ factor.r, ones.T @ ones, rtol=0, atol=1e-12 * factor.n
            )

    def test_yields_sorted_distinct_lengths(self):
        x = np.random.default_rng(15).standard_normal((60, self.M))
        (factors,) = prefix_factors(x, [60, 7, 24, 7, 5])
        assert [f.n for f in factors] == [5, 7, 24, 60]

    def test_each_prefix_equals_its_own_pass(self):
        """A prefix's spectra come out bit for bit as when its rows are
        the whole input, since the grid is counted from the first row."""
        x = np.random.default_rng(16).standard_normal((100, self.M))
        # later rows move every column's exponent by 2^2000: scaled by the
        # exponents of all rows, the earlier ones would underflow to zero
        x[:60] *= 2.0**-1000
        x[60:] *= 2.0**1000
        lengths = [5, 6, self.STEP - 1, self.STEP, self.STEP + 1, 2 * self.STEP + 1, 59, 100]
        (factors,) = prefix_factors(x, lengths)
        spectra, correlations = factor_spectrum(factors), correlation_values(factors)
        for p, factor in enumerate(factors):
            (own,) = prefix_factors(x[: factor.n], [factor.n])
            own_spectrum = factor_spectrum(own)
            assert spectra.n[p] == own_spectrum.n[0] == factor.n
            assert np.array_equal(spectra.singular_values[p], own_spectrum.singular_values[0])
            assert np.array_equal(correlations[p], correlation_values(own)[0])
            assert np.array_equal(factor.constant, own[0].constant)

    def test_constant_columns_per_prefix(self):
        x = np.random.default_rng(17).standard_normal((60, self.M))
        x[:30, 2] = 0.7  # constant over the first 30 rows only
        (factors,) = prefix_factors(x, [10, 30, 31, 60])
        flags = {f.n: f.constant.tolist() for f in factors}
        assert flags[10] == flags[30] == [False, False, True, False, False]
        assert flags[31] == flags[60] == [False] * self.M

    def test_rejects_a_prefix_wider_than_tall(self):
        with pytest.raises(DomainError, match=r"^need at least as many rows as columns, got 4 x 5$"):
            list(prefix_factors(np.ones((20, self.M)), [4, 20]))

    @pytest.mark.parametrize("lengths", [[60], [-5], [0, 20], [10, 51]])
    def test_rejects_a_length_outside_the_rows(self, lengths):
        x = np.random.default_rng(18).standard_normal((50, self.M))
        with pytest.raises(DomainError, match=r"outside \[1, 50\]"):
            list(prefix_factors(x, lengths))


class TestGramRoute:
    """A prefix's R is the Cholesky factor of its Gram when the gate holds,
    and the Householder folds' R otherwise; either way the selection and
    the baselines are those of the fold route."""

    @staticmethod
    def _gated(x, lengths=None):
        """The factors of the prefixes of *x* whose lengths are in *lengths*
        (all of *x* by default), which must make one chunk, and whether the
        Gram route made each."""
        ran, real = [], linalg._gram_factor

        def recording(grams):
            factors = real(grams)
            assert len(factors) == len(grams)
            ran.extend(r is not None for r in factors)
            return factors

        with mock.patch.object(linalg, "_gram_factor", recording):
            (factors,) = prefix_factors(x, lengths or [len(x)])
        assert len(ran) == len(factors)
        return factors, ran

    @staticmethod
    def _refused(grams):
        """A gate that refuses every Gram, so that every R is folded."""
        return [None] * len(grams)

    def _folded(self, x):
        """The fold route's factor of all of *x*."""
        with mock.patch.object(linalg, "_gram_factor", self._refused):
            ((factor,),) = prefix_factors(x, [len(x)])
        return factor

    @staticmethod
    def _selection(x, gram_factor):
        """k_lower, k_upper, the bracket and the baselines (Kaiser and
        kneedle) that analyse gives *x* with *gram_factor* in place of the
        Gram route's: the real one, or one that always refuses, so that
        every R is folded."""
        with mock.patch.object(linalg, "_gram_factor", gram_factor):
            (analysis,) = analyse(x, [len(x)], default_epsilon(x.shape[1]))
        (report,) = analysis.reports
        return report.k_lower_opt, report.k_upper_opt, report.k_bracket, analysis.baselines

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 8),
        extra_rows=st.integers(2, 120),
        log_condition=st.floats(0.0, 12.0),
        exponents=st.lists(st.integers(-8, 8), min_size=8, max_size=8),
        mean=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
        mean_column=st.integers(0, 2),
    )
    def test_same_selection_as_the_folds(
        self, seed, m, extra_rows, log_condition, exponents, mean, mean_column
    ):
        """Log-spaced spectra of condition number 1 to 1e12, columns scaled
        by powers of two and by other factors, and a column whose mean is
        up to 1e6 times its spread. The Gram route runs exactly when the
        least eigenvalue of R_eq^T R_eq clears the gate's δ, and then
        m u κ(R_eq)^2 <= GRAM_TAU. The scalings stay within 2**±8: once
        the column norms alone span 1/u, the small singular values are
        rounding noise on either route."""
        rng = np.random.default_rng(seed)
        n = m + extra_rows
        s = np.logspace(0.0, -log_condition, m)
        x = (random_orthonormal(rng, n, m) * s) @ random_orthonormal(rng, m).T
        x = np.ldexp(x * rng.uniform(0.1, 10.0, m), exponents[:m])
        x[:, mean_column] += mean * np.abs(x[:, mean_column]).max()
        (_, (gram,)), fold = self._gated(x), self._folded(x)
        assert self._selection(x, linalg._gram_factor) == self._selection(x, self._refused)
        r_eq = fold.r / np.linalg.norm(fold.r, axis=0)
        least = np.linalg.eigvalsh(r_eq.T @ r_eq)[0]
        delta = (m + 1) * m * UNIT_ROUNDOFF / GRAM_TAU
        if abs(least - delta) > 1e-3 * delta:
            assert gram == (least > delta)
        if gram:
            values = np.linalg.svd(r_eq, compute_uv=False)
            assert m * UNIT_ROUNDOFF * (values[0] / values[-1]) ** 2 <= GRAM_TAU

    @pytest.mark.parametrize("column", ["constant", "zero", "collinear", "near-ones"])
    def test_degenerate_columns_take_the_folds(self, column):
        x = np.random.default_rng(19).standard_normal((50, 4))
        x[:, 2] = {"constant": 0.1, "zero": 0.0, "collinear": 3.0 * x[:, 0],
                   "near-ones": 1e9 + x[:, 1]}[column]
        (factor,), routes = self._gated(x)
        assert routes == [False]
        assert np.array_equal(factor.r, self._folded(x).r)

    def test_entries_whose_squares_underflow(self):
        """A column whose peak is 1 and whose other entries are near
        2**-600: their squares underflow in the Gram, and the selection
        and baselines are still those of the folds."""
        rng = np.random.default_rng(20)
        x = rng.standard_normal((80, 6))
        x[:, 2] = np.ldexp(rng.standard_normal(80), -600)
        x[17, 2] = 1.0
        assert self._selection(x, linalg._gram_factor) == self._selection(x, self._refused)

    def test_a_chunk_of_both_routes(self):
        """One chunk holds prefixes on both sides of the last row of a
        column constant over the first 50: those up to it fail the gate,
        which then takes each Gram alone, and the longer ones pass it. Each
        prefix gets the R, route, spectra and baselines of its rows alone,
        bit for bit."""
        x = np.random.default_rng(21).standard_normal((200, 6))
        x[:50, 3] = 0.3
        lengths = [6, 20, 49, 50, 51, 52, 100, 200]
        factors, routes = self._gated(x, lengths)
        assert routes == [False] * 4 + [True] * 4
        epsilon = default_epsilon(6)
        analyses = analyse(x, lengths, epsilon)
        for factor, route, got in zip(factors, routes, analyses, strict=True):
            n = factor.n
            (own,), own_routes = self._gated(x[:n].copy())
            assert own_routes == [route]
            for mine, theirs in zip(factor, own):
                assert np.array_equal(mine, theirs)
            (want,) = analyse(x[:n].copy(), [n], epsilon)
            assert got.spectrum.n == want.spectrum.n == n
            assert np.array_equal(got.spectrum.singular_values, want.spectrum.singular_values)
            assert got.baselines == want.baselines
            assert ("skipped" in got.baselines) == (n <= 50)
            (mine,), (theirs,) = got.reports, want.reports
            assert mine.k_lower_opt == theirs.k_lower_opt and mine.k_upper_opt == theirs.k_upper_opt
            for column, other in zip(mine.per_k, theirs.per_k):
                assert np.array_equal(column, other)


class TestJacobiSvd:
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
    def test_matches_lapack(self, scale):
        """The stopping rule is relative to the column norms, so the
        agreement with LAPACK does not depend on the scale of the data."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, min(n, 10) + 1))
            x = rng.standard_normal((n, m)) * scale
            a, b = svd(x), jacobi_svd(x)
            np.testing.assert_allclose(b.singular_values, a.singular_values, rtol=1e-13, atol=0)
            assert np.max(np.abs(b.u.T @ b.u - np.eye(m))) <= 1e-13
            recon = (b.u * b.singular_values) @ b.v.T
            assert np.max(np.abs(recon - x)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("k", [1, -1, 300, -300, 1000, -1000])
    def test_power_of_two_equivariance(self, k):
        """Scaling by 2**k leaves every bit of U and V and scales each
        singular value exactly."""
        x = np.random.default_rng(8).standard_normal((9, 5))
        a, b = jacobi_svd(x), jacobi_svd(np.ldexp(x, k))
        assert b.u.tobytes() == a.u.tobytes() and b.v.tobytes() == a.v.tobytes()
        assert b.singular_values.tobytes() == np.ldexp(a.singular_values, k).tobytes()

    def test_relative_accuracy_on_graded_columns(self):
        """One column scaled by 2**54: every singular value, the least
        below 1e-17 of the largest, to relative accuracy against a 60-digit
        SVD (LAPACK's is off by a third there)."""
        from mpmath import mp, matrix, svd_r

        rng = np.random.default_rng(0)
        x = (random_orthonormal(rng, 7, 5) * np.logspace(0.0, -1.375, 5)) @ random_orthonormal(rng, 5).T
        x = np.ldexp(x * rng.uniform(0.1, 10.0, 5), [0, 0, 0, 54, 0])
        with mp.workdps(60):
            exact = sorted((float(v) for v in svd_r(matrix(x.tolist()), compute_uv=False)), reverse=True)
        np.testing.assert_allclose(jacobi_svd(x).singular_values, exact, rtol=1e-13, atol=0)

    def test_columns_far_below_the_peak_are_null(self):
        """Columns 2**-1000 below the largest entry have squared norms that
        underflow: no warning, no ConvergenceError, both null, U still
        orthonormal."""
        x = np.random.default_rng(9).standard_normal((8, 6))
        x[:, [1, 4]] = np.ldexp(x[:, [1, 4]], -1000)
        s = jacobi_svd(x)
        assert np.count_nonzero(s.singular_values[:4]) == 4
        assert s.singular_values[4:].tolist() == [0.0, 0.0]
        assert np.max(np.abs(s.u.T @ s.u - np.eye(6))) <= 1e-13

    def test_rank_deficient_input_keeps_orthonormal_u(self):
        x = np.outer(np.ones(5), [1.0, 2.0, 3.0])
        s = jacobi_svd(x)
        assert np.max(np.abs(s.u.T @ s.u - np.eye(3))) <= 1e-10
        np.testing.assert_allclose(s.singular_values[1:], 0.0, atol=1e-12)

    def test_columns_of_equal_norm_rotate(self):
        x = np.array([[1.0, 0.6], [0.0, 0.8]])  # unit columns, not orthogonal
        s = jacobi_svd(x)
        np.testing.assert_allclose(s.singular_values, np.sqrt([1.6, 0.4]), rtol=1e-14)
        recon = (s.u * s.singular_values) @ s.v.T
        np.testing.assert_allclose(recon, x, atol=1e-14)

    def test_sweep_cap_raises_convergence_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConvergenceError, match="0 sweeps"):
            jacobi_svd(rng.standard_normal((8, 6)), max_sweeps=0)


class TestTruncate:
    def test_full_rank_is_identity_operation(self):
        x = np.diag([3.0, 2.0, 1.0])
        np.testing.assert_allclose(truncate(svd(x), 3), x, atol=1e-12)

    def test_rank_zero_is_zero_matrix(self):
        x = np.diag([3.0, 2.0, 1.0])
        np.testing.assert_allclose(truncate(svd(x), 0), np.zeros((3, 3)))

    def test_residual_matches_tail_energy(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        s = svd(x)
        resid = frobenius_sq(x - truncate(s, 2))
        assert resid == pytest.approx(tail_energy(s, 2), abs=1e-10)

    def test_rank_bound(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 5))
        s = svd(x)
        for k in range(6):
            sv_k = svd(truncate(s, k)).singular_values
            assert np.sum(sv_k > 1e-9 * s.singular_values[0]) <= k

    def test_out_of_range(self):
        s = svd(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(DomainError):
            truncate(s, -1)
        with pytest.raises(DomainError):
            truncate(s, 4)


class TestTailEnergy:
    def test_single_trailing_value(self):
        s = svd(np.diag([3.0, 2.0, 1.0]))
        assert tail_energy(s, 2) == pytest.approx(1.0, abs=1e-12)

    def test_total_energy(self):
        s = svd(np.diag([3.0, 2.0, 1.0]))
        assert tail_energy(s, 0) == pytest.approx(14.0, abs=1e-12)

    def test_matches_subtraction_oracle_every_k(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 4))
        s = svd(x)
        for k in range(5):
            resid = frobenius_sq(x - truncate(s, k))
            expected = tail_energy(s, k)
            assert abs(resid - expected) <= 1e-8 * max(1.0, expected)

    def test_monotone_and_zero_at_full_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((9, 4))
            s = svd(x)
            tails = [tail_energy(s, k) for k in range(5)]
            assert all(a >= b - 1e-10 for a, b in zip(tails, tails[1:]))
            assert abs(tails[-1]) <= 1e-10

    def test_out_of_range(self):
        s = svd(np.eye(3))
        with pytest.raises(DomainError):
            tail_energy(s, 4)


class TestFrobeniusSq:
    def test_zero_matrix(self):
        assert frobenius_sq(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert frobenius_sq(np.eye(3)) == 3.0

    def test_small_example(self):
        assert frobenius_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0


def test_eckart_young_identity_random_sweep():
    """Residual of every rank-k truncation equals the trailing energy."""
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(2, min(n, 12) + 1))
        x = rng.standard_normal((n, m)) * rng.uniform(0.1, 10)
        s = svd(x)
        fx = frobenius_sq(x)
        for k in range(m + 1):
            resid = frobenius_sq(x - truncate(s, k))
            assert abs(resid - tail_energy(s, k)) <= 1e-8 * max(1.0, fx)
