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
from mdlrank.baselines import kaiser
from mdlrank.complexity import analyse, default_epsilon
from mdlrank.linalg import (
    BLOCK_FACTOR,
    GRADED_SPREAD,
    GRAM_TAU,
    UNIT_ROUNDOFF,
    correlation_values,
    factor_spectrum,
    jacobi_svd,
    prefix_factors,
)
from helpers import kaiser_counts, random_orthonormal, singular_values_by_gram_eig

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
        """When the SVD and the eigensolve both fail, the singular spectrum
        is one-sided Jacobi's of the C-ordered sorted R, and the correlation
        eigenvalues are the singular values Jacobi finds of the positive
        semidefinite B^T B. At 20 x 5 Jacobi's bits differ between the C-
        and F-ordered copies of the sorted R, so the layout is pinned. The
        column norms spread by less than GRADED_SPREAD, so only the failure
        sends the spectrum to Jacobi."""
        x = np.random.default_rng(13).standard_normal((20, 5))
        x[:, 1] *= 2.0**5
        (chunk,) = prefix_factors(x, [20])
        r, exponent = chunk.lower[0].T, chunk.exponents[0]
        top = exponent.max()
        scaled = np.ldexp(r[:-1, :-1], exponent - top)
        # factor_spectrum sorts R's columns by decreasing norm before the SVD
        order = np.argsort(-np.linalg.norm(scaled, axis=0), kind="stable")
        assert order.tolist() != sorted(order.tolist())
        spectrum = jacobi_svd(np.ascontiguousarray(scaled[:, order])).singular_values
        assert jacobi_svd(np.asfortranarray(scaled[:, order])).singular_values.tobytes() != spectrum.tobytes()
        u = r[:, -1:] / np.linalg.norm(r[:, -1])
        centred = r[:, :-1] - u @ (u.T @ r[:, :-1])
        b = centred / np.linalg.norm(centred, axis=0)
        correlation = jacobi_svd(b.T @ b).singular_values

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        np.testing.assert_array_equal(singular_spectrum(x).singular_values, np.ldexp(spectrum, top))
        values, reasons = correlation_values(chunk)
        assert reasons == [None]
        np.testing.assert_array_equal(values, [correlation])

    def test_a_graded_prefix_takes_jacobi(self, monkeypatch):
        """In one chunk, the prefix whose R column norms spread beyond
        GRADED_SPREAD takes Jacobi's values of its C-ordered sorted R, and
        the one within it LAPACK's, each bit for bit; the LAPACK call is
        given the other prefix alone."""
        x = np.random.default_rng(23).standard_normal((40, 4))
        x[20:, 2] *= 2.0**30
        (chunk,) = prefix_factors(x, [20, 40])
        stacks, real = [], np.linalg.svd

        def recording(a, **kwargs):
            stacks.append(a.shape)
            return real(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        got = factor_spectrum(chunk).singular_values
        monkeypatch.undo()
        assert stacks == [(1, 4, 4)]
        for p, graded in enumerate([False, True]):
            exponent = chunk.exponents[p]
            scaled = np.ldexp(chunk.lower[p].T[:-1, :-1], exponent - exponent.max())
            norms = np.linalg.norm(scaled, axis=0)
            assert (norms.max() > GRADED_SPREAD * norms.min()) == graded
            ordered = np.ascontiguousarray(scaled[:, np.argsort(-norms, kind="stable")])
            want = jacobi_svd(ordered).singular_values if graded else np.linalg.svd(ordered, compute_uv=False)
            assert got[p].tobytes() == np.ldexp(want, exponent.max()).tobytes()


class TestPrefixFactors:
    M = 5
    STEP = BLOCK_FACTOR * (M + 1)

    def test_is_the_r_factor_of_the_scaled_rows(self):
        x = np.random.default_rng(14).standard_normal((70, self.M)) * [1.0, 1e-9, 1e9, 3.0, 0.5]
        (chunk,) = prefix_factors(x, [70, 5, 24, 25, 6])
        assert chunk.lower.shape == (5, self.M + 1, self.M + 1) and chunk.lower.flags.c_contiguous
        assert chunk.exponents.shape == chunk.constants.shape == (5, self.M)
        for n, lower, exponent in zip(chunk.n, chunk.lower, chunk.exponents, strict=True):
            r = lower.T
            assert np.array_equal(r, np.triu(r))
            ones = np.column_stack([np.ldexp(x[:n], -exponent), np.ones(n)])
            np.testing.assert_allclose(r.T @ r, ones.T @ ones, rtol=0, atol=1e-12 * n)

    def test_yields_sorted_distinct_lengths(self):
        x = np.random.default_rng(15).standard_normal((60, self.M))
        (chunk,) = prefix_factors(x, [60, 7, 24, 7, 5])
        assert chunk.n == [5, 7, 24, 60]

    def test_each_prefix_equals_its_own_pass(self):
        """A prefix's spectra come out bit for bit as when its rows are
        the whole input, since the grid is counted from the first row."""
        x = np.random.default_rng(16).standard_normal((100, self.M))
        # later rows move every column's exponent by 2^2000: scaled by the
        # exponents of all rows, the earlier ones would underflow to zero
        x[:60] *= 2.0**-1000
        x[60:] *= 2.0**1000
        lengths = [5, 6, self.STEP - 1, self.STEP, self.STEP + 1, 2 * self.STEP + 1, 59, 100]
        (chunk,) = prefix_factors(x, lengths)
        spectra, (values, reasons) = factor_spectrum(chunk), correlation_values(chunk)
        assert reasons == [None] * len(lengths)
        for p, n in enumerate(chunk.n):
            (own,) = prefix_factors(x[:n], [n])
            own_spectrum = factor_spectrum(own)
            assert spectra.n[p] == own_spectrum.n[0] == n
            assert np.array_equal(spectra.singular_values[p], own_spectrum.singular_values[0])
            assert np.array_equal(values[p], correlation_values(own)[0][0])
            assert np.array_equal(chunk.constants[p], own.constants[0])

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 5),
        per_chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_each_prefix_of_many_chunks_equals_its_own_pass(self, seed, m, per_chunk, data):
        """With STACK_BYTES holding one to three factors, so that the drawn
        lengths span several chunks: several ends in one block, ends on the
        block grid, a length of m, and rows past a prefix's last whole block
        that raise a column's binary exponent, the row at an end or the one
        after it. Column 0 may be constant over a head, so that chunks mix
        both routes. Every stacked field, spectrum and correlation result is
        bit for bit that of the prefix's own single-length pass; a chunk
        none of whose prefixes is usable has a 0 x m stack of values."""
        step = BLOCK_FACTOR * (m + 1)
        blocks = data.draw(st.integers(1, 4), label="blocks")
        n = blocks * step + data.draw(st.integers(0, step - 1), label="extra rows")
        block = data.draw(st.integers(0, blocks), label="shared block")
        shared = [e for e in data.draw(st.lists(st.integers(1, step - 1), min_size=2, max_size=5))
                  if m <= block * step + e <= n]
        lengths = sorted({m, *(block * step + e for e in shared),
                          *(g * step for g in data.draw(st.lists(st.integers(1, blocks), min_size=1))),
                          *data.draw(st.lists(st.integers(m, n), max_size=6), label="more")})
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, m))
        for end in data.draw(st.lists(st.sampled_from(lengths), max_size=4), label="raised ends"):
            row = min(end - 1 + data.draw(st.integers(0, 1), label="past the end"), n - 1)
            x[row, data.draw(st.integers(0, m - 1), label="column")] *= 2.0 ** data.draw(st.integers(1, 60))
        x[: data.draw(st.integers(0, n), label="constant head"), 0] = 0.375
        chunk_bytes = per_chunk * 8 * (m + 1) ** 2
        with mock.patch.object(linalg, "STACK_BYTES", chunk_bytes):
            chunks = list(prefix_factors(x, lengths))
        assert [c.n for c in chunks] == [lengths[i : i + per_chunk] for i in range(0, len(lengths), per_chunk)]

        def bits(a):
            return a.dtype, a.shape, a.tobytes()

        for chunk in chunks:
            spectra, (values, reasons) = factor_spectrum(chunk), correlation_values(chunk)
            assert type(values) is np.ndarray and type(reasons) is list
            assert values.shape == (reasons.count(None), m) and len(reasons) == len(chunk.n)
            assert len(kaiser(values)) == len(values)
            usable = iter(values)
            for p, n in enumerate(chunk.n):
                (own,) = prefix_factors(x[:n], [n])
                assert own.n == [n]
                for field in ("lower", "exponents", "constants"):
                    assert bits(getattr(chunk, field)[p]) == bits(getattr(own, field)[0]), (n, field)
                assert spectra.n[p] == n
                assert bits(spectra.singular_values[p]) == bits(factor_spectrum(own).singular_values[0])
                alone, (why,) = correlation_values(own)
                assert type(alone) is type(values) and reasons[p] == why
                assert bits(values[:0] if why else next(usable)[None]) == bits(alone)

    def test_constant_columns_per_prefix(self):
        x = np.random.default_rng(17).standard_normal((60, self.M))
        x[:30, 2] = 0.7  # constant over the first 30 rows only
        (chunk,) = prefix_factors(x, [10, 30, 31, 60])
        flags = dict(zip(chunk.n, chunk.constants.tolist()))
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


def _correlation_near_one(rng, n, m, gap):
    """n x m data whose sample correlation matrix has the eigenvalues
    1 - gap and 1 + gap: its first two columns have correlation gap, and
    the centred columns of the two are orthogonal to those of the rest.
    Every column is then scaled and shifted."""
    # orthonormal columns orthogonal to the ones: centred and uncorrelated
    q = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, m))]))[0][:, 1:]
    x = np.empty((n, m))
    x[:, 0] = q[:, 0]
    x[:, 1] = gap * q[:, 0] + np.sqrt(1.0 - gap * gap) * q[:, 1]
    x[:, 2:] = q[:, 2:] @ rng.standard_normal((m - 2, m - 2))
    return x * rng.uniform(0.1, 10.0, m) + rng.uniform(-5.0, 5.0, m)


class TestCorrelationValues:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 10),
        planted_rows=st.integers(0, 60),
        extra_rows=st.integers(0, 200),
        gap=st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13]),
        data=st.data(),
    )
    def test_kaiser_counts_match_the_corrcoef_oracle(
        self, seed, m, planted_rows, extra_rows, gap, data
    ):
        """The Kaiser count of each drawn prefix is one np.corrcoef's
        eigenvalues allow. The first m + 1 + planted_rows rows have two
        correlation eigenvalues within 1e-12 of the cut at one, where the
        oracle allows either side."""
        rng = np.random.default_rng(seed)
        head = m + 1 + planted_rows
        x = np.vstack([_correlation_near_one(rng, head, m, gap),
                       rng.standard_normal((extra_rows, m)) * 3.0])
        lengths = data.draw(st.lists(st.integers(m + 1, len(x)), min_size=1, max_size=6)) + [head]
        for chunk in prefix_factors(x, lengths):
            values, reasons = correlation_values(chunk)
            assert reasons == [None] * len(chunk.n)
            for n, count in zip(chunk.n, kaiser(values), strict=True):
                assert count in kaiser_counts(x[:n]), n
        planted = np.linalg.eigvalsh(np.corrcoef(x[:head], rowvar=False))
        assert np.count_nonzero(np.abs(planted - 1.0) <= 1e-12) >= 2


class TestGramRoute:
    """A prefix's R is the Cholesky factor of its Gram when the gate holds,
    and the Householder folds' R otherwise; either way the selection and
    the baselines are those of the fold route."""

    @staticmethod
    def _gated(x, lengths=None):
        """The chunk of the prefixes of *x* whose lengths are in *lengths*
        (all of *x* by default), which must make one chunk, and whether the
        Gram route made each."""
        ran, real = [], linalg._gram_factor

        def recording(grams):
            factors = real(grams)
            assert len(factors) == len(grams)
            ran.extend(r is not None for r in factors)
            return factors

        with mock.patch.object(linalg, "_gram_factor", recording):
            (chunk,) = prefix_factors(x, lengths or [len(x)])
        assert len(ran) == len(chunk.n)
        return chunk, ran

    @staticmethod
    def _refused(grams):
        """A gate that refuses every Gram, so that every R is folded."""
        return [None] * len(grams)

    def _folded(self, x):
        """The fold route's one-prefix chunk of all of *x*."""
        with mock.patch.object(linalg, "_gram_factor", self._refused):
            (chunk,) = prefix_factors(x, [len(x)])
        return chunk

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
        exponents=st.lists(st.integers(-200, 200), min_size=8, max_size=8),
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
        m u κ(R_eq)^2 <= GRAM_TAU. The column scalings span up to 2**400:
        factor_spectrum sorts R's columns by norm, so its small singular
        values keep relative accuracy on either route however graded R is."""
        rng = np.random.default_rng(seed)
        n = m + extra_rows
        s = np.logspace(0.0, -log_condition, m)
        x = (random_orthonormal(rng, n, m) * s) @ random_orthonormal(rng, m).T
        x = np.ldexp(x * rng.uniform(0.1, 10.0, m), exponents[:m])
        x[:, mean_column] += mean * np.abs(x[:, mean_column]).max()
        (_, (gram,)), fold = self._gated(x), self._folded(x)
        assert self._selection(x, linalg._gram_factor) == self._selection(x, self._refused)
        r = fold.lower[0].T
        r_eq = r / np.linalg.norm(r, axis=0)
        least = np.linalg.eigvalsh(r_eq.T @ r_eq)[0]
        delta = (m + 1) * m * UNIT_ROUNDOFF / GRAM_TAU
        if abs(least - delta) > 1e-3 * delta:
            assert gram == (least > delta)
        if gram:
            values = np.linalg.svd(r_eq, compute_uv=False)
            assert m * UNIT_ROUNDOFF * (values[0] / values[-1]) ** 2 <= GRAM_TAU

    def test_graded_columns_to_relative_accuracy(self):
        """A 7 x 5 matrix with a log-spaced spectrum from 1 to 10**-1.375
        and one column scaled by 2**54, which the gate admits: with R's
        columns sorted by norm, every singular value from either route's R
        is within 1e-13 relative of a 60-digit SVD's (LAPACK's SVD of the
        unsorted R was off by up to 1.5), and both select k = 1."""
        from mpmath import mp, matrix, svd_r

        rng = np.random.default_rng(0)
        x = (random_orthonormal(rng, 7, 5) * np.logspace(0.0, -1.375, 5)) @ random_orthonormal(rng, 5).T
        x = np.ldexp(x * rng.uniform(0.1, 10.0, 5), [0, 0, 0, 54, 0])
        with mp.workdps(60):
            exact = sorted((float(v) for v in svd_r(matrix(x.tolist()), compute_uv=False)), reverse=True)
        gram, routes = self._gated(x)
        assert routes == [True]
        for chunk in (gram, self._folded(x)):
            values = factor_spectrum(chunk).singular_values[0]
            np.testing.assert_allclose(values, exact, rtol=1e-13, atol=0)
        assert self._selection(x, linalg._gram_factor)[:2] == self._selection(x, self._refused)[:2] == (1, 1)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 6),
        extra_rows=st.integers(0, 20),
        log_condition=st.floats(0.0, 4.0),
        exponents=st.lists(st.integers(-150, 150), min_size=6, max_size=6),
    )
    def test_graded_spectra_to_relative_accuracy(self, seed, m, extra_rows, log_condition, exponents):
        """Log-spaced spectra of condition number 1 to 1e4 with columns
        scaled by up to 2**±150, so that the column norms alone span far
        more than 1/u: every singular value factor_spectrum takes of the
        folds' R is within 64·m·u·κ(R_eq) relative of a 200-digit SVD's,
        and of the Gram route's R within 64·m·u·κ(R_eq)², the error the
        gate bounds (κ(R_eq) that of X with unit columns)."""
        from mpmath import mp, matrix, svd_r

        rng = np.random.default_rng(seed)
        n = m + extra_rows
        s = np.logspace(0.0, -log_condition, m)
        x = (random_orthonormal(rng, n, m) * s) @ random_orthonormal(rng, m).T
        x = np.ldexp(x * rng.uniform(0.1, 10.0, m), exponents[:m])
        with mp.workdps(200):
            exact = sorted((float(v) for v in svd_r(matrix(x.tolist()), compute_uv=False)), reverse=True)
        kappa = np.linalg.cond(x / np.linalg.norm(x, axis=0))
        gram, _ = self._gated(x)
        for chunk, power in ((gram, 2), (self._folded(x), 1)):
            values = factor_spectrum(chunk).singular_values[0]
            rtol = 64 * m * UNIT_ROUNDOFF * kappa**power
            np.testing.assert_allclose(values, exact, rtol=rtol, atol=0)

    @pytest.mark.parametrize("column", ["constant", "zero", "collinear", "near-ones"])
    def test_degenerate_columns_take_the_folds(self, column):
        x = np.random.default_rng(19).standard_normal((50, 4))
        x[:, 2] = {"constant": 0.1, "zero": 0.0, "collinear": 3.0 * x[:, 0],
                   "near-ones": 1e9 + x[:, 1]}[column]
        chunk, routes = self._gated(x)
        assert routes == [False]
        assert np.array_equal(chunk.lower, self._folded(x).lower)

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
        chunk, routes = self._gated(x, lengths)
        assert routes == [False] * 4 + [True] * 4
        epsilon = default_epsilon(6)
        analyses = analyse(x, lengths, epsilon)
        for p, (n, route, got) in enumerate(zip(chunk.n, routes, analyses, strict=True)):
            own, own_routes = self._gated(x[:n].copy())
            assert own.n == [n] and own_routes == [route]
            for field in ("lower", "exponents", "constants"):
                assert np.array_equal(getattr(chunk, field)[p], getattr(own, field)[0])
            (want,) = analyse(x[:n].copy(), [n], epsilon)
            assert got.spectrum.n == want.spectrum.n == n
            assert np.array_equal(got.spectrum.singular_values, want.spectrum.singular_values)
            assert got.baselines == want.baselines
            assert ("skipped" in got.baselines) == (n <= 50)
            (mine,), (theirs,) = got.reports, want.reports
            assert mine.k_lower_opt == theirs.k_lower_opt and mine.k_upper_opt == theirs.k_upper_opt
            for column, other in zip(mine.per_k, theirs.per_k):
                assert np.array_equal(column, other)

    @pytest.mark.parametrize("route", ["gram", "fold"])
    def test_exponents_stay_int32(self, route):
        """Every exponent that reaches np.ldexp, and every chunk's, is
        frexp's int32 on either route, at ends on the block grid and past
        it: numpy's int64 ldexp loop is several times slower."""
        m = 5
        step = BLOCK_FACTOR * (m + 1)
        x = np.random.default_rng(22).standard_normal((4 * step, m)) * [1e-9, 1.0, 3.0, 1e9, 0.5]
        lengths = [step - 1, step, step + 1, 2 * step, 3 * step + 7, 4 * step]
        gate = linalg._gram_factor if route == "gram" else self._refused
        real, dtypes = np.ldexp, set()

        def recording(x1, x2, *args, **kwargs):
            dtypes.add(np.asarray(x2).dtype)
            return real(x1, x2, *args, **kwargs)

        with mock.patch.object(linalg, "_gram_factor", gate), mock.patch.object(np, "ldexp", recording):
            (chunk,) = prefix_factors(x, lengths)
        assert chunk.n == lengths
        assert {chunk.exponents.dtype} == dtypes == {np.dtype(np.intc)}
        assert self._gated(x, lengths)[1] == [True] * len(lengths)  # the gate admits x

    @pytest.mark.parametrize("seed", range(4))
    def test_gram_rescale_is_the_int64_ldexp(self, seed):
        """_gram moves the running Gram onto the new exponents exactly as
        an int64 ldexp would, bit for bit, also where the shift takes an
        entry below 2**-1022."""
        rng = np.random.default_rng(seed)
        m = 7
        g = rng.standard_normal((m + 1, m + 1))
        exponent = rng.integers(-400, 400, m).astype(np.intc)
        new = exponent - rng.integers(-3, 4, m).astype(np.intc)
        # two columns shifted by 2**-540 and 2**-520: their product entries
        # land among the subnormals, where ldexp rounds
        new[[seed % m, (seed + 1) % m]] = exponent[[seed % m, (seed + 1) % m]] + [540, 520]
        got, got_exponent = linalg._gram(g, exponent, np.empty((0, m)), np.ldexp(0.75, new))
        shift = np.append(exponent - new, 0).astype(np.int64)
        want = np.ldexp(g, shift[:, None] + shift) + 0.0  # the empty rows' Gram adds +0
        assert np.any((want != 0) & (np.abs(want) < 2.0**-1022))
        assert got.tobytes() == want.tobytes()
        assert got_exponent.dtype == np.intc and np.array_equal(got_exponent, new)


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
