import numpy as np
import pytest

from mdlrank import (
    ConvergenceError,
    DomainError,
    frobenius_sq,
    singular_spectrum,
    svd,
    tail_energy,
    truncate,
)
from mdlrank.linalg import jacobi_svd
from helpers import singular_values_by_gram_eig


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
        with pytest.raises(DomainError, match="transpose"):
            singular_spectrum(np.ones((2, 5)))

    def test_falls_back_to_jacobi_when_lapack_fails(self, monkeypatch):
        x = np.random.default_rng(13).standard_normal((8, 3))

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        expected = jacobi_svd(x).singular_values
        monkeypatch.setattr(np.linalg, "svd", failing)
        np.testing.assert_array_equal(singular_spectrum(x).singular_values, expected)


class TestJacobiSvd:
    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, min(n, 10) + 1))
            x = rng.standard_normal((n, m))
            a, b = svd(x), jacobi_svd(x)
            np.testing.assert_allclose(
                a.singular_values, b.singular_values, rtol=1e-10, atol=1e-10
            )
            recon = (b.u * b.singular_values) @ b.v.T
            assert np.linalg.norm(recon - x) <= 1e-8 * max(1.0, np.linalg.norm(x))

    def test_rank_deficient_input_keeps_orthonormal_u(self):
        x = np.outer(np.ones(5), [1.0, 2.0, 3.0])
        s = jacobi_svd(x)
        assert np.max(np.abs(s.u.T @ s.u - np.eye(3))) <= 1e-10
        np.testing.assert_allclose(s.singular_values[1:], 0.0, atol=1e-12)

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
