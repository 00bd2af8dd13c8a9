"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library code paths
they check: residuals by explicit subtraction, eigenvalues of the gram
matrix instead of the SVD, brute-force chord distances, and exact grid
enumeration.
"""

import math

import numpy as np

from mdlrank import DiscreteModel


def random_orthonormal(rng, m, k=None):
    """m x k matrix with orthonormal columns (QR of a Gaussian draw)."""
    if k is None:
        k = m
    q, r = np.linalg.qr(rng.standard_normal((m, k)))
    # fix signs so the draw is deterministic under QR conventions
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def singular_values_by_gram_eig(x):
    """Independent singular-value oracle: sqrt of eigenvalues of X^T X."""
    eig = np.linalg.eigvalsh(x.T @ x)
    return np.sqrt(np.maximum(np.sort(eig)[::-1], 0.0))


def full_gram_totals(y, epsilon, log2_scale=0):
    """Lower and upper full_gram totals over k = 1..m-1 of X = 2**log2_scale * y,
    and the summed magnitude of the four terms of each lower total.

    Independent of the library: the energies come from the eigenvalues of
    y^T y, and the power-of-two scale enters in log space, so X itself may
    lie far outside the range of its own Gram matrix.
    """
    n, m = y.shape
    lam = np.clip(np.linalg.eigvalsh(y.T @ y), 0.0, None)  # ascending
    tails = np.cumsum(lam)[::-1]  # tails[k]: the m - k smallest, sum of s_i^2 for i > k
    k = np.arange(1, m)
    shift = 2 * log2_scale * math.log(2.0)
    # README: a residual energy below n*m*(u*s1)^2 is scored at that floor
    floor = n * m * (np.finfo(np.float64).eps / 2) ** 2 * lam[-1]
    log_tail = np.log(np.maximum(tails[1:], floor)) + shift
    log_gram = math.log(float(np.sum(lam * lam))) + 2 * shift
    terms = (
        (n * m - n * k) * log_tail,
        n * k * log_gram,
        (m * n - n * k - 1) * np.log(m / (m - k)),
        -(n * k + 1) * np.log(n * k),
    )
    lower = sum(terms)
    upper = lower + m * k * math.log(2.0 / (m * epsilon))
    return lower, upper, sum(np.abs(t) for t in terms)


def kaiser_counts(y, atol=1e-9):
    """Acceptable Kaiser counts from the eigenvalues of np.corrcoef: either
    side is allowed for an eigenvalue within *atol* of the cut at one."""
    eig = np.linalg.eigvalsh(np.corrcoef(y, rowvar=False))
    return set(range(int(np.sum(eig >= 1.0 + atol)), int(np.sum(eig >= 1.0 - atol)) + 1))


def chord_knee_oracle(y):
    """Brute-force max point-to-chord distance; returns the 0-based index.

    The chord runs through the first and last points; distances are
    perpendicular. Ties go to the earliest index.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    x0, y0, x1, y1 = 0.0, y[0], float(n - 1), y[-1]
    den = math.hypot(y1 - y0, x1 - x0)
    best_idx, best = 0, -1.0
    for i in range(n):
        dist = abs((y1 - y0) * i - (x1 - x0) * y[i] + x1 * y0 - y1 * x0) / den
        if dist > best + 1e-15:
            best_idx, best = i, dist
    return best_idx


def gaussian_density(x, mean, sigma):
    return math.exp(-((x - mean) ** 2) / (2.0 * sigma**2)) / math.sqrt(
        2.0 * math.pi * sigma**2
    )


def gaussian_grid_model(n_points=201, lo=-5.0, hi=5.0, n_means=11, sigmas=(0.5, 1.0)):
    """Gaussian location family on a uniform grid; sigma is the eliminated
    parameter."""
    points = tuple(np.linspace(lo, hi, n_points))
    weights = tuple([(hi - lo) / n_points] * n_points)
    means = tuple(np.linspace(-2.0, 2.0, n_means))
    return DiscreteModel(
        x_points=points,
        weights=weights,
        a_family=means,
        b_family=tuple(sigmas),
        likelihood=gaussian_density,
    )


def random_discrete_model(seed):
    """Seeded Gaussian location-scale model with randomized grid/families."""
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(21, 61))
    lo, hi = -3.0, 3.0
    points = tuple(np.linspace(lo, hi, n_points))
    weights = tuple([(hi - lo) / n_points] * n_points)
    means = tuple(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6))))
    sigmas = tuple(rng.uniform(0.3, 2.0, size=int(rng.integers(2, 5))))
    return DiscreteModel(
        x_points=points,
        weights=weights,
        a_family=means,
        b_family=sigmas,
        likelihood=gaussian_density,
    )


def planted_rank_matrix(rng, n, m, r, spectrum=(1.0, 10.0)):
    """Exact rank-r matrix with singular values drawn in *spectrum*."""
    u = random_orthonormal(rng, n, r)
    v = random_orthonormal(rng, m, r)
    sv = np.sort(rng.uniform(*spectrum, r))[::-1]
    return (u * sv) @ v.T
