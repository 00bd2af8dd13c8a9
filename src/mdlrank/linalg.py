"""Dense-matrix primitives: the singular spectrum, the full SVD with
truncated reconstruction, residual energy, and exact power-of-two scaling.

Everything here is a pure function of immutable inputs; returned arrays are
freshly allocated and safe to share across threads.
"""

import numpy as np
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

JACOBI_MAX_SWEEPS = 100


def as_matrix(x) -> np.ndarray:
    """Validate and return *x* as a 2-D float64 array with finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DomainError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite (NaN/Inf rejected)")
    return a


class SvdResult(NamedTuple):
    """Thin SVD of an n x m matrix with n >= m.

    ``u`` is n x m with orthonormal columns, ``singular_values`` holds the m
    values in nonincreasing order, ``v`` is m x m orthogonal.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


class Spectrum(NamedTuple):
    """Singular values of an n x m matrix with n >= m.

    ``n`` is the row count of the decomposed matrix and ``singular_values``
    holds its m singular values in nonincreasing order.
    """

    n: int
    singular_values: np.ndarray


def _require_tall(a, what):
    n, m = a.shape
    if n < m:
        raise DomainError(
            f"{what} expects rows >= cols, got {n} x {m}; pass the transpose "
            "(its singular values are identical)"
        )


def singular_spectrum(x) -> Spectrum:
    """Singular values of a taller-than-wide matrix, without U or V.

    Everything the rank selection and the scree need is a function of these
    values, so this is the one decomposition a selection runs. Requires
    n >= m, and falls back to one-sided Jacobi rotations if the LAPACK
    driver fails to converge, as :func:`svd` does.
    """
    a = as_matrix(x)
    _require_tall(a, "singular_spectrum")
    try:
        values = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        values = jacobi_svd(a).singular_values
    return Spectrum(n=a.shape[0], singular_values=values)


def svd(x) -> SvdResult:
    """Thin SVD of a taller-than-wide matrix.

    Requires n >= m (transpose externally otherwise; the singular values of
    the transpose are identical). Falls back to one-sided Jacobi rotations
    if the LAPACK driver fails to converge. Only the reconstruction
    (:func:`truncate`) needs U and V; scoring uses :func:`singular_spectrum`.
    """
    a = as_matrix(x)
    _require_tall(a, "svd")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        return jacobi_svd(a)
    return SvdResult(u=u, singular_values=s, v=vt.T)


def jacobi_svd(x, max_sweeps: int = JACOBI_MAX_SWEEPS) -> SvdResult:
    """One-sided Jacobi SVD, a self-contained cross-check for :func:`svd`.

    Rotates column pairs until all are mutually orthogonal. Raises
    :class:`ConvergenceError` if that takes more than *max_sweeps* sweeps.
    """
    a = as_matrix(x).copy()
    _require_tall(a, "jacobi_svd")
    n, m = a.shape
    v = np.eye(m)
    scale = np.linalg.norm(a)
    tol = 1e-15 * max(scale, 1.0) ** 2
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = a[:, p] @ a[:, p]
                aqq = a[:, q] @ a[:, q]
                apq = a[:, p] @ a[:, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
        if off <= tol:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps"
        )
    norms = np.linalg.norm(a, axis=0)
    order = np.argsort(-norms, kind="stable")
    sv = norms[order]
    u = np.empty_like(a)
    tiny = 1e-300
    for j, col in enumerate(order):
        if sv[j] > tiny:
            u[:, j] = a[:, col] / sv[j]
        else:
            # null direction: extend the computed columns orthonormally
            u[:, j] = _orthonormal_fill(u[:, :j], n)
    return SvdResult(u=u, singular_values=sv, v=v[:, order])


def _orthonormal_fill(basis, n):
    """A unit vector orthogonal to the columns of *basis* (n-dimensional)."""
    for i in range(n):
        cand = np.zeros(n)
        cand[i] = 1.0
        if basis.shape[1]:
            cand -= basis @ (basis.T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            return cand / norm
    raise ConvergenceError("could not extend orthonormal basis")


def truncate(s: SvdResult, k: int) -> np.ndarray:
    """Rank-k reconstruction U_k diag(s_1..s_k) V_k^T.

    k = 0 gives the zero matrix, k = m the full reconstruction. When the
    k-th and (k+1)-th singular values tie, the first k columns in the
    computed order are kept; the reconstruction is then non-unique but its
    residual energy is unique.
    """
    m = len(s.singular_values)
    if not 0 <= k <= m:
        raise DomainError(f"truncation rank k={k} outside [0, {m}]")
    return (s.u[:, :k] * s.singular_values[:k]) @ s.v[:, :k].T


def tail_energy(s: SvdResult, k: int) -> float:
    """Sum of squared singular values beyond the first k.

    Equals the squared Frobenius residual of the rank-k reconstruction;
    nonincreasing in k and exactly 0 at k = m.
    """
    m = len(s.singular_values)
    if not 0 <= k <= m:
        raise DomainError(f"k={k} outside [0, {m}]")
    tail = s.singular_values[k:]
    return float(tail @ tail)


def frobenius_sq(x) -> float:
    """Squared Frobenius norm: the sum of all squared entries."""
    a = as_matrix(x)
    return float(np.sum(a * a))


def binary_scaled(x, axis=None):
    """Split *x* as ``scaled * 2**exponent`` so that the largest magnitude
    in ``scaled`` (over *axis*, or over all of *x*) lies in [0.5, 1).

    Returns ``(scaled, exponent)``; ``exponent`` is an integer array with the
    reduced axis kept, so it broadcasts against *x*. Scaling by a power of
    two is exact, so sums of squares or fourth powers of ``scaled`` neither
    overflow nor lose the entries that carry them, at any data scale, and
    their logarithms follow as ``ln(sum) + p * exponent * ln 2``. An all-zero
    slice gets exponent 0 and stays zero.
    """
    a = np.asarray(x, dtype=np.float64)
    peak = np.maximum(a.max(axis=axis, keepdims=True), -a.min(axis=axis, keepdims=True))
    exponent = np.frexp(peak)[1]
    return np.ldexp(a, -exponent), exponent
