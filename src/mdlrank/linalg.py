"""Dense-matrix primitives: the streamed R factor of each analysed matrix
(the Cholesky factor of its blocked Gram behind a conditioning gate, else
Householder QR folds) and the singular and correlation spectra read from
it, the full SVD with truncated reconstruction, residual energy, and exact
power-of-two scaling.

Everything here is a pure function of immutable inputs; returned arrays are
freshly allocated and safe to share across threads.
"""

import numpy as np
from typing import NamedTuple

from .errors import ConvergenceError, DegenerateInputError, DomainError

JACOBI_MAX_SWEEPS = 100
# rows of one grid block of the streamed R factor, per column of [X | 1]
BLOCK_FACTOR = 4
# the Gram route's bound on m·u·κ(R_eq)², the relative error it may carry
# into a squared singular value (see _gram_factor)
GRAM_TAU = 1e-5
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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


class Factor(NamedTuple):
    """The R factor of ``[X | 1]`` over the first n rows of X: ``r`` is
    (m + 1) x (m + 1), its column j from X's column j scaled by
    ``2**-exponent[j]`` and its last from the ones; ``constant[j]`` says
    whether column j's n entries are all equal. The ones come last so that
    ``R[:m, :m]`` is the R factor of X alone, untouched by their rounding."""

    n: int
    r: np.ndarray
    exponent: np.ndarray
    constant: np.ndarray


def prefix_factors(a, lengths):
    """Yield the :class:`Factor` of the prefix of *a*, a checked matrix
    (:func:`as_matrix`), for each length of ``sorted(set(lengths))``; a
    length outside [m, n] is a :class:`DomainError`.

    Rows enter one block of ``BLOCK_FACTOR * (m + 1)`` rows at a time, on a
    grid counted from the first row, and a prefix adds its rows past its
    last whole block as one more block; each block's columns are scaled by
    the exact powers of two of :func:`binary_scaled` over the rows taken so
    far. The blocks are summed into the Gram of the scaled ``[X | 1]``,
    and a prefix's R is the Cholesky factor of its Gram when
    :func:`_gram_factor`'s conditioning gate holds. Otherwise it is folded
    from the same blocks by Householder QR, a stream advanced only for the
    prefixes that need it. Either way a prefix's R is a function of its own
    rows, and P prefixes of n rows cost O(n m^2 + P m^3): half the flops of
    the folds on the Gram route, which a well-conditioned input never
    leaves.
    """
    ends = sorted(set(lengths))
    n, m = a.shape
    for end in (ends[0], ends[-1]):
        if not 1 <= end <= n:
            raise DomainError(f"prefix length {end} is outside [1, {n}]")
    _require_tall(a[: ends[0]], "prefix_factors")
    step = BLOCK_FACTOR * (m + 1)
    blocks = [a[start : start + step] for start in range(0, ends[-1] - step + 1, step)]
    # per column, the least and the greatest entry up to each block's end
    lows = np.minimum.accumulate(np.reshape([b.min(axis=0) for b in blocks], (-1, m)))
    highs = np.maximum.accumulate(np.reshape([b.max(axis=0) for b in blocks], (-1, m)))
    peaks = np.maximum(highs, -lows)
    gram, exponent, summed = np.zeros((m + 1, m + 1)), np.zeros(m, dtype=int), 0
    fold, fold_exponent, folded = np.zeros((0, m + 1)), exponent, 0
    for end in ends:
        whole = end // step
        for b in range(summed, whole):
            gram, exponent = _gram(gram, exponent, blocks[b], peaks[b])
        summed = whole
        part = a[whole * step : end]
        low = np.vstack([lows[whole - 1 : whole], part]).min(axis=0)
        high = np.vstack([highs[whole - 1 : whole], part]).max(axis=0)
        peak = np.maximum(high, -low)
        own, own_exponent = _gram(gram, exponent, part, peak) if len(part) else (gram, exponent)
        r = _gram_factor(own)
        if r is None:
            for b in range(folded, whole):
                fold, fold_exponent = _fold(fold, fold_exponent, blocks[b], peaks[b])
            folded = whole
            r = _fold(fold, fold_exponent, part, peak)[0] if len(part) else fold
        yield Factor(end, r, own_exponent, low == high)


def _gram(g, exponent, rows, peak):
    """*g*, the Gram of the scaled ``[X | 1]`` of the rows so far, plus that
    of ``[rows | 1]``, and the column exponents, those of the magnitudes
    *peak*. *g* moves from *exponent* onto them first, by powers of two,
    which is exact unless an entry falls below 2**-1022."""
    new = np.frexp(peak)[1]
    shift = np.append(exponent - new, 0)
    if shift.any():
        g = np.ldexp(g, shift[:, None] + shift)
    stacked = np.empty((len(rows), len(new) + 1), order="F")
    np.ldexp(rows, -new, out=stacked[:, :-1])
    stacked[:, -1] = 1.0
    return g + np.dot(stacked.T, stacked), new


def _gram_factor(g):
    """The upper Cholesky factor R of the Gram *g* of the scaled ``[X | 1]``
    (m + 1 columns), or None unless the conditioning gate holds.

    The Cholesky factor carries a relative error of about ``m·u·κ(R_eq)²``
    into every squared singular value, u the unit roundoff and R_eq the R
    with unit columns (Demmel & Veselić, SIAM J. Matrix Anal. Appl. 13(4),
    1992), where Householder QR carries about ``m·u``. The gate holds when
    the Cholesky succeeds, R is finite and ``m·u·κ(R_eq)² <= GRAM_TAU``.
    The last is shown by a Cholesky of *g* with its diagonal scaled by
    ``1 - δ``, ``δ = (m + 1)·m·u / GRAM_TAU``. That matrix is ``D (H - δI)
    D``, with H the unit-diagonal ``R_eqᵀ R_eq`` and D the column norms,
    so its Cholesky succeeds only if H's least eigenvalue exceeds δ; and
    H's greatest is at most its trace, m + 1. ``GRAM_TAU = 1e-5`` admits
    the benchmark's inputs, on which ``(m + 1)·m·u / λ_min(H)`` reaches
    1.4e-7, with over 70 times headroom. Everything is read from *g*,
    never from the column exponents, so scaling a column by a power of two
    leaves the route and every bit of R as they are. A constant, all-zero
    or exactly collinear column, or a column near the span of the ones
    (whose centring for Kaiser cancels), fails the gate."""
    m = len(g) - 1
    shifted = g.copy()
    shifted[np.diag_indices(m + 1)] *= 1 - (m + 1) * m * UNIT_ROUNDOFF / GRAM_TAU
    try:
        np.linalg.cholesky(shifted)
        r = np.linalg.cholesky(g).T
    except np.linalg.LinAlgError:
        return None
    return r if np.isfinite(r).all() else None


def _fold(r, exponent, rows, peak):
    """The R factor of *r* stacked on ``[rows | 1]``, and its column
    exponents, those of the magnitudes *peak*. The columns of *r* move from
    *exponent* onto them first, which is exact, as Householder QR commutes
    with power-of-two column scaling. Zero rows pad the stack to m + 1.
    The stack is column-major, the layout LAPACK factors in place."""
    new = np.frexp(peak)[1]
    top, m = len(r), len(peak)
    stacked = np.zeros((max(top + len(rows), m + 1), m + 1), order="F")
    np.ldexp(r[:, :-1], exponent - new, out=stacked[:top, :-1])
    stacked[:top, -1] = r[:, -1]
    np.ldexp(rows, -new, out=stacked[top : top + len(rows), :-1])
    stacked[top : top + len(rows), -1] = 1.0
    return np.linalg.qr(stacked, mode="r"), new


def _singular_values(a):
    """Values-only SVD, falling back to one-sided Jacobi rotations if the
    LAPACK driver fails to converge."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return jacobi_svd(a).singular_values


def factor_spectrum(f: Factor) -> Spectrum:
    """Singular values of the factored rows of X, which are those of
    ``R[:m, :m]``. The column exponents are put back relative to the
    largest before the SVD and that one after it, so no entry overflows."""
    top = int(f.exponent.max())
    values = _singular_values(np.ldexp(f.r[:-1, :-1], f.exponent - top))
    return Spectrum(n=f.n, singular_values=np.ldexp(values, top))


def correlation_values(f: Factor) -> np.ndarray:
    """Eigenvalues, descending, of the column correlation matrix of the
    factored rows. With ``[X | 1] = Q R`` and u the last column of R over
    its norm, the centred columns are ``Q (I - u u^T) R[:, :m]``, so these
    are the squared singular values of ``(I - u u^T) R[:, :m]`` once its
    columns have unit norm. Raises DegenerateInputError naming the first
    constant column."""
    flat = np.flatnonzero(f.constant)
    if flat.size:
        raise DegenerateInputError(
            f"column {flat[0] + 1} is constant and cannot be standardized"
        )
    u = f.r[:, -1:] / np.linalg.norm(f.r[:, -1])
    centred = f.r[:, :-1] - u @ (u.T @ f.r[:, :-1])
    return _singular_values(centred / np.linalg.norm(centred, axis=0)) ** 2


def singular_spectrum(x) -> Spectrum:
    """Singular values of a taller-than-wide matrix, without U or V.

    Everything the rank selection and the scree need is a function of these
    values. This is the one-length case of :func:`prefix_factors`: requires
    n >= m, and the small SVD of R falls back to one-sided Jacobi rotations
    if the LAPACK driver fails to converge, as :func:`svd` does.
    """
    a = as_matrix(x)
    (factor,) = prefix_factors(a, [a.shape[0]])
    return factor_spectrum(factor)


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
                # sign +1 at zeta = 0: columns of equal norm still rotate
                t = (1.0 if zeta >= 0 else -1.0) / (abs(zeta) + np.hypot(1.0, zeta))
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
