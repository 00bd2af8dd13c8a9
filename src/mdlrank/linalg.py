"""Dense-matrix primitives: the streamed R factor of each analysed matrix
(the Cholesky factor of its blocked Gram behind a conditioning gate, else
Householder QR folds) and the singular and correlation spectra read from
it, the full SVD with truncated reconstruction, residual energy, and exact
power-of-two scaling.

Every function here is pure but :func:`prefix_factors`, a generator whose
every factor depends on its own rows alone; returned arrays are freshly
allocated and safe to share across threads.
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
# bytes of the (m + 1) x (m + 1) float64 Grams and R factors taken into one
# stacked LAPACK call: 38 prefixes at m = 40, one at m = 300. Twice as many
# saved 1% of the time of a 300-prefix compare and added 1.1 MB, 3%, to its
# peak resident memory
STACK_BYTES = 2**19


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
    holds its m singular values in nonincreasing order. A stack of P
    spectra of one width, as the scoring kernel takes, holds the P row
    counts in ``n`` and one spectrum per row of a P x m ``singular_values``.
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
    (:func:`as_matrix`), for each length of ``sorted(set(lengths))``, in
    lists of at most ``STACK_BYTES`` of R factors; no length, or one outside
    [1, n], is a :class:`DomainError`, and so is a shortest prefix with
    fewer rows than columns.

    Rows enter one block of ``BLOCK_FACTOR * (m + 1)`` rows at a time, on a
    grid counted from the first row, and a prefix adds its rows past its
    last whole block as one more block; each block's columns are scaled by
    the exact powers of two of :func:`binary_scaled` over the rows taken so
    far. The blocks are summed into the Gram of the scaled ``[X | 1]``,
    and a prefix's R is the Cholesky factor of its Gram when
    :func:`_gram_factor`'s conditioning gate holds, taken for the Grams of
    a whole list at once. Otherwise it is folded from the same blocks by
    Householder QR, a stream advanced only for the prefixes that need it.
    Either way a prefix's R is a function of its own rows, and P prefixes
    of n rows cost O(n m^2 + P m^3): half the flops of the folds on the
    Gram route, which a well-conditioned input never leaves. Every column
    exponent stays in the int32 (``np.intc``) that ``np.frexp`` gives, on
    both routes: numpy's ``ldexp`` loop for int64 exponents is several
    times slower, and it would rescale every running Gram.
    """
    ends = sorted(set(lengths))
    n, m = a.shape
    if not ends:
        raise DomainError("no prefix length given")
    for end in (ends[0], ends[-1]):
        if not 1 <= end <= n:
            raise DomainError(f"prefix length {end} is outside [1, {n}]")
    if ends[0] < m:
        raise DomainError(f"need at least as many rows as columns, got {ends[0]} x {m}")
    step = BLOCK_FACTOR * (m + 1)
    blocks = [a[start : start + step] for start in range(0, ends[-1] - step + 1, step)]
    # per column, the least and the greatest entry up to each block's end,
    # after a first row for no block at all
    lows = np.minimum.accumulate([np.full(m, np.inf)] + [b.min(axis=0) for b in blocks])
    highs = np.maximum.accumulate([np.full(m, -np.inf)] + [b.max(axis=0) for b in blocks])
    peaks = np.maximum(highs, -lows)
    gram, exponent, summed = np.zeros((m + 1, m + 1)), np.zeros(m, dtype=np.intc), 0
    fold, fold_exponent, folded = np.zeros((0, m + 1)), exponent, 0
    size = max(1, STACK_BYTES // (8 * (m + 1) ** 2))
    for first in range(0, len(ends), size):
        chunk = ends[first : first + size]
        grams, prefixes = np.empty((len(chunk), m + 1, m + 1)), []
        for i, end in enumerate(chunk):
            whole = end // step
            for b in range(summed, whole):
                gram, exponent = _gram(gram, exponent, blocks[b], peaks[b + 1])
            summed = whole
            part = a[whole * step : end]
            low = np.minimum(lows[whole], part.min(axis=0, initial=np.inf))
            high = np.maximum(highs[whole], part.max(axis=0, initial=-np.inf))
            peak = np.maximum(high, -low)
            own, own_exponent = _gram(gram, exponent, part, peak) if len(part) else (gram, exponent)
            grams[i] = own
            prefixes.append((end, whole, part, peak, own_exponent, low == high))
        gated = _gram_factor(grams)
        del grams  # not held while the chunk is taken up
        factors = []
        for (end, whole, part, peak, own_exponent, constant), r in zip(prefixes, gated):
            if r is None:
                for b in range(folded, whole):
                    fold, fold_exponent = _fold(fold, fold_exponent, blocks[b], peaks[b + 1])
                folded = whole
                r = _fold(fold, fold_exponent, part, peak)[0] if len(part) else fold
            factors.append(Factor(end, r, own_exponent, constant))
        yield factors


def _gram(g, exponent, rows, peak):
    """*g*, the Gram of the scaled ``[X | 1]`` of the rows so far, plus that
    of ``[rows | 1]``, and the column exponents, those of the magnitudes
    *peak*. *g* moves from *exponent* onto them first, by powers of two,
    which is exact unless an entry falls below 2**-1022. The shift stays in
    frexp's int32, since numpy's int64 ``ldexp`` loop is several times
    slower."""
    new = np.frexp(peak)[1]
    shift = np.append(exponent - new, np.intc(0))
    if shift.any():
        g = np.ldexp(g, shift[:, None] + shift)
    stacked = np.empty((len(rows), len(new) + 1), order="F")
    np.ldexp(rows, -new, out=stacked[:, :-1])
    stacked[:, -1] = 1.0
    return g + np.dot(stacked.T, stacked), new


def _gram_factor(grams):
    """The upper Cholesky factor R of each Gram of the stack *grams*, those
    of the scaled ``[X | 1]`` (m + 1 columns), or None for one that fails
    the conditioning gate.

    The Cholesky factor carries a relative error of about ``m·u·κ(R_eq)²``
    into every squared singular value, u the unit roundoff and R_eq the R
    with unit columns (Demmel & Veselić, SIAM J. Matrix Anal. Appl. 13(4),
    1992), where Householder QR carries about ``m·u``. The gate holds when
    the Cholesky succeeds, R is finite and ``m·u·κ(R_eq)² <= GRAM_TAU``.
    The last is shown by a Cholesky of the Gram with its diagonal scaled by
    ``1 - δ``, ``δ = (m + 1)·m·u / GRAM_TAU``. That matrix is ``D (H - δI)
    D``, with H the unit-diagonal ``R_eqᵀ R_eq`` and D the column norms,
    so its Cholesky succeeds only if H's least eigenvalue exceeds δ; and
    H's greatest is at most its trace, m + 1. ``GRAM_TAU = 1e-5`` admits
    the benchmark's inputs, on which ``(m + 1)·m·u / λ_min(H)`` reaches
    1.4e-7, with over 70 times headroom. Everything is read from the Gram,
    never from the column exponents, so scaling a column by a power of two
    leaves the route and every bit of R as they are. A constant, all-zero
    or exactly collinear column, or a column near the span of the ones
    (whose centring for Kaiser cancels), fails the gate.

    Both Choleskys take the whole stack in one LAPACK call each, which
    factors every Gram as a call of its own would. If either fails on
    some Gram, each Gram is gated again alone."""
    m = grams.shape[-1] - 1
    shifted = grams.copy()
    shifted[:, range(m + 1), range(m + 1)] *= 1 - (m + 1) * m * UNIT_ROUNDOFF / GRAM_TAU

    def gate(part):
        # each R of the Grams grams[part], or None where it is not finite;
        # None if either Cholesky fails on any of them
        try:
            np.linalg.cholesky(shifted[part])
            lower = np.linalg.cholesky(grams[part])
        except np.linalg.LinAlgError:
            return None
        return [tri.T if np.isfinite(tri).all() else None for tri in lower]

    factors = gate(slice(None))
    if factors is None:  # some Gram fails: gate each alone
        factors = []
        for p in range(len(grams)):
            factors += gate(slice(p, p + 1)) or [None]
    return factors


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


def _stacked_values(stack):
    """Values-only SVD of a matrix, or of each matrix of a stack, in one
    LAPACK call. If it fails to converge, a stack is taken matrix by matrix
    and a matrix by one-sided Jacobi rotations."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        if stack.ndim == 2:
            return jacobi_svd(stack).singular_values
        return np.array([_stacked_values(a) for a in stack])


def factor_spectrum(factors) -> Spectrum:
    """Singular values of the factored rows of X of each :class:`Factor` of
    *factors*, all of one width m: a stack, whose ``n`` lists their row
    counts and whose P x m ``singular_values`` are those of each
    ``R[:m, :m]``, taken in one stacked SVD. Each R's column exponents are
    put back relative to its largest before the SVD and that one after it,
    so no entry overflows. Finite entries can still have a largest singular
    value beyond the float64 range (about 1.8e308); that is a DomainError,
    decided from the binary exponents before any value is formed."""
    exponents = np.stack([f.exponent for f in factors])
    tops = exponents.max(axis=1)
    r = np.stack([f.r[:-1, :-1] for f in factors])
    values = _stacked_values(np.ldexp(r, (exponents - tops[:, None])[:, None, :], out=r))
    if (np.frexp(values[:, 0])[1] + tops > 1024).any():
        raise DomainError(
            "the largest singular value is beyond the float64 range (about 1.8e308); "
            "rescale the data"
        )
    return Spectrum(n=[f.n for f in factors], singular_values=np.ldexp(values, tops[:, None]))


def constant_column(f: Factor):
    """Why the columns of the factored rows cannot be standardized: the
    first of them that is constant, or None if none is."""
    flat = np.flatnonzero(f.constant)
    return f"column {flat[0] + 1} is constant and cannot be standardized" if flat.size else None


def correlation_values(factors) -> np.ndarray:
    """Eigenvalues, descending, of the column correlation matrix of the
    factored rows of each :class:`Factor` of *factors*, all of one width m:
    one row of a P x m array each, from one stacked SVD. With
    ``[X | 1] = Q R`` and u the last column of R over its norm, the centred
    columns are ``Q (I - u u^T) R[:, :m]``, so these are the squared
    singular values of ``(I - u u^T) R[:, :m]`` once its columns have unit
    norm. Raises DegenerateInputError naming the first constant column of
    the first factor that has one (:func:`constant_column`)."""
    constant = np.stack([f.constant for f in factors]).any(axis=1)
    if constant.any():
        raise DegenerateInputError(constant_column(factors[constant.argmax()]))
    # every R column-major, whatever its route made it: numpy's products can
    # round differently in another layout, and a prefix's values must not
    # depend on its route's layout or on the other factors of the stack
    size = len(factors[0].r)
    r = np.stack([f.r.T for f in factors], out=np.empty((len(factors), size, size))).transpose(0, 2, 1)
    ones, columns = r[:, :, -1:], r[:, :, :-1]
    u = ones / np.sqrt(ones.transpose(0, 2, 1) @ ones)
    # centred and scaled in place in the projection's buffer: no two more
    # stack-sized temporaries, and the row-major layout ``columns -
    # projection`` would have, so the norms sum in the same order
    centred = u @ (u.transpose(0, 2, 1) @ columns)
    np.subtract(columns, centred, out=centred)
    centred /= np.linalg.norm(centred, axis=1, keepdims=True)
    return _stacked_values(centred) ** 2


def singular_spectrum(x) -> Spectrum:
    """Singular values of a taller-than-wide matrix, without U or V.

    Everything the rank selection and the scree need is a function of these
    values. This is the one-length case of :func:`prefix_factors`: requires
    n >= m, and the small SVD of R falls back to one-sided Jacobi rotations
    if the LAPACK driver fails to converge, as :func:`svd` does.
    """
    a = as_matrix(x)
    (factors,) = prefix_factors(a, [a.shape[0]])
    stack = factor_spectrum(factors)
    return Spectrum(n=stack.n[0], singular_values=stack.singular_values[0])


def svd(x) -> SvdResult:
    """Thin SVD of a taller-than-wide matrix.

    Requires n >= m (transpose externally otherwise; the singular values of
    the transpose are identical). Falls back to one-sided Jacobi rotations
    if the LAPACK driver fails to converge. Only the reconstruction
    (:func:`truncate`) needs U and V; scoring reads the spectrum of each
    prefix's R factor (:func:`prefix_factors`, :func:`factor_spectrum`).
    """
    a = as_matrix(x)
    _require_tall(a, "svd")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        return jacobi_svd(a)
    return SvdResult(u=u, singular_values=s, v=vt.T)


def jacobi_svd(x, max_sweeps: int = JACOBI_MAX_SWEEPS) -> SvdResult:
    """One-sided Jacobi SVD, the cross-check for :func:`svd` and the
    fallback of both small SVDs when LAPACK fails to converge.

    Rotates the column pairs of a copy of *x*, scaled by the power of two
    of :func:`binary_scaled`, until every pair is orthogonal to working
    accuracy, ``|cos(a_p, a_q)| <= m·u`` with u the unit roundoff (Demmel &
    Veselić, SIAM J. Matrix Anal. Appl. 13(4), 1992), and puts the exponent
    back on the singular values. The rule does not depend on the scale of
    *x*: scaling it by 2**k leaves every bit of U and V as it is and scales
    the singular values exactly, and scaling its columns apart leaves each
    singular value to relative accuracy. A column more than about 2**-537
    below the largest entry has a squared norm that underflows to 0, and
    counts as null, as on the Gram route; the columns of U for null
    directions are completed by one Householder QR. Raises
    :class:`ConvergenceError` if that takes more than *max_sweeps* sweeps.
    """
    a, exponent = binary_scaled(as_matrix(x))
    _require_tall(a, "jacobi_svd")
    n, m = a.shape
    v = np.eye(m)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                norm_p, norm_q = np.linalg.norm(a[:, p]), np.linalg.norm(a[:, q])
                apq = a[:, p] @ a[:, q]
                # divide by each norm in turn: their product can underflow
                if not (norm_p and norm_q) or abs(apq / norm_p / norm_q) <= m * UNIT_ROUNDOFF:
                    continue
                rotated = True
                zeta = (norm_q - norm_p) * (norm_q + norm_p) / (2.0 * apq)
                # sign +1 at zeta = 0: columns of equal norm still rotate
                t = (1.0 if zeta >= 0 else -1.0) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps"
        )
    norms = np.linalg.norm(a, axis=0)
    order = np.argsort(-norms, kind="stable")
    rank = np.count_nonzero(norms)
    u = a[:, order[:rank]] / norms[order[:rank]]
    if rank < m:
        # a Householder Q is orthogonal whatever the rank of the padding
        completed = np.linalg.qr(np.hstack([u, np.eye(n, m - rank)]))[0]
        u = np.hstack([u, completed[:, rank:]])
    return SvdResult(u=u, singular_values=np.ldexp(norms[order], exponent.item()), v=v[:, order])


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
