"""Code-length scoring of candidate PCA ranks and argmin selection.

The score of rank k combines four closed-form terms derived from a linear
regression code-length identity:

    lower_total = (nm - kn) * ln(residual energy beyond rank k)
                + nk * ln(gram energy)
                + (mn - kn - 1) * ln(mn / (mn - kn))
                - (nk + 1) * ln(nk)

plus a nonnegative slack ``delta_upper = m*k*ln(2/(m*eps))`` coming from the
step quantization of the loadings; the true score lies between
``lower_total`` and ``lower_total + delta_upper``. Natural logarithms
throughout. Minimizing either total over k = 1..m-1 selects a rank.

The residual energies are tail sums of the squared singular values, so the
whole table is a function of the singular spectrum (and, for the
``per_row_sum`` gram mode, of the row energies). Energies are formed in log
space from exactly rescaled values, so no data scale overflows or
underflows them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError
from .linalg import BLOCK_FACTOR, Spectrum, binary_scaled, singular_spectrum
from .quantization import validate_epsilon

# substituted for the residual energy before taking ln, so exactly low-rank
# inputs still rank instead of producing -inf arithmetic
TAIL_FLOOR = 1e-300
LOG_TAIL_FLOOR = math.log(TAIL_FLOOR)
LN2 = math.log(2.0)

GRAM_MODES = ("full_gram", "per_row_sum")


def default_epsilon(m: int) -> float:
    """Default quantization step 1/(2m): integer reciprocal and < 1/m."""
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    return 1.0 / (2 * m)


class ScoreTable(NamedTuple):
    """Score columns for the candidate ranks k = 1..m-1, ascending in k.

    One array per per-k report column, in report order; totals follow the
    module formula, and ``gap_ratio`` is the relative bracket width
    (:func:`_gap_ratio`).
    """

    k: np.ndarray
    tail_term: np.ndarray
    gram_term: np.ndarray
    ratio_term: np.ndarray
    count_term: np.ndarray
    delta_upper: np.ndarray
    lower_total: np.ndarray
    upper_total: np.ndarray
    gap_ratio: np.ndarray
    floored: np.ndarray


@dataclass(frozen=True)
class ComplexityReport:
    """Scores for every candidate k plus the two argmin selections.

    The slack ``delta_upper`` grows with k, so the argmins of the lower and
    upper totals can differ; ``k_bracket`` is the closed interval spanned by
    the two.
    """

    per_k: ScoreTable
    k_lower_opt: int
    k_upper_opt: int
    k_bracket: tuple


def regression_nml(n_obs: int, n_params: int, tau_hat: float, fit_energy: float) -> float:
    """Closed-form regression code length (natural log), four terms.

    n_obs/n_params are the total observation and parameter counts of the
    vectorized regression; tau_hat is the ML residual variance estimate and
    fit_energy the squared norm of the fitted response.

    The scalar reference for :func:`score_table`: the rank-k lower total is
    this kernel at n_obs=mn, n_params=kn, tau_hat = the residual energy
    beyond rank k and fit_energy = the gram energy.
    """
    if n_params < 1:
        raise DomainError(f"n_params must be >= 1, got {n_params}")
    if n_params >= n_obs:
        raise DomainError(f"n_params={n_params} must be < n_obs={n_obs}")
    if not tau_hat > 0:
        raise DomainError(f"tau_hat must be positive, got {tau_hat}")
    if not fit_energy > 0:
        raise DomainError(f"fit_energy must be positive, got {fit_energy}")
    return (
        (n_obs - n_params) * math.log(tau_hat)
        + n_params * math.log(fit_energy)
        + (n_obs - n_params - 1) * math.log(n_obs / (n_obs - n_params))
        - (n_params + 1) * math.log(n_params)
    )


def score_table(spectrum: Spectrum, log_gram: float, epsilon: float) -> ScoreTable:
    """Score columns for every candidate rank k = 1..m-1, ascending in k.

    ``log_gram`` is the natural log of the gram-energy argument of the
    nk*ln(...) term; callers choose it per gram mode. The residual energies
    are reverse cumulative sums of the squared singular values, taken in
    log space. A residual energy below TAIL_FLOOR is floored and its rank
    marked accordingly.
    """
    values = np.asarray(spectrum.singular_values, dtype=np.float64)
    n, m = spectrum.n, len(values)
    if m < 2:
        raise DomainError(f"no candidate rank in [1, {m - 1}]: need m >= 2 singular values")
    if n < m:
        raise DomainError(f"n={n} must be >= m={m}")
    if not math.isfinite(log_gram):
        raise DomainError(f"log_gram must be finite, got {log_gram}")
    validate_epsilon(epsilon, m)

    scaled, exponent = binary_scaled(values)
    energy = scaled * scaled
    tails = np.cumsum(energy[::-1])[::-1][1:]  # tails[k - 1]: sum of s_i^2, i > k
    with np.errstate(divide="ignore"):
        log_tail = np.log(tails) + 2 * LN2 * float(exponent[0])
    floored = log_tail < LOG_TAIL_FLOOR
    log_tail = np.where(floored, LOG_TAIL_FLOOR, log_tail)

    k = np.arange(1, m)
    nk = n * k
    tail_term = (n * m - nk) * log_tail
    gram_term = nk * log_gram
    ratio_term = (m * n - nk - 1) * np.log((m * n) / (m * n - nk))
    count_term = (nk + 1) * np.log(nk)
    delta_upper = m * k * math.log(2.0 / (m * epsilon))
    lower_total = tail_term + gram_term + ratio_term - count_term
    upper_total = lower_total + delta_upper
    return ScoreTable(
        k, tail_term, gram_term, ratio_term, count_term, delta_upper,
        lower_total, upper_total, _gap_ratio(lower_total, upper_total), floored,
    )


def _gap_ratio(lower_total: np.ndarray, upper_total: np.ndarray) -> np.ndarray:
    """Relative bracket width (upper - lower) / |lower|, None where the
    lower total is exactly zero, since the ratio is undefined there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (upper_total - lower_total) / np.abs(lower_total)
    return np.where(lower_total == 0.0, None, gap)


def _log_gram(x: np.ndarray, spectrum: Spectrum, gram_mode: str) -> float:
    """Natural log of the gram-energy argument g, gram_term = n*k*ln(g).

    full_gram uses the squared Frobenius norm of X^T X, which is the sum of
    the fourth powers of the singular values. per_row_sum encodes the
    per-row form k * sum_j ln(X_j . X_j) by passing the mean log row
    energy, since n*k times that mean equals the sum; a row energy below
    TAIL_FLOOR (a zero row) is floored. The row energies are taken a grid
    block of rows at a time, so no n x m copy is made, and each block's
    entries are checked finite as they are read. Each block is read as a
    row-major copy, since numpy sums a row in an order that depends on its
    memory layout; so the energies do not depend on the layout of *x*.
    """
    if gram_mode == "full_gram":
        scaled, exponent = binary_scaled(spectrum.singular_values)
        return math.log(float(np.sum(scaled**4))) + 4 * LN2 * float(exponent[0])
    step = BLOCK_FACTOR * (x.shape[1] + 1)
    log_rows = []
    for start in range(0, len(x), step):
        block = np.ascontiguousarray(x[start : start + step])
        if not np.isfinite(block).all():
            raise DomainError("matrix entries must be finite (NaN/Inf rejected)")
        scaled, exponent = binary_scaled(block, axis=1)
        scaled *= scaled  # a fresh array: square in place
        with np.errstate(divide="ignore"):
            log_rows.append(np.log(np.sum(scaled, axis=1)) + 2 * LN2 * exponent[:, 0])
    return float(np.mean(np.maximum(np.concatenate(log_rows), LOG_TAIL_FLOOR)))


def select_rank(
    x, epsilon: float = None, gram_mode: str = "full_gram", spectrum: Spectrum = None
) -> ComplexityReport:
    """Score every k in 1..m-1 and select by argmin of both totals.

    Ties break toward the smallest k. ``epsilon=None`` uses the default
    1/(2m). The matrix must be taller than wide (or square) with at least
    one nonzero entry. ``spectrum`` is the :func:`singular_spectrum` of
    *x* when the caller already has it (to share one decomposition between
    gram modes and baselines); otherwise it is computed here. Only the
    per_row_sum mode reads the entries of *x* beyond the spectrum.
    """
    if gram_mode not in GRAM_MODES:
        raise DomainError(f"gram_mode must be one of {GRAM_MODES}, got {gram_mode!r}")
    if spectrum is None:
        spectrum = singular_spectrum(x)
    a = np.asarray(x, dtype=np.float64)
    if a.shape != (spectrum.n, len(spectrum.singular_values)):
        raise DomainError(
            f"spectrum of a {spectrum.n} x {len(spectrum.singular_values)} matrix "
            f"does not match the input of shape {a.shape}"
        )
    n, m = a.shape
    # only an all-zero matrix has an all-zero spectrum
    if not np.any(spectrum.singular_values):
        raise DegenerateInputError("all-zero matrix has no signal to rank")
    if epsilon is None:
        epsilon = default_epsilon(m)

    table = score_table(spectrum, _log_gram(a, spectrum, gram_mode), epsilon)
    # np.argmin returns the first minimum, which is the smallest k
    k_lower_opt = int(table.k[np.argmin(table.lower_total)])
    k_upper_opt = int(table.k[np.argmin(table.upper_total)])
    return ComplexityReport(
        per_k=table,
        k_lower_opt=k_lower_opt,
        k_upper_opt=k_upper_opt,
        k_bracket=(min(k_lower_opt, k_upper_opt), max(k_lower_opt, k_upper_opt)),
    )
