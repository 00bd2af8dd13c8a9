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

import numpy as np

from .errors import DegenerateInputError, DomainError
from .linalg import Spectrum, as_matrix, binary_scaled, singular_spectrum
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


@dataclass(frozen=True)
class ComplexityTerms:
    """Per-k score terms; totals follow the module formula."""

    k: int
    tail_term: float
    gram_term: float
    ratio_term: float
    count_term: float
    delta_upper: float
    floored: bool = False

    @property
    def lower_total(self) -> float:
        return self.tail_term + self.gram_term + self.ratio_term - self.count_term

    @property
    def upper_total(self) -> float:
        return self.lower_total + self.delta_upper

    @property
    def gap_ratio(self):
        """Relative bracket width (upper - lower) / |lower|; None where the
        lower total is exactly zero, since the ratio is undefined there."""
        lower = self.lower_total
        return None if lower == 0.0 else (self.upper_total - lower) / abs(lower)


@dataclass(frozen=True)
class ComplexityReport:
    """Scores for every candidate k plus the two argmin selections.

    The slack ``delta_upper`` grows with k, so the argmins of the lower and
    upper totals can differ; ``k_bracket`` is the closed interval spanned by
    the two.
    """

    n: int
    m: int
    epsilon: float
    gram_mode: str
    per_k: tuple
    k_lower_opt: int
    k_upper_opt: int
    k_bracket: tuple


@dataclass(frozen=True)
class RegressionNmlInputs:
    """Arguments of the regression code-length kernel.

    n_obs/n_params are the total observation and parameter counts of the
    vectorized regression; tau_hat is the ML residual variance estimate and
    fit_energy the squared norm of the fitted response.
    """

    n_obs: int
    n_params: int
    tau_hat: float
    fit_energy: float

    def __post_init__(self):
        if self.n_params < 1:
            raise DomainError(f"n_params must be >= 1, got {self.n_params}")
        if self.n_params >= self.n_obs:
            raise DomainError(
                f"n_params={self.n_params} must be < n_obs={self.n_obs}"
            )
        if not self.tau_hat > 0:
            raise DomainError(f"tau_hat must be positive, got {self.tau_hat}")
        if not self.fit_energy > 0:
            raise DomainError(
                f"fit_energy must be positive, got {self.fit_energy}"
            )


def regression_nml(inp: RegressionNmlInputs) -> float:
    """Closed-form regression code length (natural log), four terms.

    The scalar reference for :func:`score_table`: the rank-k lower total is
    this kernel at n_obs=mn, n_params=kn, tau_hat = the residual energy
    beyond rank k and fit_energy = the gram energy.
    """
    n_obs, n_params = inp.n_obs, inp.n_params
    return (
        (n_obs - n_params) * math.log(inp.tau_hat)
        + n_params * math.log(inp.fit_energy)
        + (n_obs - n_params - 1) * math.log(n_obs / (n_obs - n_params))
        - (n_params + 1) * math.log(n_params)
    )


def score_table(spectrum: Spectrum, log_gram: float, epsilon: float) -> tuple:
    """Score terms for every candidate rank k = 1..m-1, ascending in k.

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

    ks = np.arange(1, m, dtype=np.float64)
    nk = n * ks
    columns = (
        (n * m - nk) * log_tail,
        nk * log_gram,
        (m * n - nk - 1) * np.log((m * n) / (m * n - nk)),
        (nk + 1) * np.log(nk),
        m * ks * math.log(2.0 / (m * epsilon)),
        floored,
    )
    return tuple(
        ComplexityTerms(k, *row)
        for k, row in enumerate(zip(*(c.tolist() for c in columns)), start=1)
    )


def _log_gram(x: np.ndarray, spectrum: Spectrum, gram_mode: str) -> float:
    """Natural log of the gram-energy argument g, gram_term = n*k*ln(g).

    full_gram uses the squared Frobenius norm of X^T X, which is the sum of
    the fourth powers of the singular values. per_row_sum encodes the
    per-row form k * sum_j ln(X_j . X_j) by passing the mean log row
    energy, since n*k times that mean equals the sum; a row energy below
    TAIL_FLOOR (a zero row) is floored.
    """
    if gram_mode == "full_gram":
        scaled, exponent = binary_scaled(spectrum.singular_values)
        return math.log(float(np.sum(scaled**4))) + 4 * LN2 * float(exponent[0])
    scaled, exponent = binary_scaled(x, axis=1)
    scaled *= scaled  # a fresh array: square in place, no second n x m copy
    with np.errstate(divide="ignore"):
        log_rows = np.log(np.sum(scaled, axis=1)) + 2 * LN2 * exponent[:, 0]
    return float(np.mean(np.maximum(log_rows, LOG_TAIL_FLOOR)))


def _argmin_by(per_k, total_attr: str) -> int:
    """k of the smallest total; equal totals break toward the smallest k,
    independent of the order the terms are listed in."""
    return min(per_k, key=lambda t: (getattr(t, total_attr), t.k)).k


def select_rank(
    x, epsilon: float = None, gram_mode: str = "full_gram", spectrum: Spectrum = None
) -> ComplexityReport:
    """Score every k in 1..m-1 and select by argmin of both totals.

    Ties break toward the smallest k. ``epsilon=None`` uses the default
    1/(2m). The matrix must be taller than wide (or square) with at least
    one nonzero entry. ``spectrum`` is the :func:`singular_spectrum` of
    *x* when the caller already has it (to share one decomposition between
    gram modes and baselines); otherwise it is computed here.
    """
    a = as_matrix(x)
    n, m = a.shape
    if n < 2 or m < 2:
        raise DomainError(f"need at least a 2 x 2 matrix, got {n} x {m}")
    if n < m:
        raise DomainError(
            f"select_rank expects rows >= cols, got {n} x {m}; transpose so "
            "observations are rows"
        )
    if not np.any(a):
        raise DegenerateInputError("all-zero matrix has no signal to rank")
    if epsilon is None:
        epsilon = default_epsilon(m)
    if gram_mode not in GRAM_MODES:
        raise DomainError(f"gram_mode must be one of {GRAM_MODES}, got {gram_mode!r}")
    if spectrum is None:
        spectrum = singular_spectrum(a)
    elif spectrum.n != n or len(spectrum.singular_values) != m:
        raise DomainError(
            f"spectrum of a {spectrum.n} x {len(spectrum.singular_values)} matrix "
            f"does not match the {n} x {m} input"
        )

    per_k = score_table(spectrum, _log_gram(a, spectrum, gram_mode), epsilon)
    k_lower_opt = _argmin_by(per_k, "lower_total")
    k_upper_opt = _argmin_by(per_k, "upper_total")
    bracket = (min(k_lower_opt, k_upper_opt), max(k_lower_opt, k_upper_opt))
    return ComplexityReport(
        n=n,
        m=m,
        epsilon=epsilon,
        gram_mode=gram_mode,
        per_k=per_k,
        k_lower_opt=k_lower_opt,
        k_upper_opt=k_upper_opt,
        k_bracket=bracket,
    )

