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
underflows them, as long as the largest singular value is within the
float64 range (:func:`~mdlrank.linalg.factor_spectrum` refuses one beyond
it). One kernel, :func:`score_stack`, scores a stack of spectra at once,
such as those of every prefix :func:`analyse` takes of a matrix; a single
spectrum (:func:`score_table`) is a stack of one, and :func:`select_rank`
is the one-prefix, one-mode case of :func:`analyse`.
"""

import math
from typing import NamedTuple

import numpy as np

from .baselines import kaiser, kneedle, scree
from .errors import DegenerateInputError, DomainError
from .linalg import (BLOCK_FACTOR, UNIT_ROUNDOFF, Spectrum, as_matrix, binary_scaled, correlation_values,
                     factor_spectrum, prefix_factors)
from .quantization import validate_epsilon

LN2 = math.log(2.0)

GRAM_MODES = ("full_gram", "per_row_sum")


def default_epsilon(m: int) -> float:
    """Default quantization step 1/(2m): integer reciprocal and < 1/m."""
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    return 1.0 / (2 * m)


class ScoreTable(NamedTuple):
    """Score columns for the candidate ranks k = 1..m-1, ascending in k.

    One array per column of the ``select --table`` CSV, in its order (a
    JSON report writes ``cli.REPORT_COLUMNS`` of them); totals follow the
    module formula, and ``gap_ratio`` is the relative bracket width
    (:func:`_gap_ratio`). For a stack of spectra (:func:`score_stack`)
    each column is P x (m - 1), one row per spectrum.
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


class ComplexityReport(NamedTuple):
    """Scores for every candidate k plus the two argmin selections.

    The slack ``delta_upper`` grows with k, so the argmins of the lower and
    upper totals can differ; ``k_bracket`` is the closed interval spanned by
    the two.
    """

    per_k: ScoreTable
    k_lower_opt: int
    k_upper_opt: int
    k_bracket: tuple


class Analysis(NamedTuple):
    """One prefix's spectrum, its :class:`ComplexityReport` per gram mode
    and its baselines dict, as :func:`analyse` gives them."""

    spectrum: Spectrum
    reports: tuple
    baselines: dict


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


def score_stack(spectra: Spectrum, log_gram, epsilon: float) -> ScoreTable:
    """Score columns of a stack of P spectra of one width m: ``spectra.n``
    holds the P row counts, ``spectra.singular_values`` is P x m and
    ``log_gram`` gives each spectrum's natural log of the gram-energy
    argument of the nk*ln(...) term (:func:`_log_grams`). Every column is
    P x (m - 1), row p that of spectrum p and column k - 1 that of rank k.

    The residual energies are reverse cumulative sums of the squared
    singular values, taken in log space. One below :func:`_zero_energy` is
    scored at it and its rank marked ``floored``; an all-zero spectrum, with
    no scale to floor against, is refused. Each row's arithmetic reads that
    row alone, so a row equals its spectrum scored on its own, bit for bit.
    """
    values = np.asarray(spectra.singular_values, dtype=np.float64)
    n = np.reshape(spectra.n, (-1, 1))
    log_gram = np.reshape(np.asarray(log_gram, dtype=np.float64), (-1, 1))
    m = values.shape[1]
    if m < 2:
        raise DomainError(f"no candidate rank in [1, {m - 1}]: need m >= 2 singular values")
    if (n < m).any():
        raise DomainError(f"n={n[n < m][0]} must be >= m={m}")
    if not np.isfinite(log_gram).all():
        raise DomainError(f"log_gram must be finite, got {log_gram[~np.isfinite(log_gram)][0]}")
    if not values.any(axis=1).all():
        raise DomainError("an all-zero spectrum has no scale to floor its residual energies against")
    validate_epsilon(epsilon, m)

    scaled, exponent = binary_scaled(values, axis=1)
    energy = scaled * scaled
    # tails[:, k - 1]: sum of s_i^2, i > k. Copied contiguous before the log,
    # since numpy's log loop for a reversed view can differ in the last bit
    tails = np.ascontiguousarray(np.cumsum(energy[:, ::-1], axis=1)[:, -2::-1])
    floor = _zero_energy(n, scaled)
    floored = tails < floor
    log_tail = np.log(np.where(floored, floor, tails)) + 2 * LN2 * exponent

    k = np.arange(1, m)
    nk = n * k
    tail_term = (n * m - nk) * log_tail
    gram_term = nk * log_gram
    ratio_term = (m * n - nk - 1) * np.log((m * n) / (m * n - nk))
    count_term = (nk + 1) * np.log(nk)
    delta_upper = np.broadcast_to(m * k * math.log(2.0 / (m * epsilon)), nk.shape)
    lower_total = tail_term + gram_term + ratio_term - count_term
    upper_total = lower_total + delta_upper
    return ScoreTable(
        np.broadcast_to(k, nk.shape), tail_term, gram_term, ratio_term, count_term,
        delta_upper, lower_total, upper_total, _gap_ratio(lower_total, upper_total), floored,
    )


def score_table(spectrum: Spectrum, log_gram: float, epsilon: float) -> ScoreTable:
    """Score columns for every candidate rank k = 1..m-1, ascending in k:
    the one row of :func:`score_stack` on *spectrum* alone."""
    stack = Spectrum(n=[spectrum.n], singular_values=[spectrum.singular_values])
    return ScoreTable(*(column[0] for column in score_stack(stack, [log_gram], epsilon)))


def _gap_ratio(lower_total: np.ndarray, upper_total: np.ndarray) -> np.ndarray:
    """Relative bracket width (upper - lower) / |lower|, None where the
    lower total is exactly zero, since the ratio is undefined there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (upper_total - lower_total) / np.abs(lower_total)
    return np.where(lower_total == 0.0, None, gap)


def _zero_energy(n, scaled) -> np.ndarray:
    """n*m*(u*s1)^2 per row of the binary_scaled P x m stack *scaled*, in its
    units: an energy below it is the decomposition's rounding (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 19)."""
    return np.reshape(n, (-1, 1)) * scaled.shape[1] * (UNIT_ROUNDOFF * scaled[:, :1]) ** 2


def _log_row_energies(x) -> np.ndarray:
    """Natural log of each row's energy X_i . X_i, -inf for a zero
    row. The rows are taken a grid block at a time, so no n x m copy
    is made: each block is copied into one column-major buffer of a whole
    block's shape, allocated once per call, where its rows are scaled by
    the powers of two of :func:`~mdlrank.linalg.binary_scaled` in place and
    then summed with their squares by one einsum, which needs no squared
    copy. Copying a column-major X, as ``--synthetic`` makes, costs no
    transpose there. Since the buffer's layout and strides are fixed,
    einsum sums every row in the same order, one column after the other,
    whatever the layout of *x* or the length of the block: a buffer of one
    contiguous row would be summed in another order. A row's value reads
    that row alone, so those of a prefix of *x* are the first entries of
    those of *x*."""
    n, m = x.shape
    step = BLOCK_FACTOR * (m + 1)
    buffer = np.empty((step, m), order="F")
    log_rows = np.empty(n)
    for start in range(0, n, step):
        block = buffer[: min(step, n - start)]
        np.copyto(block, x[start : start + step])
        exponent = np.frexp(np.maximum(block.max(axis=1), -block.min(axis=1)))[1]
        np.ldexp(block, -exponent[:, None], out=block)
        with np.errstate(divide="ignore"):
            log_rows[start : start + len(block)] = (
                np.log(np.einsum("ij,ij->i", block, block)) + 2 * LN2 * exponent
            )
    return log_rows


def _log_grams(spectra: Spectrum, gram_mode: str, x) -> np.ndarray:
    """Natural log of the gram-energy argument g, gram_term = n*k*ln(g), of
    each spectrum of the stack *spectra*, that of the first ``spectra.n[p]``
    rows of the matrix *x*.

    full_gram uses the squared Frobenius norm of X^T X, which is the sum of
    the fourth powers of the singular values. per_row_sum encodes the
    per-row form k * sum_j ln(X_j . X_j), each row energy at least the
    prefix's :func:`_zero_energy`, by the mean of :func:`_log_row_energies`
    (taken once for all prefixes), since n*k times that mean equals the sum.
    """
    scaled, exponent = binary_scaled(spectra.singular_values, axis=1)
    if gram_mode == "full_gram":
        sums = np.sum(scaled**4, axis=1).tolist()
        return np.array([math.log(total) for total in sums]) + 4 * LN2 * exponent[:, 0]
    floors = (np.log(_zero_energy(spectra.n, scaled)) + 2 * LN2 * exponent)[:, 0].tolist()
    log_rows = _log_row_energies(x[: np.max(spectra.n)])
    return np.array([np.mean(np.maximum(log_rows[:n], floor)) for n, floor in zip(spectra.n, floors)])


def analyse(a, lengths, epsilon: float, gram_modes=("full_gram",), sensitivity: float = 1.0) -> list:
    """The :class:`Analysis` of each prefix of *a*, a checked matrix
    (:func:`~mdlrank.linalg.as_matrix`), whose row count is in *lengths*,
    in ascending order of length. The streamed R factors come in chunks
    (:func:`~mdlrank.linalg.prefix_factors`), and of each chunk only the
    singular values, from one stacked SVD, and the Kaiser count of each
    prefix's correlation eigenvalues, or why it has none
    (:func:`~mdlrank.linalg.correlation_values`), are kept. All prefixes
    are scored in one pass per gram mode, and then the knees are taken at
    *sensitivity*. A baseline that cannot use the input is None, its reason
    under ``skipped``, since the selection does not depend on it. Every
    gram mode is checked before a row is factored, and ties break toward
    the smallest k.
    """
    for mode in gram_modes:
        if mode not in GRAM_MODES:
            raise DomainError(f"gram_mode must be one of {GRAM_MODES}, got {mode!r}")
    ns, values, kaisers = [], [], []
    for chunk in prefix_factors(a, lengths):
        spectra = factor_spectrum(chunk)
        ns += spectra.n
        values.append(spectra.singular_values)
        correlations = correlation_values(chunk)
        eigenvalues = [c for c in correlations if not isinstance(c, str)]
        counts = iter(kaiser(eigenvalues) if eigenvalues else ())
        kaisers += [(None, c) if isinstance(c, str) else (next(counts), None) for c in correlations]
    stack = Spectrum(n=ns, singular_values=np.concatenate(values))
    # a spectrum is all-zero only if its rows are, so those prefixes come first
    zeros = np.count_nonzero(~stack.singular_values.any(axis=1))
    if zeros:
        what = "matrix" if ns[zeros - 1] == len(a) else f"prefix of {ns[zeros - 1]} rows"
        raise DegenerateInputError(f"all-zero {what} has no signal to rank")
    selections = []
    for mode in gram_modes:
        table = score_stack(stack, _log_grams(stack, mode, a), epsilon)
        # np.argmin returns the first minimum, which is the smallest k
        lowers = (np.argmin(table.lower_total, axis=1) + 1).tolist()
        uppers = (np.argmin(table.upper_total, axis=1) + 1).tolist()
        selections.append([
            ComplexityReport(ScoreTable(*row), lower, upper, (min(lower, upper), max(lower, upper)))
            for row, lower, upper in zip(zip(*table), lowers, uppers)
        ])
    try:
        knees, knee_reason = kneedle(scree(stack, normalized=True), sensitivity), None
    except DegenerateInputError as exc:
        knees, knee_reason = [None] * len(ns), str(exc)
    analyses = []
    rows = zip(ns, stack.singular_values, kaisers, knees, *selections)
    for n, row, (count, reason), knee, *reports in rows:
        baselines = {"kaiser": count, "kneedle": knee}
        skipped = {name: why for name, why in (("kaiser", reason), ("kneedle", knee_reason)) if why}
        if skipped:
            baselines["skipped"] = skipped
        analyses.append(Analysis(Spectrum(n, row), tuple(reports), baselines))
    return analyses


def select_rank(x, epsilon: float = None, gram_mode: str = "full_gram") -> ComplexityReport:
    """Score every k in 1..m-1 and select by argmin of both totals: the one
    report of :func:`analyse` on all of *x* in one gram mode.

    Ties break toward the smallest k. ``epsilon=None`` uses the default
    1/(2m). The matrix must be taller than wide (or square), with finite
    entries and at least one nonzero entry.
    """
    a = as_matrix(x)
    if epsilon is None:
        epsilon = default_epsilon(a.shape[1])
    (analysis,) = analyse(a, [len(a)], epsilon, (gram_mode,))
    (report,) = analysis.reports
    return report
