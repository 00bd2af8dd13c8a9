"""Classical component-count selectors: the Kaiser rule and knee detection
on scree curves."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, DomainError
from .linalg import Spectrum, binary_scaled

# the knee is an interior point, so a curve needs both ends and one between
KNEE_MIN_POINTS = 3


@dataclass(frozen=True)
class ScreeCurve:
    """Per-component explained variance, nonincreasing; optionally scaled
    to sum to one."""

    variances: np.ndarray
    normalized: bool


def scree(s: Spectrum, normalized: bool = False) -> ScreeCurve:
    """Explained-variance curve: squared singular values, in order.

    *s* is a :class:`~mdlrank.linalg.Spectrum` or an SVD result; only its
    ``singular_values`` are read. The normalized curve is formed from the
    values scaled by an exact power of two, so it neither overflows nor
    underflows at extreme data scales; the plain curve raises DomainError
    when a nonzero value's square overflows or underflows to zero.
    """
    values = np.asarray(s.singular_values, dtype=np.float64)
    if not normalized:
        with np.errstate(over="ignore", under="ignore"):
            variances = values**2
        if not np.isfinite(variances).all() or ((variances == 0.0) & (values != 0.0)).any():
            raise DomainError(
                "squared singular values overflow or underflow at this data "
                "scale; pass --normalized for the curve scaled to sum to 1"
            )
        return ScreeCurve(variances=variances, normalized=False)
    variances = binary_scaled(values)[0] ** 2
    total = variances.sum()
    if total == 0.0:
        raise DegenerateInputError(
            "cannot normalize a scree curve with zero total variance"
        )
    return ScreeCurve(variances=variances / total, normalized=True)


def kaiser(eigenvalues_of_correlation) -> int:
    """Count of correlation eigenvalues at least one (inclusive boundary)."""
    eig = np.asarray(eigenvalues_of_correlation, dtype=np.float64)
    return int(np.sum(eig >= 1.0))


def kneedle(curve: ScreeCurve, sensitivity: float = 1.0) -> Optional[int]:
    """Knee of a decreasing curve, or None when no bend clears the
    sensitivity threshold.

    Procedure: min-max normalize both axes; for a decreasing curve the
    difference curve is the gap below the normalized endpoint chord,
    d_i = 1 - x_i - y_i; scan the interior local maxima of d and accept the
    first one exceeding sensitivity * (mean x-gap). The returned count is
    the number of components strictly before the accepted point, which for
    a sharp spectral drop is the retained-component count.

    Identical output for any positive affine transform of the y axis.
    """
    if not sensitivity > 0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    y = np.asarray(curve.variances, dtype=np.float64)
    n = len(y)
    if n < KNEE_MIN_POINTS:
        raise DomainError(f"knee detection needs at least {KNEE_MIN_POINTS} points, got {n}")
    y_span = y.max() - y.min()
    if y_span == 0.0:
        return None
    x_norm = np.arange(n) / (n - 1)
    y_norm = (y - y.min()) / y_span
    diff = 1.0 - x_norm - y_norm
    threshold = sensitivity / (n - 1)
    for i in range(1, n - 1):
        if diff[i] >= diff[i - 1] and diff[i] >= diff[i + 1] and diff[i] > threshold:
            return i
    return None
