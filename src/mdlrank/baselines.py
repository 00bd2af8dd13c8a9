"""Classical component-count selectors: the Kaiser rule on the column
correlation eigenvalues (:func:`mdlrank.linalg.correlation_values`) and
knee detection on scree curves."""

from typing import Optional

import numpy as np

from .errors import DegenerateInputError, DomainError
from .linalg import Spectrum, binary_scaled

# the knee is an interior point, so a curve needs both ends and one between
KNEE_MIN_POINTS = 3


def scree(s: Spectrum, normalized: bool = False) -> np.ndarray:
    """Explained-variance curve: squared singular values, in order, scaled
    to sum to one when *normalized*.

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
        return variances
    variances = binary_scaled(values)[0] ** 2
    total = variances.sum()
    if total == 0.0:
        raise DegenerateInputError(
            "cannot normalize a scree curve with zero total variance"
        )
    return variances / total


def kaiser(eigenvalues_of_correlation) -> int:
    """Count of correlation eigenvalues at least one (inclusive boundary)."""
    eig = np.asarray(eigenvalues_of_correlation, dtype=np.float64)
    return int(np.sum(eig >= 1.0))


def kneedle(variances, sensitivity: float = 1.0) -> Optional[int]:
    """Knee of a decreasing curve of *variances*, or None when no bend
    clears the sensitivity threshold.

    Procedure: min-max normalize both axes; for a decreasing curve the
    difference curve is the gap below the normalized endpoint chord,
    d_i = 1 - x_i - y_i; scan the interior local maxima of d and accept the
    first one exceeding sensitivity * (mean x-gap). The returned count is
    the number of components strictly before the accepted point, which for
    a sharp spectral drop is the retained-component count.

    Identical output for any positive affine transform of the y axis.
    A curve of fewer than KNEE_MIN_POINTS points has no knee to find and
    raises DegenerateInputError.
    """
    if not sensitivity > 0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    y = np.asarray(variances, dtype=np.float64)
    n = len(y)
    if n < KNEE_MIN_POINTS:
        raise DegenerateInputError(
            f"knee detection needs at least {KNEE_MIN_POINTS} scree points, got {n}"
        )
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
