"""Classical component-count selectors: the Kaiser rule on the column
correlation eigenvalues that :func:`mdlrank.linalg.correlation_values`
gives a prefix whose columns can all be standardized, and knee detection
on scree curves."""

import numpy as np

from .errors import DegenerateInputError, DomainError
from .linalg import Spectrum, binary_scaled

# the knee is an interior point, so a curve needs both ends and one between
KNEE_MIN_POINTS = 3


def scree(s: Spectrum, normalized: bool = False) -> np.ndarray:
    """Explained-variance curve: squared singular values, in order, scaled
    to sum to one when *normalized*.

    *s* is a :class:`~mdlrank.linalg.Spectrum`, a stack of them (one curve
    per row) or an SVD result; only its ``singular_values`` are read. The
    normalized curve is formed from the values scaled by an exact power of
    two, so it neither overflows nor underflows at extreme data scales; the
    plain curve raises DomainError when a nonzero value's square overflows
    or underflows to zero.
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
    variances = binary_scaled(values, axis=-1)[0] ** 2
    total = variances.sum(axis=-1, keepdims=True)
    if (total == 0.0).any():
        raise DegenerateInputError(
            "cannot normalize a scree curve with zero total variance"
        )
    return variances / total


def kaiser(eigenvalues_of_correlation):
    """Count of correlation eigenvalues at least one (inclusive boundary):
    an int, or for a stack of eigenvalue sets (one per row) a list of
    counts."""
    eig = np.asarray(eigenvalues_of_correlation, dtype=np.float64)
    return np.count_nonzero(eig >= 1.0, axis=-1).tolist()


def kneedle(variances, sensitivity: float = 1.0):
    """Knee of a decreasing curve of *variances*, or None when no bend
    clears the sensitivity threshold; for a stack of curves (one per row),
    the list of their knees.

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
    n = y.shape[-1]
    if n < KNEE_MIN_POINTS:
        raise DegenerateInputError(
            f"knee detection needs at least {KNEE_MIN_POINTS} scree points, got {n}"
        )
    low = y.min(axis=-1, keepdims=True)
    x_norm = np.arange(n) / (n - 1)
    # a flat curve divides 0 by 0, and its NaNs make no local maximum
    with np.errstate(invalid="ignore"):
        y_norm = (y - low) / (y.max(axis=-1, keepdims=True) - low)
    diff = 1.0 - x_norm - y_norm
    inner = diff[..., 1:-1]
    bend = (inner >= diff[..., :-2]) & (inner >= diff[..., 2:]) & (inner > sensitivity / (n - 1))
    return np.where(bend.any(axis=-1), bend.argmax(axis=-1) + 1, None).tolist()
