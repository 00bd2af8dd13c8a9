"""Step-grid quantization of loadings matrices and desk-scale code-length
checks on finite models.

A loadings matrix with entries in [-1, 1] is snapped to the grid of integer
multiples of a step ``eps`` with 1/eps an integer and eps < 1/m, where m is
the row count. The module also evaluates the closed-form bound on how many
distinct quantized orthonormal-column matrices exist, and verifies, by
exact summation on finite models, the sandwich bounds obtained when a
jointly optimized parameter is replaced by a fixed one.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

ENTRY_SLACK = 1e-12
# slack within which verify_elimination_sandwich counts a bound as holding
SANDWICH_TOL = 1e-9


def _validate_step(epsilon: float) -> None:
    """Require epsilon > 0 with 1/epsilon an integer (to 1e-9)."""
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    recip = 1.0 / epsilon
    if abs(recip - round(recip)) > 1e-9:
        raise DomainError(f"1/epsilon must be an integer, got 1/{epsilon} = {recip}")


def validate_epsilon(epsilon: float, m: int) -> None:
    """Require 0 < epsilon < 1/m with 1/epsilon an integer (to 1e-9)."""
    _validate_step(epsilon)
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    if not epsilon < 1.0 / m:
        raise DomainError(f"epsilon={epsilon} must be < 1/m = {1.0 / m}")


@dataclass(frozen=True)
class QuantizedLoadings:
    """Grid-snapped loadings plus the scaled perturbation that undoes it.

    ``v_eps = v + epsilon * e`` entrywise, with every ``v_eps`` entry an
    integer multiple of epsilon in [-1, 1] and every ``e`` entry in
    [-1/2, 1/2].
    """

    epsilon: float
    v_eps: np.ndarray
    e: np.ndarray


def quantize(v, epsilon: float) -> QuantizedLoadings:
    """Snap every entry of *v* to the nearest multiple of *epsilon*.

    Entries must lie in [-1, 1] (within 1e-12 slack). Exact midpoints round
    away from zero for determinism. The step is validated against the row
    count of *v*.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"expected a 2-D loadings matrix, got ndim={a.ndim}")
    validate_epsilon(epsilon, a.shape[0])
    if np.max(np.abs(a)) > 1.0 + ENTRY_SLACK:
        raise DomainError(
            f"loadings entries must lie in [-1, 1], max |entry| = {np.max(np.abs(a))}"
        )
    steps = np.sign(a) * np.floor(np.abs(a) / epsilon + 0.5)
    v_eps = steps * epsilon
    e = (v_eps - a) / epsilon
    return QuantizedLoadings(epsilon=epsilon, v_eps=v_eps, e=e)


def inner_product_perturbation_bound(m: int, epsilon: float) -> float:
    """Nominal bound eps + m*eps^2/4 on the inner-product change between
    columns after quantization.

    This is the advertised closed form; it is tight only up to the
    alignment of the rounding residuals (the attainable worst case carries
    an extra sqrt(m) factor on the linear term, see
    :func:`worst_case_inner_product_bound`).
    """
    return epsilon + m * epsilon**2 / 4.0


def worst_case_inner_product_bound(m: int, epsilon: float) -> float:
    """Deterministic worst-case bound eps*sqrt(m) + m*eps^2/4.

    Follows from |residual entries| <= 1/2 and the l1/l2 norm inequality
    applied to unit columns; holds for every pair of quantized columns.
    """
    return epsilon * math.sqrt(m) + m * epsilon**2 / 4.0


def quantized_unitary_log_count_bound(m: int, k: int, epsilon: float) -> float:
    """Closed-form bound on ln(number of quantized m x k orthonormal-column
    matrices on the epsilon grid).

    Returns
        m*k*[ln(2/eps + 1) - (1 - (1 + eps + eps^2/4)/sqrt(m))/2]
        + (k - 1)*ln((eps + m*eps^2/4)/pi).

    The estimate is derived for small steps; a step with eps >= 1/m is
    evaluated anyway but flagged with a warning.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    _validate_step(epsilon)
    if epsilon >= 1.0 / m:
        warnings.warn(
            f"epsilon={epsilon} >= 1/m={1.0 / m}: outside the small-step "
            "regime, the count bound is heuristic here",
            stacklevel=2,
        )
    shrink = (1.0 - (1.0 + epsilon + epsilon**2 / 4.0) / math.sqrt(m)) / 2.0
    first = m * k * (math.log(2.0 / epsilon + 1.0) - shrink)
    second = (k - 1) * math.log((epsilon + m * epsilon**2 / 4.0) / math.pi)
    return first + second


@dataclass(frozen=True)
class DiscreteModel:
    """Finite parametric family on a weighted outcome grid.

    ``likelihood(x, a, b)`` returns a nonnegative density value; ``a`` is
    the always-optimized parameter, ``b`` the one the sandwich bounds
    eliminate. Weights are the cell measures of the grid.
    """

    x_points: tuple
    weights: tuple
    a_family: tuple
    b_family: tuple
    likelihood: Callable

    def __post_init__(self):
        if len(self.x_points) != len(self.weights):
            raise DomainError(
                f"{len(self.x_points)} grid points but {len(self.weights)} weights"
            )
        if not self.a_family or not self.b_family:
            raise DomainError("parameter families must be nonempty")


def _checked(val, x, a, b) -> float:
    v = float(val)
    if not (v >= 0.0 and math.isfinite(v)):
        raise DomainError(f"likelihood({x}, {a}, {b}) = {val} is not a finite nonnegative value")
    return v


def _cell_integral(model: DiscreteModel, b_choices, pick_b) -> float:
    """Grid sum over cells of the a-maximized likelihood at the b that
    *pick_b* (``max`` or ``min``) selects from *b_choices* per cell."""
    if not model.x_points:
        raise DomainError("empty outcome grid")
    cells = []
    for x, w in zip(model.x_points, model.weights):
        per_b = [
            max(_checked(model.likelihood(x, a, bb), x, a, bb) for a in model.a_family)
            for bb in b_choices
        ]
        cells.append(w * pick_b(per_b))
    return math.fsum(cells)


def maximized_likelihood_integral(model: DiscreteModel, b=None) -> float:
    """Exact grid sum of the cell-maximized likelihood.

    With ``b=None`` both parameters are maximized jointly per cell;
    otherwise ``b`` is held fixed and only the a-family is searched.
    Accumulation uses exact summation, so the result is independent of grid
    order.
    """
    return _cell_integral(model, model.b_family if b is None else (b,), max)


@dataclass(frozen=True)
class SandwichCheck:
    """Outcome of the fixed-parameter sandwich verification."""

    upper_holds: bool
    lower_holds: bool
    slack_upper: float
    slack_lower: float


def verify_elimination_sandwich(model: DiscreteModel, b_convention: str = "max") -> SandwichCheck:
    """Check, by exact enumeration, that the jointly optimized integral is
    sandwiched by the fixed-b integrals:

        max_b I(b)  <=  I_joint  <=  sum_b I(b).

    ``b_convention`` selects how the per-cell b is chosen for the left-hand
    side: "max" (the default, under which both bounds hold) or "min" (the
    minimizing selector; the lower bound can then fail, which the slack
    reports as a negative value).
    """
    if b_convention == "max":
        joint = maximized_likelihood_integral(model)
    elif b_convention == "min":
        joint = _cell_integral(model, model.b_family, min)
    else:
        raise DomainError(f"b_convention must be 'max' or 'min', got {b_convention!r}")
    fixed = [maximized_likelihood_integral(model, b=b) for b in model.b_family]
    total = math.fsum(fixed)
    best = max(fixed)
    return SandwichCheck(
        upper_holds=joint <= total + SANDWICH_TOL,
        lower_holds=joint >= best - SANDWICH_TOL,
        slack_upper=total - joint,
        slack_lower=joint - best,
    )
