"""Rank selection for PCA by minimum-description-length scoring.

Scores every candidate component count with closed-form code-length bounds
and selects by minimization, alongside the Kaiser rule and knee detection
as classical baselines.
"""

from .baselines import kaiser, kneedle, scree
from .complexity import analyse, default_epsilon, score_table, select_rank
from .datasets import (
    PriceTable,
    SyntheticSpec,
    generate_lin,
    load_csv,
    load_matrix_csv,
    returns_transform,
)
from .errors import ConvergenceError, DegenerateInputError, DomainError, ParseError
from .linalg import (
    Spectrum,
    frobenius_sq,
    singular_spectrum,
    svd,
    tail_energy,
    truncate,
)
from .quantization import (
    DiscreteModel,
    inner_product_perturbation_bound,
    quantize,
    quantized_unitary_log_count_bound,
    verify_elimination_sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateInputError",
    "DiscreteModel",
    "DomainError",
    "ParseError",
    "PriceTable",
    "Spectrum",
    "SyntheticSpec",
    "analyse",
    "default_epsilon",
    "frobenius_sq",
    "generate_lin",
    "inner_product_perturbation_bound",
    "kaiser",
    "kneedle",
    "load_csv",
    "load_matrix_csv",
    "quantize",
    "quantized_unitary_log_count_bound",
    "returns_transform",
    "score_table",
    "scree",
    "select_rank",
    "singular_spectrum",
    "svd",
    "tail_energy",
    "truncate",
    "verify_elimination_sandwich",
]
