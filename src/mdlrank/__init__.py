"""Rank selection for PCA by minimum-description-length scoring.

Scores every candidate component count with closed-form code-length bounds
and selects by minimization, alongside the Kaiser rule and knee detection
as classical baselines.
"""

from .baselines import ScreeCurve, kaiser, kneedle, scree
from .complexity import (
    ComplexityReport,
    ComplexityTerms,
    RegressionNmlInputs,
    bound_gap_ratio,
    default_epsilon,
    regression_nml,
    score_table,
    select_rank,
)
from .datasets import (
    PriceTable,
    SyntheticSpec,
    center_columns,
    generate_lin,
    generator_metadata,
    load_csv,
    load_matrix_csv,
    returns_transform,
    standardize_columns,
)
from .errors import ConvergenceError, DegenerateInputError, DomainError, ParseError
from .linalg import (
    Spectrum,
    SvdResult,
    frobenius_sq,
    jacobi_svd,
    singular_spectrum,
    svd,
    tail_energy,
    truncate,
)
from .quantization import (
    DiscreteModel,
    QuantizedLoadings,
    SandwichCheck,
    inner_product_perturbation_bound,
    maximized_likelihood_integral,
    quantize,
    quantized_unitary_log_count_bound,
    validate_epsilon,
    verify_elimination_sandwich,
    worst_case_inner_product_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexityReport",
    "ComplexityTerms",
    "ConvergenceError",
    "DegenerateInputError",
    "DiscreteModel",
    "DomainError",
    "ParseError",
    "PriceTable",
    "QuantizedLoadings",
    "RegressionNmlInputs",
    "SandwichCheck",
    "ScreeCurve",
    "Spectrum",
    "SvdResult",
    "SyntheticSpec",
    "bound_gap_ratio",
    "center_columns",
    "default_epsilon",
    "frobenius_sq",
    "generate_lin",
    "generator_metadata",
    "inner_product_perturbation_bound",
    "jacobi_svd",
    "kaiser",
    "kneedle",
    "load_csv",
    "load_matrix_csv",
    "maximized_likelihood_integral",
    "quantize",
    "quantized_unitary_log_count_bound",
    "regression_nml",
    "returns_transform",
    "score_table",
    "scree",
    "select_rank",
    "singular_spectrum",
    "standardize_columns",
    "svd",
    "tail_energy",
    "truncate",
    "validate_epsilon",
    "verify_elimination_sandwich",
    "worst_case_inner_product_bound",
]
