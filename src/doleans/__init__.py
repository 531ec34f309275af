"""Stochastic exponentials of finite-activity jump local martingales.

Builds Doleans-Dade exponentials pathwise, evaluates a family of
sufficient conditions for their uniform integrability (including an
extended condition driven by a predictable control process), and verifies
the underlying measure-change algebra numerically.  Three built-in example
processes exhibit the separation between the conditions.
"""

from .distributions import (
    InverseCdfDistribution,
    make_eta_distribution,
    make_first_jump_time,
    make_xi_distribution,
)
from .paths import (
    Driver,
    EXAMPLE_MODELS,
    ExpCompensatorDrift,
    JumpPath,
    LinearQv,
    PathBatch,
    PredictableControl,
    ProcessModel,
    ScaledDrift,
    ZeroDrift,
    ZeroQv,
    control_indicator_after,
    example1_model,
    example2_model,
    example3_model,
    integrate_control,
    integrate_control_drift,
    path_from_json,
    path_to_json,
)
from .stochexp import (
    CONDITION_KINDS,
    ConditionSpec,
    FunctionalValue,
    UnsupportedModelError,
    jacod_batch,
    jacod_functional,
    jump_term_reduction_gap,
    lemma1_batch,
    lemma1_functional,
    lepingle_memin_A,
    log_stoch_exponential,
    log_stoch_exponential_batch,
    protter_shimbo_functional,
    sde_residual,
    stoch_exponential,
    stoch_exponential_batch,
    theorem1_batch,
    theorem1_functional,
)
from .girsanov import (
    MeasureChangeDecomposition,
    decompose,
    lemma2_lhs,
    lemma3_gap,
    product_identity_residual,
    transformed_jacod_bound,
    transformed_jacod_integrand,
)
from .mc import (
    ConditionReport,
    DivergenceEvidence,
    Estimate,
    EstimationError,
    QuadratureAccuracyError,
    SeedSpec,
    detect_divergence,
    estimate_batch,
    evaluate_condition,
    quadrature_expectation,
)

__version__ = "0.1.0"
