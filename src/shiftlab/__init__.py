"""shiftlab: sparse shift dynamics, coverings, criteria checkers and witnesses."""

from .seqspace import (
    L1,
    SUP,
    IndexOverflowError,
    ProductKind,
    SeqVec,
    SpaceNorm,
    basis,
    cw_root,
    norm,
    power,
    product,
)
from .weights import (
    InadmissibleParameterError,
    LipschitzProfile,
    WeightFamily,
    apply_backward_power,
    apply_forward_root_power,
    lipschitz_ratio,
    log_cum_prefix,
    log_cum_window,
)
from .covering import (
    Cell,
    Covering,
    CoveringInfeasibleError,
    GradedParams,
    LogCoveringParams,
    build_graded_covering,
    build_log_covering,
    verify_graded,
)
from .criteria import (
    CaracParams,
    CriterionReport,
    UnifParams,
    check_basic_criterion,
    check_carac_conditions,
    check_corollary_hypotheses,
    check_unif_hypotheses,
)
from .witness import (
    BruteForceBudgetError,
    SupportCollisionError,
    Witness,
    WitnessConfig,
    WitnessEval,
    build_witness,
    eval_analytic,
    eval_bruteforce,
    sweep_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "L1", "SUP", "IndexOverflowError", "ProductKind", "SeqVec", "SpaceNorm",
    "basis", "cw_root", "norm", "power", "product",
    "InadmissibleParameterError", "LipschitzProfile", "WeightFamily",
    "apply_backward_power", "apply_forward_root_power", "lipschitz_ratio",
    "log_cum_prefix", "log_cum_window",
    "Cell", "Covering", "CoveringInfeasibleError", "GradedParams",
    "LogCoveringParams", "build_graded_covering", "build_log_covering",
    "verify_graded",
    "CaracParams", "CriterionReport", "UnifParams", "check_basic_criterion",
    "check_carac_conditions", "check_corollary_hypotheses", "check_unif_hypotheses",
    "BruteForceBudgetError", "SupportCollisionError", "Witness", "WitnessConfig",
    "WitnessEval", "build_witness", "eval_analytic", "eval_bruteforce", "sweep_sigma",
]
