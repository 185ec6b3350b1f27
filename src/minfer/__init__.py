"""Inference for incomplete 2x2 tables whose target parameter is only
interval-identified.

The package covers two observation schemes: a binary outcome subject to
missingness, and two binary variables observed in separate samples
(statistical matching). For both it provides identification bounds,
profile likelihoods (missing data), corroboration curves with their level
sets, high-assurance estimation of the identification region, and the
corroboration test, plus seeded simulation of either observed-data law.
"""

from .assure import (
    AssuranceReport,
    assurance_of_ml_region,
    assurance_sweep,
    reports_to_csv,
    select_h,
)
from .corroborate import (
    CorroborationCurve,
    LevelSet,
    asymptotic_corroboration,
    corroboration_bootstrap,
    corroboration_normal,
    corroboration_normal_curve,
    default_grid,
    level_set,
    max_corroboration_set,
)
from .ctest import TestResult, chernoff_consistency_check, corroboration_test
from .errors import (
    BoundaryTheta,
    DegenerateVariance,
    EmptyLevelSet,
    EmptySample,
    InconsistentTotals,
    MinferError,
    NegativeCount,
    NoQualifyingH,
    NumericError,
    ThetaOutOfDomain,
    ValidationError,
)
from .identify import ThetaInterval, ml_region, theta_interval
from .likelihood import (
    mcar_curve,
    mcar_log_lik,
    profile_curve,
    profile_log_lik,
    profile_lr,
    standardize,
)
from .model import (
    MatchedTable,
    MissingTable,
    ObservedTable,
    Psi,
    PsiMatched,
    PsiMissing,
    mle_psi,
    validate,
)
from .sampling import ReplicateStream, SimTruth, derive_seed, draw_complete, draw_observed

__version__ = "0.1.0"

__all__ = [
    "AssuranceReport",
    "BoundaryTheta",
    "CorroborationCurve",
    "DegenerateVariance",
    "EmptyLevelSet",
    "EmptySample",
    "InconsistentTotals",
    "LevelSet",
    "MatchedTable",
    "MinferError",
    "MissingTable",
    "NegativeCount",
    "NoQualifyingH",
    "NumericError",
    "ObservedTable",
    "Psi",
    "PsiMatched",
    "PsiMissing",
    "ReplicateStream",
    "SimTruth",
    "TestResult",
    "ThetaInterval",
    "ThetaOutOfDomain",
    "ValidationError",
    "assurance_of_ml_region",
    "assurance_sweep",
    "asymptotic_corroboration",
    "chernoff_consistency_check",
    "corroboration_bootstrap",
    "corroboration_normal",
    "corroboration_normal_curve",
    "corroboration_test",
    "default_grid",
    "derive_seed",
    "draw_complete",
    "draw_observed",
    "level_set",
    "max_corroboration_set",
    "mcar_curve",
    "mcar_log_lik",
    "ml_region",
    "mle_psi",
    "profile_curve",
    "profile_log_lik",
    "profile_lr",
    "reports_to_csv",
    "select_h",
    "standardize",
    "theta_interval",
    "validate",
]
