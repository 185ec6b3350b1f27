"""Inference for incomplete 2x2 tables whose target parameter is only
interval-identified.

The package covers two observation schemes: a binary outcome subject to
missingness, and two binary variables observed in separate samples
(statistical matching). For both it provides identification bounds,
profile likelihoods (missing data), corroboration curves with their level
sets, high-assurance estimation of the identification region, and the
corroboration test; every Monte Carlo estimate is seeded and reproducible.

Start-up: when this package imports numpy itself (numpy not yet imported,
``OPENBLAS_THREAD_TIMEOUT`` not set by the caller), it sets that variable
to 4 while ``import numpy`` runs and removes it afterwards. OpenBLAS then
lets its idle worker threads spin 2**4 cycles before they sleep instead of
its default 2**28 (tens of milliseconds of CPU per process), and minfer's
small matrix products never hand those workers any work. The thread count
and the results are unchanged, and ``os.environ`` and child processes see
the environment as the caller left it.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    # OpenBLAS reads the variable once, when numpy loads it
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

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
    MinferError,
    NoQualifyingH,
    NumericError,
    ThetaOutOfDomain,
    ValidationError,
)
from .identify import ThetaInterval, ml_region, theta_interval
from .likelihood import mcar_curve, profile_curve
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
from .sampling import ReplicateStream

__version__ = "0.1.0"

__all__ = [
    "AssuranceReport",
    "BoundaryTheta",
    "CorroborationCurve",
    "DegenerateVariance",
    "EmptyLevelSet",
    "LevelSet",
    "MatchedTable",
    "MinferError",
    "MissingTable",
    "NoQualifyingH",
    "NumericError",
    "ObservedTable",
    "Psi",
    "PsiMatched",
    "PsiMissing",
    "ReplicateStream",
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
    "level_set",
    "max_corroboration_set",
    "mcar_curve",
    "ml_region",
    "mle_psi",
    "profile_curve",
    "reports_to_csv",
    "select_h",
    "theta_interval",
    "validate",
]
