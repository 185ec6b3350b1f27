"""The public API: ``minfer.__all__`` names exactly these 46 names, and
each one resolves on the package."""

import minfer

PUBLIC = [
    "AssuranceReport", "BoundaryTheta", "CorroborationCurve", "DegenerateVariance",
    "EmptyLevelSet", "EmptySample", "InconsistentTotals", "LevelSet", "MatchedTable",
    "MinferError", "MissingTable", "NegativeCount", "NoQualifyingH", "NumericError",
    "ObservedTable", "Psi", "PsiMatched", "PsiMissing", "ReplicateStream", "TestResult",
    "ThetaInterval", "ThetaOutOfDomain", "ValidationError", "assurance_of_ml_region",
    "assurance_sweep", "asymptotic_corroboration", "chernoff_consistency_check",
    "corroboration_bootstrap", "corroboration_normal", "corroboration_normal_curve",
    "corroboration_test", "default_grid", "level_set", "max_corroboration_set",
    "mcar_curve", "mcar_log_lik", "ml_region", "mle_psi", "profile_curve",
    "profile_log_lik", "profile_lr", "reports_to_csv", "select_h", "standardize",
    "theta_interval", "validate",
]


def test_public_names():
    assert len(PUBLIC) == 46
    assert sorted(minfer.__all__) == PUBLIC


def test_each_name_resolves():
    namespace: dict = {}
    exec("from minfer import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(minfer, name)
