"""The public API: ``minfer.__all__`` names exactly these 39 names, each
one resolves on the package, the README's Library API section lists the
same names, and the removed names are gone, each with a migration line."""

import re
from pathlib import Path

import minfer

PUBLIC = [
    "AssuranceReport", "BoundaryTheta", "CorroborationCurve", "DegenerateVariance",
    "EmptyLevelSet", "LevelSet", "MatchedTable", "MinferError", "MissingTable",
    "NoQualifyingH", "NumericError", "ObservedTable", "Psi", "PsiMatched", "PsiMissing",
    "ReplicateStream", "TestResult", "ThetaInterval", "ThetaOutOfDomain", "ValidationError",
    "assurance_of_ml_region", "assurance_sweep", "asymptotic_corroboration",
    "chernoff_consistency_check", "corroboration_bootstrap", "corroboration_normal",
    "corroboration_normal_curve", "corroboration_test", "default_grid", "level_set",
    "max_corroboration_set", "mcar_curve", "ml_region", "mle_psi", "profile_curve",
    "reports_to_csv", "select_h", "theta_interval", "validate",
]

REMOVED = ["EmptySample", "InconsistentTotals", "NegativeCount", "mcar_log_lik",
           "profile_log_lik", "profile_lr", "standardize"]

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(heading: str) -> str:
    # the text under ``heading`` up to the next heading
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#", text, maxsplit=1)[0]


def test_public_names():
    assert len(PUBLIC) == 39
    assert sorted(minfer.__all__) == PUBLIC


def test_each_name_resolves():
    namespace: dict = {}
    exec("from minfer import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(minfer, name)


def test_readme_lists_the_public_names():
    # sorted, not as a set, so a name listed twice fails too
    assert sorted(re.findall(r"`(\w+)`", _readme_section("## Library API"))) == PUBLIC


def test_removed_names_are_gone_and_documented():
    migrations = _readme_section("### Removed names")
    for name in REMOVED:
        assert not hasattr(minfer, name)
        assert f"`{name}" in migrations
    assert not hasattr(minfer.CorroborationCurve, "to_csv_text")
