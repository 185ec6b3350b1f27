"""The public API: ``minfer.__all__`` names exactly these 39 names, each
one resolves on the package, the README's Library API section lists the
same names, and the removed names are gone, each with a migration line."""

import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for cls, method in ((minfer.CorroborationCurve, "to_csv_text"),
                        (minfer.AssuranceReport, "to_dict"), (minfer.TestResult, "to_dict")):
        assert not hasattr(cls, method)
        assert f"`{cls.__name__}.{method}()`" in migrations


# --- hostile values: every entry point raises only MinferError subclasses

HOSTILE = [float("nan"), float("inf"), float("-inf"), 0, -1, 2**63, 10**20, 1e-300]
# grids: empty, NaN, a step of 1e-300, and a step of 1e-300 that leaves [0, 1]
HOSTILE_GRIDS = [np.array([]), np.array([np.nan]), np.array([0.0, 1e-300, 2e-300]),
                 np.array([1.0, 1.0 + 1e-300]), np.array([-1e-300, 0.0])]
MISSING, MATCHED = minfer.MissingTable(32, 54, 24), minfer.MatchedTable(30, 100, 40, 120)
PSI_MISSING, PSI_MATCHED = minfer.PsiMissing(0.3, 0.5, 0.2), minfer.PsiMatched(0.3, 0.5)
GRID = np.linspace(0.0, 1.0, 11)
CURVE = minfer.CorroborationCurve(GRID, np.full(11, 0.5), "bootstrap", PSI_MISSING, 110, B=10)
SWEEP = dict(B_outer=4, inner_B=10, master_seed=0, threads=1)

# each entry point with valid values of its numeric parameters (numbers,
# lists of numbers, grids), kept tiny so that a call takes milliseconds;
# select_h passes the sweep's keywords on
CASES = {
    "AssuranceReport": (minfer.AssuranceReport, dict(
        h=0.1, tau_hat=0.5, L_bar=0.2, U_bar=0.6, B_outer=4, inner_method="normal",
        inner_B=None, master_seed=0, singleton_count=0, fallback_count=0)),
    "CorroborationCurve": (minfer.CorroborationCurve, dict(
        grid=GRID, values=np.full(11, 0.5), method="bootstrap", psi_at=PSI_MISSING,
        sizes=110, B=10, master_seed=0)),
    "MatchedTable": (minfer.MatchedTable, dict(nx=30, n1=100, ny=40, n2=120)),
    "MissingTable": (minfer.MissingTable, dict(n11=32, n01=54, n_plus0=24)),
    "PsiMatched": (minfer.PsiMatched, dict(l1p=0.3, lp1=0.5)),
    "PsiMissing": (minfer.PsiMissing, dict(l11=0.3, l01=0.5, l_plus0=0.2)),
    "ReplicateStream": (lambda **kw: minfer.ReplicateStream(**kw).rng(),
                        dict(master_seed=0, replicate_index=3)),
    "ThetaInterval": (minfer.ThetaInterval, dict(lower=0.2, upper=0.6)),
    "assurance_of_ml_region": (minfer.assurance_of_ml_region,
                               dict(data=MISSING, B_outer=4, master_seed=0)),
    "assurance_sweep": (minfer.assurance_sweep, dict(data=MISSING, h_list=[0.0, 0.1], **SWEEP)),
    "assurance_sweep/matched": (minfer.assurance_sweep,
                                dict(data=MATCHED, h_list=[0.0, 0.1], **SWEEP)),
    "asymptotic_corroboration": (minfer.asymptotic_corroboration,
                                 dict(psi=PSI_MISSING, theta=0.3)),
    "chernoff_consistency_check": (minfer.chernoff_consistency_check, dict(
        psi0=PSI_MISSING, theta_star=0.35, n_schedule=[10, 40], reps=10, master_seed=0)),
    "chernoff_consistency_check/matched": (minfer.chernoff_consistency_check, dict(
        psi0=PSI_MATCHED, theta_star=0.05, n_schedule=[10, 40], reps=10, master_seed=0)),
    "corroboration_bootstrap": (minfer.corroboration_bootstrap,
                                dict(psi=PSI_MISSING, sizes=110, grid=GRID, B=10, master_seed=0)),
    "corroboration_bootstrap/matched": (minfer.corroboration_bootstrap, dict(
        psi=PSI_MATCHED, sizes=[20, 30], grid=GRID, B=10, master_seed=0)),
    "corroboration_normal": (minfer.corroboration_normal, dict(psi=PSI_MISSING, n=110, theta=0.3)),
    "corroboration_normal_curve": (minfer.corroboration_normal_curve,
                                   dict(psi=PSI_MISSING, n=110, grid=GRID)),
    "corroboration_test": (minfer.corroboration_test, dict(
        data=MISSING, theta_star=0.3, method="bootstrap", B=10, master_seed=0)),
    "corroboration_test/matched": (minfer.corroboration_test,
                                   dict(data=MATCHED, theta_star=0.3, B=10, master_seed=0)),
    "level_set": (minfer.level_set, dict(curve=CURVE, alpha=0.5)),
    "max_corroboration_set": (minfer.max_corroboration_set, dict(curve=CURVE, h=0.1)),
    "mcar_curve": (minfer.mcar_curve, dict(data=MISSING, grid=GRID)),
    "profile_curve": (minfer.profile_curve, dict(data=MISSING, grid=GRID)),
    "select_h": (minfer.select_h, dict(data=MISSING, tau_min=0.5, candidates=[0.01, 0.1],
                                       grid=GRID, **SWEEP)),
    "validate": (minfer.validate, dict(raw_counts=[32, 54, 24], setting="missing")),
}
# entry points that take no number: tables, parameters and curves come
# checked from the constructors above, and a level set or a test result
# only records values
NO_NUMBERS = {"LevelSet", "ObservedTable", "Psi", "TestResult", "default_grid", "ml_region",
              "mle_psi", "reports_to_csv", "theta_interval"}


def _hostile_for(value):
    """Hostile stand-ins for one valid value of the same kind: a number, a
    list (empty, or one hostile entry among valid ones) or a grid."""
    if isinstance(value, np.ndarray):
        return HOSTILE_GRIDS
    if isinstance(value, list):
        return [[], *([*value[:-1], bad] for bad in HOSTILE)]
    return HOSTILE


# (case, {parameter: hostile values}) for each case's numeric parameters
HOSTILE_PARAMETERS = [
    (case, {name: _hostile_for(value) for name, value in kwargs.items()
            if isinstance(value, (int, float, list, np.ndarray)) and not isinstance(value, bool)})
    for case, (_, kwargs) in CASES.items()
]


def _call(case, hostile):
    # the case's valid call with some values replaced: it may return or
    # raise a MinferError, and nothing else
    function, kwargs = CASES[case]
    try:
        function(**{**kwargs, **hostile})
    except minfer.MinferError:
        pass


def test_every_entry_point_has_a_case():
    callables = {name for name in PUBLIC
                 if not (isinstance(getattr(minfer, name), type)
                         and issubclass(getattr(minfer, name), BaseException))}
    assert {case.split("/")[0] for case in CASES} | NO_NUMBERS == callables
    assert not NO_NUMBERS & set(CASES)


def test_each_hostile_value_raises_only_minfer_errors():
    # every single replacement; found: an empty sizes list reached the draw,
    # and an empty grid the likelihood curves' maximum
    for case, parameters in HOSTILE_PARAMETERS:
        for name, values in parameters.items():
            for value in values:
                _call(case, {name: value})


@st.composite
def _hostile_calls(draw):
    case, parameters = draw(st.sampled_from(HOSTILE_PARAMETERS))
    names = draw(st.lists(st.sampled_from(sorted(parameters)), min_size=1, max_size=3,
                          unique=True))
    return case, {name: draw(st.sampled_from(parameters[name])) for name in names}


@settings(max_examples=300, deadline=None)
@given(call=_hostile_calls())
def test_hostile_values_together_raise_only_minfer_errors(call):
    _call(*call)
