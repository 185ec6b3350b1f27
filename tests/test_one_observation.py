"""Every estimator on tables of one observation per sample (n = 1).

The MLE of such a table has cells 0 and 1 only, so every bootstrap
replicate redraws the observed table: each replicate's plug-in region is
the observed one, and the bootstrap curve is its indicator. The normal
approximation is undefined there (l11 is 0 or 1) and raises the
documented ``DegenerateVariance``. Nothing else may raise, and any numpy
warning fails the test.
"""

import pytest

import minfer as m
from minfer.corroborate import corroboration_curve

pytestmark = pytest.mark.filterwarnings("error")

TABLES = [([1, 0, 0], "missing"), ([0, 1, 0], "missing"), ([0, 0, 1], "missing"),
          ([0, 1, 0, 1], "matched"), ([1, 1, 1, 1], "matched")]
CASES = [(counts, setting, method) for counts, setting in TABLES
         for method in (("normal", "bootstrap") if setting == "missing" else ("bootstrap",))]
IDS = [f"{setting}-{''.join(map(str, counts))}-{method}" for counts, setting, method in CASES]
THETAS = [0.0, 0.25, 0.5, 1.0]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    counts, setting, method = request.param
    return m.validate(counts, setting), method


def _indicator(region, thetas):
    return [1.0 if region.contains(t) else 0.0 for t in thetas]


def test_corroboration_test(case):
    data, method = case
    region = m.ml_region(data)
    if method == "normal":
        with pytest.raises(m.DegenerateVariance):
            m.corroboration_test(data, 0.5, method=method)
        return
    results = [m.corroboration_test(data, t, method=method, B=50, master_seed=1) for t in THETAS]
    assert [r.observed_corroboration for r in results] == _indicator(region, THETAS)
    for theta, result in zip(THETAS, results):
        assert result.observed_power == 1.0 - result.observed_corroboration
        expected_T = ("boundary" if theta in (region.lower, region.upper)
                      else 1 if region.strictly_inside(theta) else 0)
        assert result.T == expected_T


def test_level_and_max_sets(case):
    data, method = case
    region = m.ml_region(data)
    psi = m.mle_psi(data)
    if method == "normal":
        with pytest.raises(m.DegenerateVariance):
            corroboration_curve(psi, data.sizes, method=method)
        return
    curve = corroboration_curve(psi, data.sizes, method=method, B=50, master_seed=2)
    assert curve.values.tolist() == _indicator(region, curve.grid)
    sets = [m.max_corroboration_set(curve, 0.0), m.max_corroboration_set(curve, 0.2),
            m.level_set(curve, 0.5), m.level_set(curve, 1.0)]
    assert [s.interval for s in sets] == [region] * 4


def test_assurance_sweep(case):
    data, method = case
    region = m.ml_region(data)
    reports = m.assurance_sweep(data, [0.0, 0.1], B_outer=20, inner_method=method, inner_B=30,
                                master_seed=3)
    for report in reports:
        # every replicate's sets are the observed plug-in region
        assert (report.L_bar, report.U_bar) == (region.lower, region.upper)
        assert report.tau_hat == (1.0 if region.width > 0.0 else 0.0)
        assert report.singleton_count == (0 if region.width > 0.0 else 20)
        # a degenerate normal inner curve falls back to the nested bootstrap
        assert report.fallback_count == (20 if method == "normal" else 0)
        assert report.inner_B == 30


@pytest.mark.parametrize("counts, setting", TABLES)
def test_assurance_of_ml_region(counts, setting):
    data = m.validate(counts, setting)
    region = m.ml_region(data)
    report = m.assurance_of_ml_region(data, B_outer=20, master_seed=4)
    assert (report.L_bar, report.U_bar) == (region.lower, region.upper)
    assert report.tau_hat == (1.0 if region.width > 0.0 else 0.0)
