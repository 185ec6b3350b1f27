import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minfer as m
from minfer import corroborate, ctest
from minfer.corroborate import (
    bounds_batch_streams,
    corroboration_bootstrap,
    corroboration_normal_curve,
)
from oracles import exact_missing_curve, share_tolerance
from test_corroborate import missing_tables


class TestRunningExample:
    def test_reject_below_region(self, trial):
        result = m.corroboration_test(trial, 0.2, method="normal")
        assert result.T == 0
        assert result.decision == "reject_HA"
        assert result.observed_power == pytest.approx(0.982, abs=2e-3)
        assert result.quadrant == "support H_B"

    def test_reject_above_region(self, trial):
        result = m.corroboration_test(trial, 0.6, method="normal")
        assert result.T == 0
        assert result.decision == "reject_HA"
        assert result.observed_power == pytest.approx(0.972, abs=2e-3)

    def test_interior_not_rejected(self, trial):
        result = m.corroboration_test(trial, 0.4, method="normal")
        assert result.T == 1
        assert result.decision == "not_reject"
        assert result.observed_power == pytest.approx(0.015, abs=5e-3)
        assert result.quadrant == "support H_A"

    def test_bootstrap_method(self, trial):
        result = m.corroboration_test(trial, 0.2, method="bootstrap", B=5000, master_seed=1)
        assert result.T == 0
        # the exact expectation (B = infinity), never wider than the hand-typed 0.02
        p = exact_missing_curve(m.mle_psi(trial), trial.n, [0.2])[0]
        tolerance = min(share_tolerance(p, 5000), 0.02)
        assert result.observed_power == pytest.approx(1.0 - p, abs=tolerance)

    def test_matched_defaults_to_bootstrap(self):
        data = m.MatchedTable(10, 100, 90, 100)
        result = m.corroboration_test(data, 0.5, B=1000, master_seed=2)
        assert result.T == 0
        assert result.observed_power > 0.9


class TestInvariants:
    def test_power_complements_corroboration(self, trial):
        for theta in (0.1, 0.3, 0.45, 0.62, 0.9):
            result = m.corroboration_test(trial, theta, method="normal")
            assert result.observed_power == 1.0 - result.observed_corroboration

    def test_monotone_power_away_from_maximizer(self, trial):
        grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
        powers = np.array(
            [m.corroboration_test(trial, float(t), method="normal").observed_power for t in grid]
        )
        best = int(np.argmin(powers))
        assert np.all(np.diff(powers[: best + 1]) <= 1e-6)
        assert np.all(np.diff(powers[best:]) >= -1e-6)

    def test_boundary_is_indeterminate(self, trial):
        region = m.ml_region(trial)
        result = m.corroboration_test(trial, region.lower, method="normal")
        assert result.T == "boundary"
        assert result.decision == "indeterminate"
        assert result.quadrant == "indeterminate"

    def test_out_of_domain(self, trial):
        with pytest.raises(m.ThetaOutOfDomain):
            m.corroboration_test(trial, 1.2)

    def test_rejected_with_low_power_supports_neither(self, trial):
        # B = 1: the lone replicate's region covers 0.28, below the observed
        # region [32/110, 56/110]
        result = m.corroboration_test(trial, 0.28, method="bootstrap", B=1, master_seed=2)
        assert (result.T, result.decision) == (0, "reject_HA")
        assert result.observed_corroboration == 1.0
        assert result.quadrant == ctest.QUADRANT_NEITHER

    def test_not_rejected_with_high_power_supports_neither(self):
        # n = 3: just inside the region [1/3, 2/3] the corroboration stays low
        data = m.validate([1, 1, 1], "missing")
        result = m.corroboration_test(data, 0.34, method="normal")
        assert (result.T, result.decision) == (1, "not_reject")
        assert result.observed_corroboration == pytest.approx(0.414, abs=1e-3)
        assert result.quadrant == ctest.QUADRANT_NEITHER

    def test_json_payload_shape(self, trial):
        payload = dataclasses.asdict(m.corroboration_test(trial, 0.2, method="normal"))
        assert set(payload) == {
            "theta_star", "T", "observed_corroboration", "observed_power",
            "decision", "quadrant",
        }


# unsorted, with a repeat and the plug-in lower bound 32/110 of the trial
THETAS = [0.6, 0.2, 0.3, 0.2, 32 / 110, 0.5]


class TestManyThetas:
    def test_normal_equals_one_theta_at_a_time(self, trial):
        many = ctest.corroboration_tests(trial, THETAS, method="normal")
        assert many == [m.corroboration_test(trial, t, method="normal") for t in THETAS]

    @pytest.mark.parametrize("counts, setting", [((32, 54, 24), "missing"),
                                                 ((30, 100, 40, 120), "matched")])
    def test_bootstrap_shares_one_replicate_set(self, counts, setting):
        data = m.validate(list(counts), setting)
        many = ctest.corroboration_tests(data, THETAS, method="bootstrap", B=700, master_seed=3)
        corroborate._bounds_batch.cache_clear()  # a fresh draw, not the curve's kept batch
        lo, up = bounds_batch_streams(m.mle_psi(data), data.sizes, 700, 3)
        assert [r.observed_corroboration for r in many] == [
            np.count_nonzero((lo <= t) & (t <= up)) / 700 for t in THETAS
        ]
        assert many == [
            m.corroboration_test(data, t, method="bootstrap", B=700, master_seed=3) for t in THETAS
        ]

    def test_bootstrap_draws_once(self, trial, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return corroboration_bootstrap(*args, **kwargs)

        monkeypatch.setattr(corroborate, "corroboration_bootstrap", counting)
        ctest.corroboration_tests(trial, THETAS, method="bootstrap", B=200)
        assert len(calls) == 1

    def test_normal_evaluates_one_curve(self, trial, monkeypatch):
        grids = []

        def counting(psi, n, grid=None):
            grids.append(grid.tolist())
            return corroboration_normal_curve(psi, n, grid)

        monkeypatch.setattr(corroborate, "corroboration_normal_curve", counting)
        ctest.corroboration_tests(trial, THETAS, method="normal")
        assert grids == [sorted(set(THETAS))]

    @pytest.mark.parametrize("method", ["normal", "bootstrap"])
    def test_every_theta_checked_before_any_draw(self, trial, method, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking every theta")

        monkeypatch.setattr(corroborate, "corroboration_bootstrap", no_draw)
        monkeypatch.setattr(corroborate, "corroboration_normal_curve", no_draw)
        with pytest.raises(m.ThetaOutOfDomain, match="1.5"):
            ctest.corroboration_tests(trial, [0.2, 0.3, 1.5], method=method)

    def test_no_thetas(self, trial):
        assert ctest.corroboration_tests(trial, [], method="bootstrap") == []

    @pytest.mark.parametrize("data, kwargs, match", [
        (m.MissingTable(1, 2, 3), {"B": 0}, "^B = 0 must be at least 1$"),
        (m.MissingTable(1, 2, 3), {"B": 2.5}, "^B = 2.5 must be an integer$"),
        (m.MissingTable(1, 2, 3), {"master_seed": -1}, "^master_seed = -1 must be at least 0$"),
        (m.MissingTable(1, 2, 3), {"method": "exact"}, "unknown method"),
        (m.MatchedTable(1, 2, 3, 4), {"method": "normal"}, "missing-data setting only"),
    ])
    def test_no_thetas_checks_every_argument(self, data, kwargs, match):
        # an empty list returned [] before B, the seed or the method was checked
        with pytest.raises(m.ValidationError, match=match):
            ctest.corroboration_tests(data, [], **kwargs)

    @settings(max_examples=100, deadline=None)
    @given(cells=missing_tables(), data=st.data())
    def test_normal_reads_one_curve(self, cells, data):
        # unsorted theta_stars with repeats read the normal curve on the
        # distinct ones, bit for bit; a one-theta call differs at most in the
        # last bit (Genz's quadrature sum is a dot product on one point and a
        # matrix-vector product on several)
        distinct = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True))
        repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=4))
        thetas = data.draw(st.permutations(distinct + repeats))
        table = m.MissingTable(*cells)
        try:
            curve = m.corroboration_normal_curve(m.mle_psi(table), table.n, np.unique(thetas))
        except m.DegenerateVariance:
            with pytest.raises(m.DegenerateVariance):
                ctest.corroboration_tests(table, thetas, method="normal")
            return
        value = dict(zip(curve.grid.tolist(), curve.values.tolist()))
        results = ctest.corroboration_tests(table, thetas, method="normal")
        assert [r.observed_corroboration for r in results] == [value[t] for t in thetas]
        for theta, result in zip(thetas, results):
            alone = m.corroboration_test(table, theta, method="normal")
            assert abs(alone.observed_corroboration - result.observed_corroboration) <= 1e-15


class TestChernoffConsistency:
    PSI0 = m.PsiMissing(0.3, 0.5, 0.2)

    def test_interior_rejection_vanishes(self):
        rates = m.chernoff_consistency_check(
            self.PSI0, 0.4, n_schedule=[100, 1000, 10_000, 100_000], reps=500, master_seed=3
        )
        values = [rate for _, rate in rates]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.01

    def test_exterior_rejection_saturates(self):
        rates = m.chernoff_consistency_check(
            self.PSI0, 0.9, n_schedule=[100, 1000, 10_000, 100_000], reps=500, master_seed=4
        )
        values = [rate for _, rate in rates]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.99

    def test_matched_setting(self):
        rates = m.chernoff_consistency_check(
            m.PsiMatched(0.3, 0.3), 0.15, n_schedule=[100, 10_000], reps=400, master_seed=5
        )
        assert rates[-1][1] <= 0.01

    def test_boundary_theta_rejected(self):
        with pytest.raises(m.BoundaryTheta):
            m.chernoff_consistency_check(self.PSI0, 0.3, n_schedule=[100], reps=10)
        with pytest.raises(m.BoundaryTheta):
            m.chernoff_consistency_check(self.PSI0, 0.5, n_schedule=[100], reps=10)

    def test_bad_inputs(self):
        with pytest.raises(m.ThetaOutOfDomain):
            m.chernoff_consistency_check(self.PSI0, 1.5, n_schedule=[10], reps=10)
        with pytest.raises(m.ValidationError):
            m.chernoff_consistency_check(self.PSI0, 0.4, n_schedule=[0], reps=10)
        with pytest.raises(m.ValidationError):
            m.chernoff_consistency_check(self.PSI0, 0.4, n_schedule=[10], reps=0)

    @pytest.mark.parametrize("schedule", [[10.7, True], [10, 0], [10, True], [10, 2.0],
                                          [10, -3], [10, "20"]])
    def test_schedule_checked_before_any_batch(self, schedule, monkeypatch):
        calls = []
        monkeypatch.setattr(ctest, "bounds_batch_streams", lambda *args: calls.append(args))
        with pytest.raises(m.ValidationError, match="^n_schedule = "):
            m.chernoff_consistency_check(self.PSI0, 0.4, n_schedule=schedule, reps=10)
        assert calls == []

    def test_entry_past_the_largest_size_names_the_schedule(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ctest, "bounds_batch_streams", lambda *args: calls.append(args))
        with pytest.raises(m.ValidationError) as info:
            m.chernoff_consistency_check(self.PSI0, 0.35, [10, 2**63], reps=3)
        assert str(info.value) == f"n_schedule = {2**63} must be at most {2**63 - 1}"
        assert info.value.name == "n_schedule"
        assert calls == []

    def test_numpy_integer_entries(self):
        rates = m.chernoff_consistency_check(
            self.PSI0, 0.4, n_schedule=[np.int64(10), np.uint16(40)], reps=30, master_seed=9
        )
        expected = m.chernoff_consistency_check(self.PSI0, 0.4, [10, 40], reps=30, master_seed=9)
        assert rates == expected
        assert [type(n) for n, _ in rates] == [int, int]
