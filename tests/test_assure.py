import io

import numpy as np
import pytest

import minfer as m
from minfer import assure
from minfer.corroborate import bounds_batch_from_rng, coverage_share
from minfer.sampling import replicate_rngs

COARSE_GRID = np.linspace(0.0, 1.0, 201)


class TestStructure:
    def test_report_well_formed_missing(self, trial):
        report = m.assurance_bootstrap(
            trial, h=0.05, B_outer=50, master_seed=1, grid=COARSE_GRID
        )
        assert report.inner_method == "normal"
        assert 0.0 <= report.L_bar <= report.U_bar <= 1.0
        assert report.tau_hat * report.B_outer == round(report.tau_hat * report.B_outer)

    def test_report_well_formed_matched(self):
        data = m.MatchedTable(30, 100, 40, 120)
        report = m.assurance_bootstrap(
            data, h=0.05, B_outer=50, inner_B=200, master_seed=2, grid=COARSE_GRID
        )
        assert report.inner_method == "bootstrap"
        assert report.inner_B == 200
        assert 0.0 <= report.tau_hat <= 1.0

    def test_normal_inner_rejected_for_matched(self):
        data = m.MatchedTable(30, 100, 40, 120)
        with pytest.raises(m.ValidationError):
            m.assurance_bootstrap(data, h=0.05, B_outer=10, inner_method="normal")

    def test_bad_h_rejected(self, trial):
        with pytest.raises(m.ValidationError):
            m.assurance_bootstrap(trial, h=1.0, B_outer=10)
        with pytest.raises(m.ValidationError):
            m.assurance_bootstrap(trial, h=-0.01, B_outer=10)

    def test_no_evidence_table_degenerates_cleanly(self):
        # all mass on the observed-zero column: every replicate set is the
        # single point 0, so the strict inequality zeroes the assurance
        data = m.MissingTable(0, 30, 0)
        report = m.assurance_bootstrap(
            data, h=0.0, B_outer=40, master_seed=3, grid=COARSE_GRID
        )
        assert report.tau_hat == 0.0
        assert report.singleton_count == 40
        assert report.L_bar == report.U_bar == 0.0

    def test_grid_must_cover_plugin_region(self, trial):
        # the plug-in region of 32,54,24 is [32/110, 56/110]
        for grid in (np.linspace(0.6, 1.0, 41), np.linspace(0.0, 0.5, 51)):
            with pytest.raises(m.ValidationError):
                m.assurance_sweep(trial, [0.1], B_outer=5, grid=grid)

    def test_degenerate_variance_falls_back_to_bootstrap(self):
        # l11 = 0.1 with n = 10: about a third of the replicates estimate
        # l11 = 0 and cannot use the normal curve
        data = m.MissingTable(1, 5, 4)
        report = m.assurance_bootstrap(
            data, h=0.05, B_outer=120, inner_B=300, master_seed=4, grid=COARSE_GRID
        )
        assert report.fallback_count > 0
        assert report.inner_B == 300
        assert 0.0 <= report.tau_hat <= 1.0


class TestSweep:
    def test_monotone_tradeoff(self, trial):
        B_outer = 400
        hs = [0.01, 0.06, 0.4, 0.8]
        reports = m.assurance_sweep(
            trial, hs, B_outer=B_outer, master_seed=5, grid=COARSE_GRID
        )
        slack = 2.0 / np.sqrt(B_outer)
        for small, big in zip(reports, reports[1:]):
            assert big.tau_hat <= small.tau_hat + slack
            assert big.U_bar - big.L_bar >= small.U_bar - small.L_bar - 1e-12

    def test_sweep_matches_single_h(self, trial):
        sweep = m.assurance_sweep(
            trial, [0.02, 0.1], B_outer=60, master_seed=6, grid=COARSE_GRID
        )
        single = m.assurance_bootstrap(
            trial, 0.1, B_outer=60, master_seed=6, grid=COARSE_GRID
        )
        assert sweep[1].tau_hat == single.tau_hat
        assert sweep[1].L_bar == single.L_bar

    def test_threads_do_not_change_results(self, trial):
        kwargs = dict(B_outer=80, master_seed=7, grid=COARSE_GRID)
        serial = m.assurance_sweep(trial, [0.01, 0.3], threads=1, **kwargs)
        threaded = m.assurance_sweep(trial, [0.01, 0.3], threads=4, **kwargs)
        for a, b in zip(serial, threaded):
            assert a == b


def _unshared_sweep(data, hs, B_outer, inner_B, master_seed):
    """(tau_hat, L_bar, U_bar) per h, the fallback count and the number of
    distinct tables with a normal curve, every outer replicate on its own
    inner curve: the sweep without sharing between replicates that draw
    the same table."""
    psi_hat, n, grid = m.mle_psi(data), data.n, m.default_grid()
    region = m.ml_region(data)
    sets, fallbacks, normal_tables = [], 0, set()
    for rng in replicate_rngs(master_seed, B_outer):
        cells = psi_hat.draw(rng, n)
        psi_b = psi_hat.from_cells(cells, n)
        try:
            curve = m.corroboration_normal_curve(psi_b, n, grid)
            normal_tables.add(tuple(cells))
        except m.DegenerateVariance:
            fallbacks += 1
            lo, up = bounds_batch_from_rng(psi_b, n, inner_B, rng)
            curve = m.CorroborationCurve(grid, coverage_share(lo, up, grid), "bootstrap",
                                         psi_b, n, B=inner_B)
        sets.append([m.max_corroboration_set(curve, h).interval for h in hs])
    rows = []
    for i in range(len(hs)):
        lo = np.array([row[i].lower for row in sets])
        up = np.array([row[i].upper for row in sets])
        hits = (region.lower <= lo) & (lo < up) & (up <= region.upper)
        rows.append((np.count_nonzero(hits) / B_outer, np.sum(lo) / B_outer, np.sum(up) / B_outer))
    return rows, fallbacks, len(normal_tables)


class TestNormalCurveSharing:
    @pytest.mark.parametrize("cells", [(32, 54, 24), (3, 40, 1)])
    def test_same_reports_as_unshared_curves(self, cells, monkeypatch):
        # (3, 40, 1): ~40% of replicates have a zero cell and fall back to a
        # bootstrap on their own stream, which no other replicate may reuse
        data = m.MissingTable(*cells)
        hs = [0.0, 0.01, 0.3]
        expected, fallbacks, distinct = _unshared_sweep(data, hs, 300, 50, 4)
        calls = []

        def counting(psi, n, grid):
            calls.append(psi)
            return m.corroboration_normal_curve(psi, n, grid)

        monkeypatch.setattr(assure, "corroboration_normal_curve", counting)
        reports = m.assurance_sweep(data, hs, B_outer=300, inner_B=50, master_seed=4)
        assert [(r.tau_hat, r.L_bar, r.U_bar) for r in reports] == expected
        assert reports[0].fallback_count == fallbacks
        # one curve per distinct table; a degenerate table is tried each time
        assert len(calls) == distinct + fallbacks < 300


class TestMlRegionAssurance:
    def test_moderate_assurance_on_running_example(self, trial):
        report = m.assurance_of_ml_region(trial, B_outer=2000, master_seed=0)
        assert report.h is None
        assert report.inner_method == "ml_region"
        assert report.tau_hat == pytest.approx(0.19, abs=0.04)
        assert report.L_bar == pytest.approx(0.29, abs=0.02)
        assert report.U_bar == pytest.approx(0.51, abs=0.02)

    def test_point_region_counts_singletons(self):
        data = m.MissingTable(5, 5, 0)
        report = m.assurance_of_ml_region(data, B_outer=50, master_seed=1)
        assert report.singleton_count == 50
        assert report.tau_hat == 0.0

    def test_doubling_replicates_is_stable(self, trial):
        a = m.assurance_of_ml_region(trial, B_outer=2000, master_seed=8)
        b = m.assurance_of_ml_region(trial, B_outer=4000, master_seed=8)
        assert abs(a.tau_hat - b.tau_hat) < 2.0 / np.sqrt(2000)


class TestSelectH:
    def test_running_example_choice(self, trial):
        chosen, report = m.select_h(
            trial, tau_min=0.90, candidates=[0.0, 0.01, 0.06, 0.40, 0.80],
            B_outer=400, master_seed=9, grid=COARSE_GRID,
        )
        assert chosen == 0.01
        assert report.tau_hat >= 0.90

    def test_zero_threshold_takes_largest(self, trial):
        chosen, _ = m.select_h(
            trial, tau_min=0.0, candidates=[0.01, 0.2, 0.5],
            B_outer=40, master_seed=10, grid=COARSE_GRID,
        )
        assert chosen == 0.5

    def test_impossible_threshold(self, trial):
        with pytest.raises(m.NoQualifyingH):
            m.select_h(
                trial, tau_min=1.01, candidates=[0.01, 0.2],
                B_outer=40, master_seed=11, grid=COARSE_GRID,
            )

    def test_unsorted_candidates_rejected(self, trial):
        with pytest.raises(m.ValidationError):
            m.select_h(trial, tau_min=0.5, candidates=[0.2, 0.1], B_outer=10)

    def test_empty_candidates_rejected(self, trial):
        with pytest.raises(m.ValidationError):
            m.select_h(trial, tau_min=0.5, candidates=[], B_outer=10)


class TestCsvExport:
    def test_row_format(self, trial):
        reports = m.assurance_sweep(
            trial, [0.05, 0.3], B_outer=30, master_seed=12, grid=COARSE_GRID
        )
        buffer = io.StringIO()
        m.reports_to_csv(reports, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "h,tau,L_bar,U_bar"
        assert len(lines) == 3
        assert lines[1].startswith("0.050000,")
        for line in lines[1:]:
            assert len(line.split(",")) == 4

    def test_writes_to_path(self, trial, tmp_path):
        reports = m.assurance_sweep(
            trial, [0.05, 0.3], B_outer=30, master_seed=12, grid=COARSE_GRID
        )
        buffer = io.StringIO()
        m.reports_to_csv(reports, buffer)
        m.reports_to_csv(reports, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text(encoding="utf-8") == buffer.getvalue()
