import io
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import minfer as m
from minfer import _binomial, assure
from minfer.corroborate import bounds_batch_from_rng, coverage_share
from oracles import numpy_stream

COARSE_GRID = np.linspace(0.0, 1.0, 201)


class TestStructure:
    def test_report_well_formed_missing(self, trial):
        report = m.assurance_sweep(trial, [0.05], B_outer=50, master_seed=1, grid=COARSE_GRID)[0]
        assert report.inner_method == "normal"
        assert 0.0 <= report.L_bar <= report.U_bar <= 1.0
        assert report.tau_hat * report.B_outer == round(report.tau_hat * report.B_outer)

    def test_report_well_formed_matched(self):
        data = m.MatchedTable(30, 100, 40, 120)
        report = m.assurance_sweep(
            data, [0.05], B_outer=50, inner_B=200, master_seed=2, grid=COARSE_GRID
        )[0]
        assert report.inner_method == "bootstrap"
        assert report.inner_B == 200
        assert 0.0 <= report.tau_hat <= 1.0

    def test_normal_inner_rejected_for_matched(self):
        data = m.MatchedTable(30, 100, 40, 120)
        with pytest.raises(m.ValidationError):
            m.assurance_sweep(data, [0.05], B_outer=10, inner_method="normal")

    def test_bad_h_rejected(self, trial):
        with pytest.raises(m.ValidationError):
            m.assurance_sweep(trial, [1.0], B_outer=10)
        with pytest.raises(m.ValidationError):
            m.assurance_sweep(trial, [-0.01], B_outer=10)

    def test_no_evidence_table_degenerates_cleanly(self):
        # all mass on the observed-zero column: every replicate set is the
        # single point 0, so the strict inequality zeroes the assurance
        data = m.MissingTable(0, 30, 0)
        report = m.assurance_sweep(data, [0.0], B_outer=40, master_seed=3, grid=COARSE_GRID)[0]
        assert report.tau_hat == 0.0
        assert report.singleton_count == 40
        assert report.L_bar == report.U_bar == 0.0

    def test_grid_must_cover_plugin_region(self, trial):
        # the plug-in region of 32,54,24 is [32/110, 56/110]
        for grid in (np.linspace(0.6, 1.0, 41), np.linspace(0.0, 0.5, 51)):
            with pytest.raises(m.ValidationError):
                m.assurance_sweep(trial, [0.1], B_outer=5, grid=grid)

    @pytest.mark.parametrize("grid", [[0.0, 0.7, 0.3, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0],
                                      [0.0, 0.5, np.nan, 1.0], [-0.1, 0.5, 1.0]],
                             ids=["unsorted", "repeated", "nan", "below_zero"])
    @pytest.mark.parametrize("data,inner", [
        (m.MatchedTable(30, 100, 40, 120), None),
        (m.MissingTable(32, 54, 24), "normal"),
        (m.MissingTable(32, 54, 24), "bootstrap"),
    ], ids=["matched", "missing_normal", "missing_bootstrap"])
    def test_grid_checked_before_any_replicate(self, data, inner, grid, monkeypatch):
        # a nested-bootstrap sweep took an unsorted or repeated grid and
        # reported tau 0, L_bar = U_bar = 0 and every set a singleton
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(assure, "_replicate_counts", no_draws)
        with pytest.raises(m.ValidationError, match="strictly increasing within"):
            m.assurance_sweep(data, [0.0, 0.1], B_outer=20, inner_method=inner,
                              inner_B=50, grid=np.array(grid))

    def test_degenerate_variance_falls_back_to_bootstrap(self):
        # l11 = 0.1 with n = 10: about a third of the replicates estimate
        # l11 = 0 and cannot use the normal curve
        data = m.MissingTable(1, 5, 4)
        report = m.assurance_sweep(
            data, [0.05], B_outer=120, inner_B=300, master_seed=4, grid=COARSE_GRID
        )[0]
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
        single = m.assurance_sweep(trial, [0.1], B_outer=60, master_seed=6, grid=COARSE_GRID)[0]
        assert sweep[1].tau_hat == single.tau_hat
        assert sweep[1].L_bar == single.L_bar

    def test_threads_do_not_change_results(self, trial):
        kwargs = dict(B_outer=80, master_seed=7, grid=COARSE_GRID)
        serial = m.assurance_sweep(trial, [0.01, 0.3], threads=1, **kwargs)
        threaded = m.assurance_sweep(trial, [0.01, 0.3], threads=4, **kwargs)
        for a, b in zip(serial, threaded):
            assert a == b


MATCHED = m.MatchedTable(30, 100, 40, 120)


def _drawn_state(data, master_seed, b):
    """Replicate b's generator state after its outer table is drawn, as
    numpy's own stream gives it: the state its nested bootstrap starts at."""
    rng = numpy_stream(master_seed, b)
    m.mle_psi(data).draw(rng, data.sizes)
    return rng.bit_generator.state


@pytest.fixture
def four_cpus(monkeypatch):
    """Let the sweep see four usable CPUs and record the block count of
    each run, so a thread count above this machine's still makes blocks."""
    monkeypatch.setattr(assure, "_usable_cpus", lambda: 4)
    counts = []
    run_blocks = assure._run_blocks

    def recording(run_block, blocks):
        counts.append(len(blocks))
        run_blocks(run_block, blocks)

    monkeypatch.setattr(assure, "_run_blocks", recording)
    return counts


@pytest.fixture
def forked(monkeypatch):
    """The replicate blocks handed to forked workers, in order."""
    blocks = []
    fork_block = assure._fork_block

    def recording(run_block, block):
        blocks.append(block.tolist())
        return fork_block(run_block, block)

    monkeypatch.setattr(assure, "_fork_block", recording)
    return blocks


class TestWorkerBlocks:
    """Threaded sweeps against the serial run, compared with ``==``."""

    @pytest.mark.parametrize("B_outer", [1, 7, 61])
    def test_matched_sweep_equals_serial(self, B_outer, four_cpus):
        kwargs = dict(B_outer=B_outer, inner_B=200, master_seed=13, grid=COARSE_GRID)
        serial = m.assurance_sweep(MATCHED, [0.0, 0.02, 0.3], threads=1, **kwargs)
        for threads in (1, 2, 3):
            assert m.assurance_sweep(MATCHED, [0.0, 0.02, 0.3], threads=threads, **kwargs) == serial
        assert four_cpus == [1, 1, min(2, B_outer), min(3, B_outer)]

    def test_missing_bootstrap_inner_equals_serial(self, trial, four_cpus):
        kwargs = dict(B_outer=40, inner_method="bootstrap", inner_B=100, master_seed=14,
                      grid=COARSE_GRID)
        serial = m.assurance_sweep(trial, [0.0, 0.05], threads=1, **kwargs)
        assert m.assurance_sweep(trial, [0.0, 0.05], threads=3, **kwargs) == serial
        assert four_cpus == [1, 3]

    def test_normal_inner_stays_one_block(self, trial, four_cpus, forked):
        kwargs = dict(B_outer=40, master_seed=14, grid=COARSE_GRID)
        serial = m.assurance_sweep(trial, [0.0, 0.05], threads=1, **kwargs)
        threaded = m.assurance_sweep(trial, [0.0, 0.05], threads=4, **kwargs)
        assert threaded == serial
        assert serial[0].fallback_count == 0
        # no table degenerates: one empty block, and no worker is forked
        assert four_cpus == [1, 1]
        assert forked == []

    @pytest.mark.parametrize("cells", [(0, 30, 0), (1, 5, 4)])
    def test_fallbacks_split_across_workers(self, cells, four_cpus, forked):
        # every replicate of 0,30,0 and about a third of 1,5,4's fall back
        # to a nested bootstrap; those replicates alone are split into blocks
        data = m.MissingTable(*cells)
        kwargs = dict(B_outer=60, inner_B=100, master_seed=18, grid=COARSE_GRID)
        serial = m.assurance_sweep(data, [0.0, 0.05, 0.3], threads=1, **kwargs)
        fallbacks = serial[0].fallback_count
        assert fallbacks >= 10
        for threads in (2, 3):
            assert m.assurance_sweep(data, [0.0, 0.05, 0.3], threads=threads, **kwargs) == serial
        assert four_cpus == [1, 2, 3]
        # the second block of two, then the second and third of three
        assert [len(block) for block in forked] == [fallbacks // 2, (fallbacks + 1) // 3,
                                                    fallbacks // 3]

    def test_select_h_equals_serial(self, four_cpus):
        kwargs = dict(candidates=[0.0, 0.01, 0.06, 0.4], B_outer=30, inner_B=200,
                      master_seed=15, grid=COARSE_GRID)
        serial = m.select_h(MATCHED, 0.5, threads=1, **kwargs)
        assert m.select_h(MATCHED, 0.5, threads=2, **kwargs) == serial
        assert four_cpus == [1, 2]

    def test_more_workers_than_cores_with_fast_switching(self, four_cpus):
        # four workers on any machine, switching threads every microsecond:
        # a lost or misplaced column write would change the reports
        kwargs = dict(B_outer=61, inner_B=100, master_seed=17, grid=COARSE_GRID)
        serial = m.assurance_sweep(MATCHED, [0.0, 0.1], threads=1, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = m.assurance_sweep(MATCHED, [0.0, 0.1], threads=4, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert four_cpus == [1, 4]

    @pytest.mark.parametrize("failing", [1, 5])
    def test_worker_exception_surfaces(self, failing, monkeypatch, four_cpus):
        # B_outer = 7 on two workers: replicate 1 fails in block [0, 4),
        # replicate 5 in block [4, 7)
        class Boom(Exception):
            pass

        draw = assure.bounds_batch_from_rng
        target = _drawn_state(MATCHED, 16, failing)

        def failing_draw(psi, sizes, B, rng):
            if rng.bit_generator.state == target:
                raise Boom(failing)
            return draw(psi, sizes, B, rng)

        monkeypatch.setattr(assure, "bounds_batch_from_rng", failing_draw)
        for threads in (1, 2):
            with pytest.raises(Boom, match=str(failing)):
                m.assurance_sweep(MATCHED, [0.05], B_outer=7, inner_B=50, master_seed=16,
                                  grid=COARSE_GRID, threads=threads)
        assert four_cpus == [1, 2]

    def test_bad_thread_count_rejected(self):
        for threads in (0, -1):
            with pytest.raises(m.ValidationError, match="^threads = -?[01] must be at least 1$"):
                m.assurance_sweep(MATCHED, [0.05], B_outer=5, threads=threads)

    @pytest.mark.parametrize("threads", [float("nan"), True, 2.5])
    def test_thread_count_must_be_an_integer(self, threads):
        # nan raised a bare ValueError from int(), and True ran on one worker
        with pytest.raises(m.ValidationError, match="^threads = .* must be an integer$"):
            m.assurance_sweep(m.MatchedTable(3, 10, 4, 12), [0.1], B_outer=4, inner_B=10,
                              threads=threads)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """Blocks after the first run in forked workers: a worker that dies is
    replaced by a rerun here, and no worker outlives the sweep."""

    KWARGS = dict(B_outer=7, inner_B=50, master_seed=16, grid=COARSE_GRID)

    def test_killed_worker_block_rerun_here(self, monkeypatch, four_cpus):
        serial = m.assurance_sweep(MATCHED, [0.0, 0.05], threads=1, **self.KWARGS)
        draw = assure.bounds_batch_from_rng
        pid = os.getpid()

        def killing_draw(psi, sizes, B, rng):
            if os.getpid() != pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(psi, sizes, B, rng)

        monkeypatch.setattr(assure, "bounds_batch_from_rng", killing_draw)
        assert m.assurance_sweep(MATCHED, [0.0, 0.05], threads=2, **self.KWARGS) == serial
        assert four_cpus == [1, 2]
        _no_child_left()

    def test_clean_sweep_reaps_its_workers(self, four_cpus):
        _no_child_left()
        m.assurance_sweep(MATCHED, [0.05], threads=2, **self.KWARGS)
        assert four_cpus == [2]
        _no_child_left()

    @pytest.mark.parametrize("failing", [0, 5])
    def test_failing_sweep_reaps_its_workers(self, failing, monkeypatch, four_cpus):
        # replicate 0 fails in this process's block, replicate 5 in the worker's
        class Boom(Exception):
            pass

        draw = assure.bounds_batch_from_rng
        target = _drawn_state(MATCHED, 16, failing)

        def failing_draw(psi, sizes, B, rng):
            if rng.bit_generator.state == target:
                raise Boom(failing)
            return draw(psi, sizes, B, rng)

        monkeypatch.setattr(assure, "bounds_batch_from_rng", failing_draw)
        with pytest.raises(Boom, match=str(failing)):
            m.assurance_sweep(MATCHED, [0.05], threads=2, **self.KWARGS)
        assert four_cpus == [2]
        _no_child_left()

    def test_failed_fork_runs_the_block_here(self, monkeypatch, four_cpus):
        serial = m.assurance_sweep(MATCHED, [0.0, 0.05], threads=1, **self.KWARGS)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert m.assurance_sweep(MATCHED, [0.0, 0.05], threads=3, **self.KWARGS) == serial
        assert four_cpus == [1, 3]

    def test_unflushed_stdout_written_once(self):
        # a worker must not flush the stdio buffers it inherits
        code = textwrap.dedent("""
            import sys
            import minfer as m
            from minfer import assure
            assure._usable_cpus = lambda: 2
            sys.stdout.write("unflushed text\\n")
            reports = m.assurance_sweep(m.MatchedTable(30, 100, 40, 120), [0.05],
                                        B_outer=6, inner_B=50, threads=2)
            print(reports[0].B_outer)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "unflushed text\n6\n"


class TestBlockPartition:
    """The partition alone: no worker is started here."""

    @staticmethod
    def _check_cover(blocks, replicates):
        # in order, the blocks are the replicates, each a contiguous run of them
        assert np.array_equal(np.concatenate(blocks), replicates)
        sizes = [len(block) for block in blocks]
        assert min(sizes) > 0 or blocks[0].size == replicates.size == 0
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("B_outer", [1, 2, 7, 61, 5000])
    def test_clamped_to_cpus_and_replicates(self, cpus, B_outer, monkeypatch):
        monkeypatch.setattr(assure, "_usable_cpus", lambda: cpus)
        # every replicate, and a spread-out subset such as the fallbacks
        for replicates in (np.arange(B_outer), np.arange(B_outer) * 3 + 1):
            for threads in (1, 2, B_outer + 1, 10**6):
                blocks = assure._blocks(replicates, threads)
                assert len(blocks) == min(threads, B_outer, cpus)
                self._check_cover(blocks, replicates)

    def test_no_replicate_is_one_empty_block(self, monkeypatch):
        monkeypatch.setattr(assure, "_usable_cpus", lambda: 4)
        blocks = assure._blocks(np.arange(0), 4)
        assert len(blocks) == 1
        self._check_cover(blocks, np.arange(0))

    def test_one_block_without_fork(self, monkeypatch):
        monkeypatch.setattr(assure, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        blocks = assure._blocks(np.arange(61), 4)
        assert len(blocks) == 1
        self._check_cover(blocks, np.arange(61))

    def test_this_machine(self):
        cpus = assure._usable_cpus()
        assert cpus >= 1
        blocks = assure._blocks(np.arange(5000), 10**6)
        assert len(blocks) == min(cpus, 5000)
        self._check_cover(blocks, np.arange(5000))


def _unshared_sweep(data, hs, B_outer, inner_B, master_seed, inner_method="normal"):
    """(tau_hat, L_bar, U_bar, singleton_count) per h, the fallback count and
    the number of distinct tables tried on a normal curve, every outer
    replicate drawn on numpy's own stream, on its own inner
    ``CorroborationCurve`` and its sets from ``max_corroboration_set``: the
    sweep without sharing between replicates that draw the same table."""
    psi_hat, sizes, grid = m.mle_psi(data), data.sizes, m.default_grid()
    region = m.ml_region(data)
    sets, fallbacks, normal_tables = [], 0, set()
    for b in range(B_outer):
        rng = numpy_stream(master_seed, b)
        cells = psi_hat.draw(rng, sizes)
        psi_b = psi_hat.from_cells(cells, sizes)
        curve = None
        if inner_method == "normal":
            normal_tables.add(tuple(np.ravel(cells).tolist()))
            try:
                curve = m.corroboration_normal_curve(psi_b, sizes, grid)
            except m.DegenerateVariance:
                fallbacks += 1
        if curve is None:
            lo, up = bounds_batch_from_rng(psi_b, sizes, inner_B, rng)
            curve = m.CorroborationCurve(grid, coverage_share(lo, up, grid), "bootstrap",
                                         psi_b, sizes, B=inner_B)
        sets.append([m.max_corroboration_set(curve, h).interval for h in hs])
    rows = []
    for i in range(len(hs)):
        lo = np.array([row[i].lower for row in sets])
        up = np.array([row[i].upper for row in sets])
        hits = (region.lower <= lo) & (lo < up) & (up <= region.upper)
        rows.append((np.count_nonzero(hits) / B_outer, np.sum(lo) / B_outer, np.sum(up) / B_outer,
                     np.count_nonzero(lo == up)))
    return rows, fallbacks, len(normal_tables)


def _rows(reports):
    return [(r.tau_hat, r.L_bar, r.U_bar, r.singleton_count) for r in reports]


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
        assert _rows(reports) == expected
        assert reports[0].fallback_count == fallbacks
        # one attempt per distinct table, a degenerate one included
        assert len(calls) == distinct < 300


class TestAgainstUnsharedSweep:
    """Reports at threads 1-3 against the unshared sweep on numpy's streams:
    fallback-heavy, large and zero-margin tables, with the binomial kernel
    on and off."""

    @pytest.mark.parametrize("exact", [True, False], ids=["kernel", "numpy"])
    @pytest.mark.parametrize("data", [
        m.MissingTable(3, 40, 1), m.MissingTable(1, 5, 4), m.MissingTable(1425, 0, 1935),
        MATCHED, m.MatchedTable(0, 30, 12, 40),
    ], ids=["3,40,1", "1,5,4", "1425,0,1935", "matched", "matched_zero_margin"])
    def test_same_reports(self, data, exact, monkeypatch, four_cpus):
        monkeypatch.setattr(_binomial, "_EXACT", exact)
        hs = [0.0, 0.01, 0.3]
        inner = "bootstrap" if isinstance(data, m.MatchedTable) else "normal"
        expected, fallbacks, _ = _unshared_sweep(data, hs, 60, 100, 21, inner)
        for threads in (1, 2, 3):
            reports = m.assurance_sweep(data, hs, B_outer=60, inner_B=100, master_seed=21,
                                        threads=threads)
            assert _rows(reports) == expected
            assert reports[0].fallback_count == fallbacks


class TestNestedBootstrapSets:
    """Each replicate's sets are ``max_corroboration_set`` of its own
    nested-bootstrap curve, on one worker or two."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("data", [MATCHED, m.MissingTable(32, 54, 24)],
                             ids=["matched", "missing"])
    def test_same_reports_as_own_curves(self, data, threads, four_cpus):
        # values are multiples of 1/200: an h that is not (0.003) takes in the
        # lattice value below max - h only through the half-step tie slack
        hs = [0.0, 0.003, 0.01, 0.3]
        expected, fallbacks, _ = _unshared_sweep(data, hs, 80, 200, 4, "bootstrap")
        reports = m.assurance_sweep(data, hs, B_outer=80, inner_method="bootstrap",
                                    inner_B=200, master_seed=4, threads=threads)
        assert _rows(reports) == expected
        assert fallbacks == reports[0].fallback_count == 0
        assert four_cpus == [threads]


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
        with pytest.raises(m.ValidationError, match=r"must lie in \[0, 1\]"):
            m.select_h(
                trial, tau_min=1.01, candidates=[0.01, 0.2],
                B_outer=40, master_seed=11, grid=COARSE_GRID,
            )

    def test_negative_threshold_rejected(self, trial, monkeypatch):
        # rejected before the sweep, which would otherwise pick the largest h
        monkeypatch.setattr(assure, "assurance_sweep", None)
        with pytest.raises(m.ValidationError, match=r"must lie in \[0, 1\]"):
            m.select_h(trial, tau_min=-0.5, candidates=[0.01, 0.2], B_outer=10)

    def test_unreached_threshold(self, trial):
        with pytest.raises(m.NoQualifyingH):
            m.select_h(
                trial, tau_min=1.0, candidates=[0.01, 0.2],
                B_outer=40, master_seed=11, grid=COARSE_GRID,
            )

    def test_nan_threshold_rejected(self, trial):
        with pytest.raises(m.ValidationError):
            m.select_h(trial, tau_min=float("nan"), candidates=[0.01, 0.2], B_outer=10)

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
