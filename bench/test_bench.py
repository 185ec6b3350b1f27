"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import os
import sys
import time

import pytest

from layers import BOUNDS, NORMAL_CURVE, OBSERVERS, layer_metrics
from run import BENCH, ROOT, run_child
from tracer import Tracer, import_metrics, parse_importtime, self_times
from workloads import cli_covers, cli_form, covers, library_form

sys.path.insert(0, os.path.join(ROOT, "src"))


def span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


class TestSelfTime:
    def test_nested_spans(self):
        root = span("root", 0.0, 10.0)
        a = span("a", 1.0, 4.0, root)
        b = span("b", 5.0, 6.0, root)
        leaf = span("leaf", 2.0, 3.0, a)
        assert self_times([root, a, b, leaf]) == [6.0, 2.0, 1.0, 1.0]

    def test_overlapping_children_are_covered_once(self):
        root = span("root", 0.0, 10.0)
        kids = [span("a", 1.0, 4.0, root), span("b", 3.0, 6.0, root)]
        assert self_times([root, *kids])[0] == 5.0

    def test_tracer_spans_with_a_counting_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        inner = tracer.wrap("m.inner", lambda: 1)
        outer = tracer.wrap("m.outer", lambda: inner() + inner())
        assert outer() == 2
        assert [s[0] for s in tracer.spans] == ["m.outer", "m.inner", "m.inner"]
        # clock reads: outer start 0, inner 1..2, inner 3..4, outer end 5
        assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
        metrics = layer_metrics(tracer.spans, {"m.outer", "m.inner"}, 5.0)
        assert metrics["trace.unattributed_s"] == 0.0

    def test_exception_is_recorded_and_stack_unwinds(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        traced = tracer.wrap("m.boom", boom)
        with pytest.raises(ValueError):
            traced()
        assert tracer.spans[0][5] == "ValueError"
        assert tracer._stack() == []


class TestRebinding:
    def test_every_binding_of_a_function_is_traced_and_restored(self):
        import minfer
        import minfer.assure
        import minfer.cli
        import minfer.corroborate

        original = minfer.corroborate.corroboration_normal_curve
        tracer = Tracer()
        tracer.install(OBSERVERS)
        try:
            wrapped = minfer.corroborate.corroboration_normal_curve
            assert wrapped is not original
            assert minfer.assure.corroboration_normal_curve is wrapped
            assert minfer.corroboration_normal_curve is wrapped
            data = minfer.validate([32, 54, 24], "missing")
            minfer.assurance_sweep(data, [0.01], B_outer=3, master_seed=0,
                                   grid=minfer.default_grid()[::50])
        finally:
            assert tracer.uninstall()
        assert minfer.corroborate.corroboration_normal_curve is original
        assert minfer.assure.corroboration_normal_curve is original
        assert minfer.corroboration_normal_curve is original
        metrics = layer_metrics(tracer.spans, tracer.names, 1.0)
        assert metrics["corroborate.normal_curve_calls"] == 3
        assert metrics["assure.outer_replicates"] == 3
        assert metrics["sampling.streams"] == 3
        assert metrics["model.mle_psi_calls"] >= 1

    def test_raising_observer_leaves_the_call_alone_and_its_metrics_absent(self):
        tracer = Tracer()

        def stale(tracer, args, kwargs, result):
            raise AttributeError("field renamed")

        def boom(B):
            raise ValueError("program's own error")

        curve = tracer.wrap(NORMAL_CURVE, lambda psi, n, grid: psi, stale)
        draws = tracer.wrap(BOUNDS[0], boom, stale)
        assert curve(0.5, 10, None) == 0.5
        with pytest.raises(ValueError, match="program's own error"):
            draws(7)
        assert tracer.unobserved == {NORMAL_CURVE, BOUNDS[0]}
        metrics = layer_metrics(tracer.spans, {NORMAL_CURVE, BOUNDS[0]}, 1.0,
                                unobserved=tracer.unobserved)
        assert metrics["corroborate.normal_curve_calls"] == 1
        assert "corroborate.normal_curve_points" not in metrics
        assert "corroborate.normal_curve_repeat_ratio" not in metrics
        assert "corroborate.bounds_draw_s" in metrics
        assert "corroborate.bounds_draw_replicates" not in metrics

    def test_missing_function_makes_its_metrics_absent(self):
        root = span("corroborate.coverage_share", 0.0, 1.0)
        metrics = layer_metrics([root], {"corroborate.coverage_share"}, 2.0)
        assert metrics["corroborate.coverage_share_calls"] == 1
        assert "corroborate.normal_curve_s" not in metrics
        assert "corroborate.bounds_draw_s" not in metrics
        assert metrics["trace.unattributed_s"] == 1.0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       205 |        205 |   _io
import time:       475 |       1550 | _frozen_importlib_external
import time:       717 |      14615 |       scipy
import time:     40000 |      50000 |     scipy.integrate
import time:      2531 |       2531 |       minfer.errors
import time:      4999 |     740530 |   minfer.assure
import time:       839 |     748325 | minfer
import time:      5921 |       5921 | minfer.cli
"""


class TestImportTime:
    def test_rows_and_depths(self):
        rows = parse_importtime(IMPORTTIME)
        assert len(rows) == 8
        assert rows[0] == (1, "_io", 205e-6, 205e-6)
        assert rows[2][:2] == (3, "scipy")
        assert rows[6][:2] == (0, "minfer")

    def test_metrics(self):
        metrics = import_metrics(IMPORTTIME)
        assert metrics["import.total_s"] == pytest.approx((1550 + 748325 + 5921) * 1e-6)
        assert metrics["import.scipy_s"] == pytest.approx((717 + 40000) * 1e-6)
        assert metrics["import.minfer_self_s"] == pytest.approx((2531 + 4999 + 839 + 5921) * 1e-6)


# a child's peak RSS on Linux starts from its parent's RSS at spawn, so the
# children are spawned from a fresh interpreter that, like run.py, imports
# no numpy
PER_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from run import run_child
big = run_child([sys.executable, "-c", "b = bytearray(120 << 20)"])
small = run_child([sys.executable, "-c", "pass"])
print(big.peak_rss_mb, small.peak_rss_mb, big.code, small.code)
"""


class TestChildRss:
    def test_peak_rss_is_per_child(self):
        probe = run_child([sys.executable, "-c", PER_CHILD, BENCH])
        assert probe.code == 0, probe.stderr
        big, small, big_code, small_code = probe.stdout.split()
        assert (big_code, small_code) == ("0", "0")
        assert float(big) > 120
        assert float(small) < 40


TABLE = {"id": "t", "setting": "missing", "counts": [3, 4, 2], "theta_star": 0.3,
         "h": 0.01, "alpha": 0.5, "seed": 7}


class TestWorker:
    def test_one_worker_serves_every_request(self):
        import run

        with run.Worker("study") as worker:
            first = worker.request({"tables": [TABLE]})
            second = worker.request({"tables": [TABLE]})
        assert worker.proc.returncode == 0
        assert first["outcomes"] == second["outcomes"]
        assert len(first["outcomes"][0]) > 5
        assert first["peak_rss_mb"] > 0 and second["peak_rss_mb"] > 0

    def test_failed_request_raises_and_the_worker_is_reaped(self):
        import run

        with pytest.raises(run.BenchError, match="KeyError"):
            with run.Worker("study") as worker:
                worker.request({"tables": [{"id": "no counts"}]})
        assert worker.proc.returncode == 1


class TestSetupWindow:
    def test_setup_samples_are_spread_through_the_window(self, monkeypatch):
        import run

        at = []

        def fake_child(argv, stdin_text=None):
            at.append(window.elapsed())
            return run.Child(0, "", "", 0.5, 0.0, 0.0)

        monkeypatch.setattr(run, "run_child", fake_child)
        window = run.Window(0.4, 4)
        run.repeat(window, lambda: time.sleep(0.02))
        assert window.finish() == [0.5] * 4
        assert at[0] < 0.02 and at[-1] >= 0.3
        assert all(b - a >= 0.08 for a, b in zip(at, at[1:]))


class TestGoldenForms:
    def test_added_field_passes_changed_number_fails(self):
        golden = cli_form('{"tau_hat": 0.5, "L_bar": 0.3}')["json"]
        assert covers({"json": golden}, {"json": {"tau_hat": 0.5, "L_bar": 0.3, "tau_se": 0.01}})
        assert not covers({"json": golden}, {"json": {"tau_hat": 0.500001, "L_bar": 0.3}})
        assert not covers({"json": golden}, {"json": {"tau_hat": 0.5}})

    def test_csv_added_column_passes_changed_row_fails(self):
        golden = cli_form("h,tau\n0.1,0.5\n0.2,0.4\n")
        assert cli_covers(golden, "h,tau,tau_se\n0.1,0.5,0.01\n0.2,0.4,0.02\n")
        assert not cli_covers(golden, "h,tau\n0.1,0.5\n0.2,0.41\n")
        assert not cli_covers(golden, "h,tau\n0.1,0.5\n")

    def test_library_form_rounds_like_the_cli(self):
        import numpy as np

        assert library_form(0.1 + 1e-15) == library_form(0.1)
        assert library_form(np.array([0.25, 0.5])) != library_form(np.array([0.25, 0.500002]))
        assert library_form((np.int64(3), True)) == [3, True]
