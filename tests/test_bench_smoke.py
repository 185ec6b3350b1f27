"""The benchmark's workloads run briefly and report a checked result.

A traced or untraced ``bench/run.py`` run can exit 0 while its last stdout
line is not a result; this runs the short CLI workload, the library study
and the missing-data assurance sweep both ways, and the one workload
whose sweep forks worker processes untraced, and reads the detail line
and the result line.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _run(workload, trace):
    """Run one workload briefly and check its detail and result lines."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) >= 2, (proc.stdout, proc.stderr)
    detail = json.loads(lines[-2], parse_constant=_reject_constant)
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert detail["absent"] == [], detail["absent"]
    assert detail["unobserved"] == [], detail["unobserved"]
    assert result["correct"] is True, lines[-2:]
    assert result["failed"] == 0, lines[-2:]
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name


needs_bench = pytest.mark.skipif(not RUN.exists(), reason="no bench/ in this checkout")


@needs_bench
@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_short_reports_a_correct_result(trace):
    _run("cli_short", trace)


@needs_bench
@pytest.mark.parametrize("trace", ["0", "1"])
def test_library_study_reports_a_correct_result(trace):
    # in-process library calls, whose bootstrap batches draw every
    # replicate stream at once
    _run("library_study", trace)


@needs_bench
@pytest.mark.parametrize("trace", ["0", "1"])
def test_assure_missing_reports_a_correct_result(trace):
    # one normal curve per distinct outer table of the batch draw
    _run("assure_missing", trace)


@needs_bench
def test_forking_assure_matched_reports_a_correct_result():
    # the one workload whose sweep forks worker processes (--threads 2)
    _run("assure_matched", "0")
