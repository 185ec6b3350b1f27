"""The benchmark's short CLI workload runs and reports a checked result.

A traced or untraced ``bench/run.py`` run can exit 0 while its last stdout
line is not a result; this runs both modes briefly and reads that line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.skipif(not RUN.exists(), reason="no bench/ in this checkout")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_short_reports_a_correct_result(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "cli_short", "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, lines[-2:]
    assert result["failed"] == 0, lines[-2:]
