"""The test run's own configuration (``pyproject.toml``), on probe files run
by pytest in a subprocess: a failing hypothesis property is reported as
one failure, and a numpy warning still fails its test."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBES = {
    # reporting the failure imports hypothesis.extra._patching, whose libcst
    # import warns; as an error, that stopped the whole run with INTERNALERROR
    "failing_property": """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_probe(x):
            assert x < 5
    """,
    "numpy_warning": """
        import numpy as np

        def test_probe():
            np.float64(1.0) / 0.0
    """,
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_failing_probe_is_one_failure(probe, tmp_path):
    path = tmp_path / "test_probe.py"
    path.write_text(textwrap.dedent(PROBES[probe]), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert proc.stdout.splitlines()[-1].startswith("1 failed"), output
