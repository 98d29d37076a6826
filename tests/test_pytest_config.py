"""The repository's pytest configuration reports a failing Hypothesis test as
a plain failure: the run goes on instead of ending in an INTERNALERROR."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # the configuration is copied next to the test, so that the run's
    # Hypothesis database and patch files stay in tmp_path
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(tmp_path / "pyproject.toml"), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
