"""The suite's warnings rule (filterwarnings in pyproject.toml) under a failing test.

Any warning is an error, so a test that warns fails. A failing Hypothesis
property must still fail as one test: where libcst is installed, Hypothesis's
failure report imports it, libcst imports mypy_extensions.TypedDict, and the
DeprecationWarning that raises, as an error, would end the whole run with an
INTERNALERROR before any later test runs. pyproject.toml exempts that one
message. Each probe runs in a fresh pytest under the repository's config.
"""

import subprocess
import sys
from pathlib import Path

import pytest

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''

NUMPY_WARNING = '''
import numpy as np


def test_overflow_warns():
    np.float64(1e308) * 10.0


def test_passes():
    pass
'''


@pytest.mark.parametrize("probe", [FAILING_PROPERTY, NUMPY_WARNING], ids=["failing-property", "numpy-warning"])
def test_one_failure_leaves_the_run_going(tmp_path, probe):
    (tmp_path / "test_probe.py").write_text(probe)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
