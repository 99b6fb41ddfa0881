"""The suite's own settings in ``pyproject.toml``, run as the suite runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # Reporting a failing example makes hypothesis import libcst, whose
    # DeprecationWarning, turned into an error, once aborted the session.
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith(
        "1 failed, 1 passed"), proc.stdout
    assert proc.returncode == 1
