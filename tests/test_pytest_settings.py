"""The repository's pytest settings keep a session going past a failing
property test: pyproject.toml turns DeprecationWarning into an error, and
the hypothesis plugin's report hook for a failing test touches the
deprecated mypy_extensions.TypedDict, which ended the session in
INTERNALERROR before the tests after it ran."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
