"""The repository's pytest settings, checked in a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# One property test that fails, then one plain test that passes.
TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis warns while it reports a falsified example; under
    # filterwarnings = error alone, that warning aborts the whole run.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    args = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"]
    done = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
