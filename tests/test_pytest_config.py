"""The repository's pytest settings report a falsified hypothesis test.

``filterwarnings`` turns every warning into an error.  The hypothesis
plugin imports ``mypy_extensions.TypedDict`` while it reports a falsified
test, and that import warns; unless the settings ignore that one warning,
pytest stops with INTERNALERROR, the tests after it never run and the
falsifying example is not printed.  The check runs pytest in a fresh
interpreter on a scratch directory, under the repository's own settings.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FALSIFIED_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_runs_after_it():
    assert True
'''


def test_a_falsified_hypothesis_test_fails_alone_and_shows_its_example(tmp_path):
    (tmp_path / "test_sample.py").write_text(FALSIFIED_THEN_PASSING)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_sample.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_falsified(" in out
    assert "x=10," in out
