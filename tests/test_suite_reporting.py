"""The test suite reports a failing property test and runs on past it."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent

_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x


def test_plain():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_next_test_runs(tmp_path):
    # the file runs under this suite's conftest.py and pyproject.toml's
    # warning filters, as the suite's own tests do
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    shutil.copy(TESTS_DIR / "conftest.py", tmp_path)
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS_DIR.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "Falsifying example" in r.stdout
    assert r.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
