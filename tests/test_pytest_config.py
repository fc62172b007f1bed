"""The repository's pytest configuration: a failing hypothesis test is reported
as a failure, not turned into an internal error by the warning filters."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

THROWAWAY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def _tree(root):
    """(path, mtime) of every file and directory under root, .git aside."""
    return {(p, p.stat().st_mtime_ns) for p in root.rglob("*")
            if ".git" not in p.relative_to(root).parts}


def test_failing_given_test_is_a_failure_not_an_internal_error(tmp_path):
    # on a failure hypothesis imports libcst, which warns a DeprecationWarning
    # that error::DeprecationWarning would raise inside pytest itself
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    before = _tree(REPO)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert _tree(REPO) == before
