import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_fails_without_crashing_the_run(tmp_path):
    """Under the repo's warning filters a failed property is reported as
    a failure (exit 1), not as an internal error (exit 3): Hypothesis's
    failure report imports modules that raise DeprecationWarning.
    """
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed" in done.stdout
