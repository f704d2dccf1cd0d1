"""Run test code in a fresh interpreter, for cases that could hang."""

import subprocess
import sys
from pathlib import Path

import radabound

# The directory holding the package under test, put first on the child's path.
_PACKAGE_PARENT = str(Path(radabound.__file__).parents[1])


def run_in_child(code: str, timeout: float = 30.0) -> str:
    """Run ``code`` under ``python -W error``, as the suite treats warnings,
    and return what it prints.  A child still running after ``timeout``
    seconds is killed and the test fails in seconds, not at the suite's time
    limit; a child that fails shows its stderr."""
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         f"import sys; sys.path.insert(0, {_PACKAGE_PARENT!r})\n{code}"],
        capture_output=True, text=True, timeout=timeout,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout
