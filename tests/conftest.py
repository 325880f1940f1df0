"""The tests' child processes (the CLI, the `python -O` checks) import
covertsim from this checkout's `src/`, as pytest itself does through the
`pythonpath` setting in pyproject.toml."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.register_assert_rewrite("equivalence")

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def run_optimized():
    """Run code under `python -O` with this checkout's src/ and tests/ on the
    path; the run must exit 0 with asserts stripped (`__debug__` False), and
    is returned for its stdout."""
    def run(code: str) -> subprocess.CompletedProcess:
        code = "print('debug', __debug__)\n" + textwrap.dedent(code)
        path = os.pathsep.join([SRC, TESTS, os.environ["PYTHONPATH"]])
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("debug False\n"), out.stdout
        return out
    return run
