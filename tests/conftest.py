import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import curvesig

# the directory holding the curvesig package, so a child interpreter imports
# the same copy as the tests do
PACKAGE_ROOT = str(Path(curvesig.__file__).resolve().parent.parent)


# the repository root, which the recorded CLI command lines are relative to
REPO_ROOT = Path(__file__).resolve().parent.parent


def _child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_child_env(),
        timeout=120,
        check=False,
    )


@pytest.fixture
def run_python():
    """Run a Python snippet in a fresh interpreter; returns the CompletedProcess."""
    return lambda code: _run_child(["-c", code])


@pytest.fixture
def run_cli():
    """Run `python -X importtime -m curvesig.cli ARGS` in a fresh interpreter
    from the repository root.  Next to any diagnostics, stderr holds one
    `import time:` line for each module the process imported."""
    return lambda args: _run_child(["-X", "importtime", "-m", "curvesig.cli", *args])


@pytest.fixture
def start_cli():
    """Start `python -m curvesig.cli ARGS` in a fresh interpreter with binary
    stdout and stderr pipes, for tests that read only part of the output.
    Use the Popen in a `with` block, which closes the pipes and waits."""
    return lambda args: subprocess.Popen(
        [sys.executable, "-m", "curvesig.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO_ROOT,
        env=_child_env(),
    )


@pytest.fixture
def deadline():
    """Fail the test if it still runs after two seconds: for calls that
    used to run without end, so that a regression fails instead of hanging."""
    def expire(signum, frame):
        pytest.fail("still running after 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
