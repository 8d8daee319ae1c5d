import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvesig

# the directory holding the curvesig package, so a child interpreter imports
# the same copy as the tests do
PACKAGE_ROOT = str(Path(curvesig.__file__).resolve().parent.parent)


@pytest.fixture
def run_python():
    """Run a Python snippet in a fresh interpreter; returns the CompletedProcess."""

    def run(code: str) -> subprocess.CompletedProcess:
        path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
            check=False,
        )

    return run
