"""`ci/minimal.sh` against the source tree.  The script holds the checks of the
CI job that installs the package without extras.  Here a `curvesig` shim runs
`sys.exit(main())` and `python` runs with -S, so site-packages, and numpy with
them, stay out as they do after `pip install .`."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import curvesig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = str(Path(curvesig.__file__).resolve().parent.parent)

SHIMS = {
    "python": "-S",
    "curvesig": "-S -c 'import sys; from curvesig.cli import main; sys.exit(main())'",
}


def test_minimal_script_passes_on_the_source_tree(tmp_path):
    for name, arguments in SHIMS.items():
        shim = tmp_path / name
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} {arguments} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path), os.environ["PATH"]]), PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        ["bash", str(ROOT / "ci" / "minimal.sh")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
        check=False,
    )
    assert (proc.returncode, proc.stdout) == (0, "minimal: all checks passed\n"), proc.stdout + proc.stderr
