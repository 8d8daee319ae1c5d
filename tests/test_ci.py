"""The CI scripts against the source tree.  `ci/minimal.sh` holds the checks
of the CI job that installs the package without extras.  Here a `curvesig`
shim runs `sys.exit(main())` and `python` runs with -S, so site-packages, and
numpy with them, stay out as they do after `pip install .`.  `ci/mutants.py`
runs tier-1 once per mutant, too slow for tier-1, so here only its table is
checked against the tree."""

import importlib.util
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


def test_every_mutant_applies_to_the_tree():
    # a refactor that changes a mutated line must update the table, not orphan it
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "ci" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({name for *_, name in mutants.MUTANTS}) == len(mutants.MUTANTS) == 12
    for path, old, new, name in mutants.MUTANTS:
        assert old != new, name
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, name
