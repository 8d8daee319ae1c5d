"""Mutation check: tier-1 must fail on each deliberate fault of `MUTANTS`.

For each mutant the script copies the tree to a temporary directory, asserts
that the mutant's old text occurs exactly once in its file, replaces it with
the new text, and runs tier-1 without `tests/test_ci.py` there, under a
per-mutant timeout.  It prints one line per mutant (killed, survived or timed
out) and exits 1 if any mutant survived or timed out, or if tier-1 fails on
the unmutated copy, which it runs first.  Standard library only; run it from
anywhere, with pytest importable:

    python ci/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "tests", "--ignore=tests/test_ci.py"]
# tier-1 takes 20-35 s on a 2-vCPU machine, and 45-65 s with the mu prune dropped
TIMEOUT_S = 300

# (file, old text, new text, name); each old text occurs exactly once in its file
MUTANTS = [
    ("src/curvesig/deformation.py", "        return self.left < self.right\n",
     "        return self.left <= self.right\n", "strict M bound made non-strict"),
    ("src/curvesig/deformation.py", "        return self.left <= self.right\n",
     "        return self.left < self.right\n", "sweep bound <= made <"),
    ("src/curvesig/deformation.py", "i = max(range(len(left)), key=left.__getitem__)",
     "i = max(reversed(range(len(left))), key=left.__getitem__)", "last maximiser for the first"),
    ("src/curvesig/singularities.py", "return p + q - 2 - (-(-q // p))",
     "return p + q - 2 - (q // p)", "M_bar with floor for ceil"),
    ("src/curvesig/signature.py", "if rest == 0 and i and self.cuts[i - 1] == position:",
     "if rest == 0 and i > 1 and self.cuts[i - 1] == position:", "value_at misses the first cut"),
    ("src/curvesig/documents.py", "if int(denominator) == 0:",
     "if int(denominator) < 0:", "zero denominator accepted"),
    ("src/curvesig/enumeration.py",
     "        if budget.require_genus_formula and mu_sum > mu_central:\n            continue\n",
     "", "mu prune dropped"),
    ("src/curvesig/enumeration.py", "if m_sum + loosest.left >= loosest.right:",
     "if m_sum + loosest.left > loosest.right:", "M prune >= made >"),
    ("src/curvesig/enumeration.py", "max_genus = min(max_genus, mu_central // 2)",
     "max_genus = min(max_genus, mu_central // 2 + 1)", "genus clamp raised by 1"),
    ("src/curvesig/cli.py", "ends.append(str(c // g) if g == d else",
     "ends.append(str(c // g) if g == 1 else", "signature end g == d made g == 1"),
    ("src/curvesig/cli.py", "while tokens and not tokens[-1].startswith(\"-\"):",
     "while tokens:", "argv reader: nargs=* takes the next option"),
    ("src/curvesig/documents.py", "        if key in document:\n",
     "        if False:\n", "repeated JSON key accepted"),
]


def copy_tree(tree: Path) -> Path:
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info"))
    return tree


def mutate(tree: Path, path: str, old: str, new: str) -> None:
    file = tree / path
    text = file.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{path}: the old text occurs {count} times, expected once: {old!r}")
    file.write_text(text.replace(old, new), encoding="utf-8")


def run_tier_1(tree: Path) -> str:
    """'passed', 'failed' or 'timed out'."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    # a session of its own, so a timeout also ends the interpreters the tests start
    with subprocess.Popen(TIER_1, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          start_new_session=True) as proc:
        try:
            status = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out"
    return "passed" if status == 0 else "failed"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        start = time.perf_counter()
        outcome = run_tier_1(copy_tree(Path(workdir) / "baseline"))
        print(f"unmutated: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
        if outcome != "passed":
            return 1
        escaped = 0
        for i, (path, old, new, name) in enumerate(MUTANTS):
            start = time.perf_counter()
            tree = copy_tree(Path(workdir) / str(i))
            mutate(tree, path, old, new)
            outcome = run_tier_1(tree)
            verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            escaped += verdict != "killed"
            print(f"{verdict}: {name} ({path}, {time.perf_counter() - start:.1f} s)", flush=True)
            shutil.rmtree(tree)
        print(f"{len(MUTANTS) - escaped} of {len(MUTANTS)} mutants killed")
        return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
