"""Byte-for-byte replay of the recorded outputs in bench/expected.

`cli.json` holds 22 command lines with their exit status and stdout;
`enumerate.json` holds the count and sha256 of the canonical lines of 8
searches.  Both files are only read here, never rewritten.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from curvesig import Cusp, SearchBudget, enumerate_admissible
from curvesig.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected"
CLI_COMMANDS = json.loads((EXPECTED / "cli.json").read_text())
SEARCHES = json.loads((EXPECTED / "enumerate.json").read_text())
# "(p,q) g<=G R<=R genus_formula=B", the key of one search
SEARCH_KEY = re.compile(r"\((\d+),(\d+)\) g<=(\d+) R<=(\d+) genus_formula=(True|False)")


@pytest.mark.parametrize(
    "command", CLI_COMMANDS, ids=[" ".join(command["args"]) for command in CLI_COMMANDS]
)
def test_cli_command_replays_exactly(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded paths are relative to the repo root
    try:
        status = main(command["args"])
    except SystemExit as err:  # argparse refuses the command line
        status = err.code
    assert status == command["status"]
    assert capsys.readouterr().out == command["stdout"]


def test_cli_corpus_reaches_every_command_and_status():
    # ci/minimal.sh replays this corpus as its packaging check, so a re-recorded
    # corpus must still reach every subcommand and status
    assert set(_COMMANDS) <= {command["args"][0] for command in CLI_COMMANDS}
    assert {command["status"] for command in CLI_COMMANDS} == {0, 1, 2}
    assert all(command["stdout"] == "" for command in CLI_COMMANDS if command["status"] == 2)


def enumerate_line(result) -> str:
    s = result.scenario
    cusps = ",".join(f"({c.p},{c.q})" for c in s.cusps)
    return f"cusps=[{cusps}] genus={s.genus} double_points={s.double_points} overall={result.report.overall}"


@pytest.mark.parametrize("key", SEARCHES)
def test_enumerate_search_hash(key):
    p, q, genus, double_points, genus_formula = SEARCH_KEY.fullmatch(key).groups()
    budget = SearchBudget(Cusp(int(p), int(q)), int(genus), int(double_points), genus_formula == "True")
    lines = [enumerate_line(result) for result in enumerate_admissible(budget)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (SEARCHES[key]["count"], SEARCHES[key]["sha256"])
