"""Write the expected outputs the enumerate and cli workloads check against.

    PYTHONPATH=src python3 bench/record.py

Run it from the repository root only on a commit whose outputs are known to
be right: the files it writes are the oracle for every later commit.  The
expected files in bench/expected/ were recorded at the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import subprocess

import curvesig as cs

import workloads

INPUTS = "bench/cli_inputs/"
CLI_COMMANDS = [
    ["invariants", "2", "3"],
    ["invariants", "7", "11"],
    ["signature", "2", "5"],
    ["signature", "3", "7", "--at", "2/5"],
    ["check", INPUTS + "obstructed.json"],
    ["check", INPUTS + "admissible.json"],
    ["check", INPUTS + "mixed.json"],
    ["enumerate", "2", "7", "--max-genus", "0", "--max-double-points", "1"],
    ["enumerate", "2", "9", "--max-genus", "1", "--max-double-points", "2", "--count"],
    ["enumerate", "2", "5", "--max-genus", "1", "--max-double-points", "2", "--no-genus-formula"],
    # The slowest command runs twice per pass, so that even a slow 50 s run
    # holds more than ten of its samples and op_tail_ms stays on it rather
    # than jumping to the next-slowest command.
    ["enumerate", "2", "5", "--max-genus", "1", "--max-double-points", "2", "--no-genus-formula"],
    ["bmy", "3", "4", "--cusps", "2,3", "2,3", "2,3", "--double-points", "0"],
    ["bmy", "5", "7", "--cusps", "2,3", "2,5", "--double-points", "1"],
    # malformed input: each must exit with status 2
    ["invariants", "4", "6"],
    ["invariants", "2"],
    ["signature", "2", "5", "--at", "3/10"],
    ["enumerate", "2", "7", "--max-genus", "-1"],
    ["check", INPUTS + "unknown_key.json"],
    ["check", INPUTS + "not_coprime.json"],
    ["check", INPUTS + "bad_json.json"],
    ["check", INPUTS + "does_not_exist.json"],
    ["bmy", "3", "4", "--cusps", "2,3,4"],
]


def record_enumerate() -> dict:
    """Count and output hash of every pool entry."""
    out = {}
    for entry in workloads.ENUMERATE_POOL:
        budget = cs.SearchBudget(cs.Cusp(*entry[0]), entry[1], entry[2], entry[3])
        got = [workloads.enumerate_line(r) for r in cs.enumerate_admissible(budget)]
        out[workloads.enumerate_key(entry)] = {"count": len(got), "sha256": workloads.sha256(got)}
    return out


def record_cli() -> list[dict]:
    """Exit status and stdout of every command."""
    out = []
    for args in CLI_COMMANDS:
        done = subprocess.run(workloads.cli_command(args), cwd=workloads.ROOT,
                              capture_output=True, timeout=60)
        out.append({"args": args, "status": done.returncode, "stdout": done.stdout.decode()})
    return out


def main() -> None:
    expected = workloads.EXPECTED
    (expected / "enumerate.json").write_text(json.dumps(record_enumerate(), indent=1) + "\n")
    (expected / "cli.json").write_text(json.dumps(record_cli(), indent=1) + "\n")


if __name__ == "__main__":
    main()
