#!/usr/bin/env bash
# Checks of the package installed without extras, the two that only such an
# install can fail: numpy stays absent, and the `curvesig` console script
# replays the recorded command lines of bench/expected/cli.json with their
# exit statuses and stdout.  Those lines reach all five subcommands, statuses
# 0, 1 and 2, and every module of the package, so they also check the
# packaging.  The other CLI-contract checks are tier-1 tests, which run on
# the same source.  Run it from the repository root with `python` and the
# `curvesig` console script on PATH:
#
#     pip install . && bash ci/minimal.sh
#
# A failing check prints one `::error::` line and the script exits 1.
set -euo pipefail

fail() {
  echo "::error::$*"
  exit 1
}

# numpy is absent
if python -c "import numpy" 2>/dev/null; then
  fail "numpy is importable without the oracle extra"
fi

# the recorded command lines replay with their exit statuses and stdout, byte
# for byte; bench/expected/cli.json is only read
differ=$(python -c "
import json, subprocess
with open('bench/expected/cli.json', encoding='utf-8') as f:
    commands = json.load(f)
for command in commands:
    proc = subprocess.run(['curvesig', *command['args']], capture_output=True, encoding='utf-8')
    if (proc.returncode, proc.stdout) != (command['status'], command['stdout']):
        print(' '.join(command['args']), end='; ')
") || fail "the recorded command lines could not be replayed"
if [ -n "$differ" ]; then
  fail "these recorded command lines changed status or stdout: $differ"
fi

echo "minimal: all checks passed"
