#!/usr/bin/env bash
# Checks of the package installed without extras: numpy stays absent, a bare
# import loads nothing, and the console script answers with the documented
# exit statuses.  Run it from the repository root with `python` and the
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

# import curvesig loads no module of the package
python -c "
import sys, curvesig
loaded = sorted(name for name in sys.modules if name.startswith('curvesig.'))
assert not loaded, f'import curvesig loaded {loaded}'
" || fail "import curvesig loaded a module of the package"

# the Seifert cross-check names the oracle extra
python -c "
from fractions import Fraction
from curvesig import bidiagonal_seifert, seifert_signature_at
try:
    seifert_signature_at(bidiagonal_seifert(3), Fraction(1, 2))
except ImportError as err:
    assert 'curvesig[oracle]' in str(err), err
else:
    raise AssertionError('seifert_signature_at ran without numpy')
" || fail "the Seifert cross-check does not name the oracle extra"

# console script exit statuses
expect() {
  local want=$1
  shift
  local status=0
  "$@" > /dev/null || status=$?
  if [ "$status" -ne "$want" ]; then
    fail "'$*' exited with $status, expected $want"
  fi
}
expect 0 curvesig invariants 2 3
expect 2 curvesig invariants 2
expect 0 curvesig signature 2 5
expect 1 curvesig bmy 3 4 --cusps 2,3 2,3 2,3
expect 0 curvesig check bench/cli_inputs/admissible.json
expect 1 curvesig check bench/cli_inputs/obstructed.json
expect 0 curvesig enumerate 2 7 --max-genus 0 --max-double-points 1 --count
expect 0 timeout 10 curvesig enumerate 2 3 --max-genus 99999999999999999999 --count

# lines the argv reader refuses go to argparse: help, abbreviations, '=' forms
out=$(curvesig --help) || fail "'curvesig --help' exited with $?, expected 0"
case "$out" in
  "usage: curvesig"*) ;;
  *) fail "'curvesig --help' printed no usage line on stdout" ;;
esac
count=$(curvesig enumerate 2 7 --max-genus 0 --max-double-points 1 --count) || fail "the full spelling failed"
abbreviated=$(curvesig enumerate 2 7 --max-g 0 --max-d 1 --count) || fail "the abbreviated spelling failed"
equals=$(curvesig enumerate 2 7 --max-genus=0 --max-double-points=1 --count) || fail "the '=' spelling failed"
if [ "$abbreviated" != "$count" ] || [ "$equals" != "$count" ]; then
  fail "'enumerate 2 7 ... --count' printed '$abbreviated' abbreviated and '$equals' with '=', expected '$count'"
fi

# a cusp list read from a file gives the verdict of the same cusps inline
cusps=$(mktemp)
echo '[[2, 3], [2, 3], [2, 3]]' > "$cusps"
status=0
curvesig bmy 3 4 --cusps-file "$cusps" > /dev/null || status=$?
rm -f "$cusps"
if [ "$status" -ne 1 ]; then
  fail "'curvesig bmy 3 4 --cusps-file FILE' exited with $status, expected 1"
fi

# the module route exits through its own SystemExit
expect 2 python -m curvesig.cli invariants 2
expect 1 python -m curvesig.cli bmy 3 4 --cusps 2,3 2,3 2,3

# an input error leaves stdout empty: mu and M_bar fit the int-to-str digit
# limit, the numerator of M does not
Q=$(python -c "import sys; print(10 ** (sys.get_int_max_str_digits() // 2 + 100) + 1)")
status=0
out=$(curvesig invariants 2 "$Q") || status=$?
if [ "$status" -ne 2 ] || [ -n "$out" ]; then
  fail "'curvesig invariants 2 Q' exited with $status and printed ${#out} bytes, expected 2 and none"
fi

# a closed stdout gives status 141 and nothing on stderr
stderr=$(mktemp)
set +o pipefail
curvesig signature 100 101 2> "$stderr" | head -n 1 > /dev/null
status=${PIPESTATUS[0]}
set -o pipefail
if [ "$status" -ne 141 ] || [ -s "$stderr" ]; then
  cat "$stderr"
  rm -f "$stderr"
  fail "'curvesig signature 100 101 | head -n 1' exited with $status, expected 141"
fi
rm -f "$stderr"

echo "minimal: all checks passed"
