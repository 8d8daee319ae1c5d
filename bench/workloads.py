"""The four workloads: inputs made from a seed, the ops of one pass, and the
checks of their outputs.

Each workload has `setup(seed)`, which returns the pass's inputs;
`ops(inputs, trace)`, a generator that yields one result per op (the worker
times the gaps between yields); and `verify(inputs, results)`, which runs
after the timed pass and returns the number of failed ops and a list of
messages.  An op that raises yields a `Failure` instead of a result, and
`RESTART` marks the point from which the next op is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

import curvesig as cs
import curvesig.cli as cli

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"


RESTART = object()


class Failure:
    def __init__(self, error: BaseException, key=None):
        self.message = f"{type(error).__name__}: {error}"
        self.key = key


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# tabulate: one op is one coprime pair p < q with pq <= PAIR_LIMIT

PAIR_LIMIT = 260
# x = k / SEIFERT_DENOMINATOR is never a jump (odd numerator over 2q) because
# the denominator is a prime above 2q for every pair in the pool.
SEIFERT_DENOMINATOR = 999983
SEIFERT_TRIES = 8


class Workload:
    in_process = True  # False when each op is a child process

    @staticmethod
    def layer_metrics(results) -> dict:
        """Per-layer figures the workload counts itself."""
        return {}


class Tabulate(Workload):
    @staticmethod
    def setup(seed):
        rng = random.Random(seed)
        pairs = [(p, q) for p in range(2, PAIR_LIMIT) for q in range(p + 1, PAIR_LIMIT // p + 1)
                 if gcd(p, q) == 1]
        rng.shuffle(pairs)
        return [(p, q, [Fraction(rng.randrange(1, SEIFERT_DENOMINATOR), SEIFERT_DENOMINATOR)
                        for _ in range(SEIFERT_TRIES)] if p == 2 else [])
                for p, q in pairs]

    @staticmethod
    def ops(inputs, trace):
        for p, q, xs in inputs:
            try:
                yield Tabulate._op(p, q, xs)
            except Exception as err:
                yield Failure(err)

    @staticmethod
    def _op(p, q, xs):
        cusp = cs.Cusp(p, q)
        invariants = (cs.milnor_number(cusp), cs.m_number(cusp),
                      cs.m_bar_number(cusp), cs.n_squared_defect(cusp))
        fn = cs.torus_signature_function(cusp)
        total = cs.integral(fn)
        spot = None
        if xs:
            matrix = cs.bidiagonal_seifert(q)
            for retries, x in enumerate(xs):
                try:
                    spot = (x, cs.seifert_signature_at(matrix, x), fn.value_at(x), retries)
                    break
                except cs.NearSingularForm:
                    continue
        return invariants, total, spot

    @staticmethod
    def verify(inputs, results):
        errors = []
        for (p, q, xs), result in zip(inputs, results):
            error = Tabulate._check(p, q, xs, result)
            if error:
                errors.append(f"({p},{q}): {error}")
        return len(errors), errors

    @staticmethod
    def _check(p, q, xs, result):
        if isinstance(result, Failure):
            return result.message
        invariants, total, spot = result
        mu, m, m_bar = ref.milnor(p, q), ref.m_number(p, q), ref.m_bar_number(p, q)
        if invariants != (mu, m, m_bar, m_bar - m):
            return f"invariants {invariants}"
        if total != ref.signature_integral(p, q):
            return f"integral {total}"
        if -3 * total - m - mu != Fraction(1, p * q):
            return "-3*integral - M - mu != 1/(pq)"
        if xs:
            if spot is None:
                return f"Seifert form degenerate at all {len(xs)} points"
            x, seifert, exact, _ = spot
            expected = ref.signature_at(p, q, x)
            if (seifert, exact) != (expected, expected):
                return f"signature at {x}: Seifert {seifert}, exact {exact}, reference {expected}"
        return None

    @staticmethod
    def layer_metrics(results):
        return {"signature.seifert.retries": sum(
            r[2][3] for r in results if not isinstance(r, Failure) and r[2] is not None)}


# ---------------------------------------------------------------------------
# check: one op is full_report plus serialize_report on one scenario

REFERENCE_SCENARIOS = [((2, 7), [(2, 3)] * 3, 0, 0), ((2, 3), [], 1, 0)]
GENERATED_SCENARIOS = 58
CHECK_MU_MAX = 300
# the few distinct fiber cusps besides the copies of (2, 3)
DISTINCT_FIBER_CUSPS = [(2, 5), (2, 7), (3, 4), (3, 5), (2, 9), (3, 7), (4, 5)]


def _cusps_with_milnor_in(lo: int, hi: int) -> list[tuple[int, int]]:
    found = []
    p = 2
    while (p - 1) * p <= hi:
        for q in range(max(p + 1, lo // (p - 1) + 1), hi // (p - 1) + 2):
            if lo <= (p - 1) * (q - 1) <= hi and gcd(p, q) == 1:
                found.append((p, q))
        p += 1
    return found


class Check(Workload):
    @staticmethod
    def setup(seed):
        rng = random.Random(seed)
        plain = list(REFERENCE_SCENARIOS)
        n = GENERATED_SCENARIOS
        for i in range(n):
            # The cost of a report grows with mu_0 squared, so the target
            # mu_0 and the share of (2, 3) copies follow a fixed ladder and
            # the seed picks only among cusps of nearly the same size.
            target = max(2, round(CHECK_MU_MAX * ((i + 0.5) / n) ** 2.5))
            central = rng.choice(_cusps_with_milnor_in(max(2, target - 6), target))
            rest = ref.milnor(*central)
            cusps = []
            for _ in range(i % 4):
                c = rng.choice(DISTINCT_FIBER_CUSPS)
                if ref.milnor(*c) <= rest:
                    cusps.append(c)
                    rest -= ref.milnor(*c)
            copies = int(rest * (0.7 + 0.05 * (i % 5))) // 2
            cusps += [(2, 3)] * copies
            rest -= 2 * copies
            # 2g + 2R absorbs the rest; the genus formula fails when it is odd
            double_points = rng.randint(0, rest // 2)
            genus = rest // 2 - double_points
            rng.shuffle(cusps)
            plain.append((central, cusps, double_points, genus))
        rng.shuffle(plain)
        return [(s, cs.DeformationScenario(cs.Cusp(*s[0]), tuple(cs.Cusp(*c) for c in s[1]), s[2], s[3]))
                for s in plain]

    @staticmethod
    def ops(inputs, trace):
        for _, scenario in inputs:
            try:
                yield cli.serialize_report(cs.full_report(scenario))
            except Exception as err:
                yield Failure(err)

    @staticmethod
    def verify(inputs, results):
        errors = []
        for (plain, _), result in zip(inputs, results):
            if isinstance(result, Failure):
                errors.append(f"{plain}: {result.message}")
            elif _json_or_none(result) != ref.report_document(*plain):
                errors.append(f"{plain}: report differs from the lattice reference")
        return len(errors), errors


# ---------------------------------------------------------------------------
# enumerate: one op is one emitted configuration

ENUMERATE_POOL = [
    ((2, 13), 1, 2, True), ((3, 7), 1, 2, True), ((4, 5), 1, 2, True), ((3, 5), 1, 2, True),
    ((2, 9), 1, 2, True), ((2, 11), 2, 3, True), ((2, 5), 1, 2, False), ((2, 7), 1, 2, False),
]


def enumerate_key(entry) -> str:
    (p, q), genus, double_points, genus_formula = entry
    return f"({p},{q}) g<={genus} R<={double_points} genus_formula={genus_formula}"


def enumerate_line(result) -> str:
    s = result.scenario
    cusps = ",".join(f"({c.p},{c.q})" for c in s.cusps)
    return f"cusps=[{cusps}] genus={s.genus} double_points={s.double_points} overall={result.report.overall}"


class Enumerate(Workload):
    @staticmethod
    def setup(seed):
        entries = list(ENUMERATE_POOL)
        random.Random(seed).shuffle(entries)
        return [(entry, cs.SearchBudget(cs.Cusp(*entry[0]), entry[1], entry[2], entry[3]))
                for entry in entries]

    @staticmethod
    def ops(inputs, trace):
        for entry, budget in inputs:
            key = enumerate_key(entry)
            # The first emission of a search is timed from the search's start,
            # not from the previous search's last emission, so that no op's
            # latency depends on the seeded order of the pool.
            yield RESTART
            try:
                for result in cs.enumerate_admissible(budget):
                    yield key, enumerate_line(result)
            except Exception as err:
                yield Failure(err, key)

    @staticmethod
    def verify(inputs, results):
        expected = json.loads((EXPECTED / "enumerate.json").read_text())
        lines: dict[str, list[str]] = {enumerate_key(entry): [] for entry, _ in inputs}
        failed, errors = 0, []
        for result in results:
            if isinstance(result, Failure):
                failed += 1
                errors.append(f"{result.key}: {result.message}")
            else:
                lines[result[0]].append(result[1])
        for key, got in lines.items():
            want = expected[key]
            if (len(got), sha256(got)) != (want["count"], want["sha256"]):
                failed += len(got)
                errors.append(f"{key}: {len(got)} configurations, expected {want['count']} "
                              "or a different canonical output")
        return failed, errors


# ---------------------------------------------------------------------------
# cli: one op is one cold `python -m curvesig.cli ...` child process

def cli_command(args: list[str], importtime: bool = False) -> list[str]:
    return [sys.executable, *(["-X", "importtime"] if importtime else []), "-m", "curvesig.cli", *args]


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """module -> (depth, cumulative microseconds) from `-X importtime` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        found.setdefault(name.strip(), (depth, int(parts[1])))
    return found


def import_seconds(stderr: str, baseline: set[str]) -> tuple[float, float]:
    """(seconds in top-level imports a bare interpreter does not make,
    seconds in the numpy import)."""
    modules = parse_importtime(stderr)
    total = sum(us for name, (depth, us) in modules.items() if depth == 0 and name not in baseline)
    return total / 1e6, modules.get("numpy", (0, 0))[1] / 1e6


def run_child(command: list[str]) -> tuple[int, str, str, int]:
    """(exit status, stdout, stderr, peak RSS in KiB) of one child.  The RSS
    is the child's own, read from `os.wait4`: the worker's children also
    include the calibration chunks, so their combined peak would not do.
    Output goes to unnamed files in this directory rather than pipes, so
    that the child can be waited for before its output is read; a run that
    passes its deadline has its whole session killed by run.py."""
    with tempfile.TemporaryFile(dir=BENCH) as out, tempfile.TemporaryFile(dir=BENCH) as err:
        child = subprocess.Popen(command, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


class Cli(Workload):
    in_process = False

    @staticmethod
    def setup(seed):
        commands = json.loads((EXPECTED / "cli.json").read_text())
        random.Random(seed).shuffle(commands)
        return commands

    @staticmethod
    def ops(inputs, trace):
        for command in inputs:
            try:
                yield run_child(cli_command(command["args"], trace))
            except Exception as err:
                yield Failure(err)

    @staticmethod
    def verify(inputs, results):
        errors = []
        for command, result in zip(inputs, results):
            name = " ".join(command["args"])
            if isinstance(result, Failure):
                errors.append(f"{name}: {result.message}")
            elif result[:2] != (command["status"], command["stdout"]):
                errors.append(f"{name}: status {result[0]} (expected {command['status']}) "
                              "or stdout differs")
        return len(errors), errors

    @staticmethod
    def layer_metrics(results):
        ok = [r for r in results if not isinstance(r, Failure)]
        return {"cli.errors": sum(1 for r in ok if r[0] == 2)}


WORKLOADS = {"tabulate": Tabulate, "check": Check, "enumerate": Enumerate, "cli": Cli}
