"""Acceptance suite.

One test per acceptance criterion; each prints an explicit pass line once its
assertions have gone through (visible with `pytest -s`).  All comparisons on
the exact routes use exact rational arithmetic, no tolerances; the only
floating point sits inside the Seifert-matrix cross-check, whose output is an
integer compared exactly.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from curvesig import (
    Cusp,
    DeformationScenario,
    SearchBudget,
    bidiagonal_seifert,
    enumerate_admissible,
    full_report,
    integral,
    jump_set,
    m_number,
    milnor_number,
    seifert_signature_at,
    torus_signature_at,
    torus_signature_function,
)
from curvesig.cli import parse_report, serialize_report

GRID = [
    (p, q)
    for p in range(2, 11)
    for q in range(p + 1, 101)
    if p * q <= 100 and gcd(p, q) == 1
]

RANDOM_POOL = [Cusp(2, 3), Cusp(2, 5), Cusp(2, 7), Cusp(2, 9), Cusp(3, 4), Cusp(3, 5)]


def _pass(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


def _random_scenario(rng) -> DeformationScenario:
    central = rng.choice(RANDOM_POOL)
    cusps = tuple(rng.choice(RANDOM_POOL) for _ in range(rng.randint(0, 4)))
    return DeformationScenario(central, cusps, rng.randint(0, 3), rng.randint(0, 2))


def test_1_integral_identity_window():
    """-3 * integral - M - mu lies strictly in (0, 2/9) on the whole grid."""
    started = time.monotonic()
    assert len(GRID) == 80
    for p, q in GRID:
        cusp = Cusp(p, q)
        d = (
            -3 * integral(torus_signature_function(cusp))
            - m_number(cusp)
            - milnor_number(cusp)
        )
        assert 0 < d < Fraction(2, 9), (p, q, d)
        if (p, q) == (2, 3):
            assert d == Fraction(1, 6)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(
        "[1] exact window 0 < -3*integral - M - mu < 2/9 on all "
        f"{len(GRID)} coprime pairs with pq <= 100, spot value D(2,3) = 1/6 "
        f"({elapsed:.1f}s)"
    )


def test_2_seifert_oracle_equivalence():
    """Floating-point Seifert route equals exact counting at 200 random
    non-jump rationals for each (2, q), q in {3, 5, 7, 9, 11}."""
    rng = random.Random(20240817)
    total = 0
    for q in (3, 5, 7, 9, 11):
        cusp = Cusp(2, q)
        matrix = bidiagonal_seifert(q)
        jumps = jump_set(cusp)
        samples = 0
        while samples < 200:
            x = Fraction(rng.randint(1, 9999), 10000)
            if x in jumps or x + 1 in jumps:
                continue
            samples += 1
            total += 1
            assert seifert_signature_at(matrix, x) == torus_signature_at(cusp, x), (q, x)
    _pass(f"[2] Seifert-matrix signatures equal the counting formula at {total} random points, zero mismatches")


def test_3_obstruction_reproduction():
    """The (2,7) -> 3x(2,3) scenario passes the genus formula and violates
    the M-number bound with exact sides 9/7 vs 2/9; the cusp-to-node
    scenario is admissible under all four checks."""
    a2, a6 = Cusp(2, 3), Cusp(2, 7)

    obstructed = full_report(DeformationScenario(a6, (a2, a2, a2), 0, 0))
    assert obstructed.genus_formula.holds
    assert obstructed.genus_formula.left == 6 == obstructed.genus_formula.right
    assert not obstructed.m_number_bound.holds
    assert obstructed.m_number_bound.left == Fraction(9, 7)
    assert obstructed.m_number_bound.right == Fraction(2, 9)
    assert obstructed.overall == "obstructed"

    admissible = full_report(DeformationScenario(a2, (), 1, 0))
    assert admissible.genus_formula.holds
    assert admissible.signature_bound.holds
    assert admissible.one_sided_bound.holds
    assert admissible.m_number_bound.holds
    assert admissible.overall == "admissible"
    _pass("[3] (2,7) -> 3x(2,3) violated with sides 9/7 vs 2/9; (2,3) -> node admissible under all four checks")


def _brute_force_scenarios(budget: SearchBudget):
    """Unpruned reference: all candidate multisets with Milnor sum at most
    the central Milnor number, crossed with the full budget box."""
    mu_central = milnor_number(budget.central)
    candidates = sorted(
        Cusp(p, q)
        for p in range(2, mu_central + 2)
        for q in range(p + 1, mu_central + 2)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= mu_central
    )

    multisets = []

    def extend(index, remaining, current):
        if index == len(candidates):
            multisets.append(tuple(current))
            return
        mu = milnor_number(candidates[index])
        for count in range(remaining // mu + 1):
            extend(index + 1, remaining - count * mu, current + [candidates[index]] * count)

    extend(0, mu_central, [])

    emitted = []
    for cusps in multisets:
        for genus in range(budget.max_genus + 1):
            for double_points in range(budget.max_double_points + 1):
                scenario = DeformationScenario(budget.central, cusps, double_points, genus)
                if full_report(scenario).admissible:
                    emitted.append(scenario)
    emitted.sort(key=lambda s: (s.cusps, s.genus, s.double_points))
    return emitted


def test_4_enumeration_matches_brute_force():
    """Pruned enumeration equals unpruned brute force, as ordered lists,
    for every central cusp with Milnor number at most 12."""
    started = time.monotonic()
    centrals = [
        Cusp(2, 3), Cusp(2, 5), Cusp(2, 7), Cusp(2, 9), Cusp(2, 11), Cusp(2, 13),
        Cusp(3, 4), Cusp(3, 5), Cusp(3, 7), Cusp(4, 5),
    ]
    assert all(milnor_number(c) <= 12 for c in centrals)
    checked = 0
    for central in centrals:
        budget = SearchBudget(central, max_genus=1, max_double_points=2)
        pruned = [r.scenario for r in enumerate_admissible(budget)]
        brute = _brute_force_scenarios(budget)
        assert pruned == brute, central
        checked += len(pruned)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _pass(
        f"[4] pruned search equals unpruned brute force (order included) for all 10 centrals "
        f"with mu <= 12, {checked} admissible configurations ({elapsed:.1f}s)"
    )


def test_5_property_suites():
    """Jump symmetry, cardinality = mu, evenness, conjugation symmetry,
    permutation invariance, self-deformation admissibility, document
    round-trip."""
    # jump multiset symmetry about 1 and cardinality over the whole grid
    for p, q in GRID:
        cusp = Cusp(p, q)
        elements = list(jump_set(cusp))
        assert len(elements) == (p - 1) * (q - 1) == milnor_number(cusp)
        for s in elements:
            assert elements.count(s) == elements.count(2 - s)

    # evenness and conjugation symmetry at random non-jump points
    rng = random.Random(5)
    samples = 0
    for p, q in GRID:
        cusp = Cusp(p, q)
        jumps = jump_set(cusp)
        per_pair = 0
        while per_pair < 7:
            x = Fraction(rng.randint(1, 9999), 10000)
            if x in jumps or x + 1 in jumps or (1 - x) in jumps or (2 - x) in jumps:
                continue
            per_pair += 1
            samples += 1
            value = torus_signature_at(cusp, x)
            assert value % 2 == 0
            assert value == torus_signature_at(cusp, 1 - x)
    assert samples >= 500

    # permutation invariance of all scenario checks, 500 randomized cases
    for seed in range(500):
        case = random.Random(seed)
        scenario = _random_scenario(case)
        shuffled = list(scenario.cusps)
        case.shuffle(shuffled)
        other = DeformationScenario(
            scenario.central, tuple(shuffled), scenario.double_points, scenario.genus
        )
        assert full_report(scenario) == full_report(other)

    # self-deformation is admissible for every cusp on the grid
    for p, q in GRID:
        cusp = Cusp(p, q)
        assert full_report(DeformationScenario(cusp, (cusp,), 0, 0)).admissible

    # report documents round-trip exactly, 500 randomized cases
    round_trip_rng = random.Random(123)
    for _ in range(500):
        report = full_report(_random_scenario(round_trip_rng))
        text = serialize_report(report)
        assert parse_report(text) == report
        assert serialize_report(parse_report(text)) == text
        assert json.loads(text)["overall"] in ("admissible", "obstructed")

    _pass(
        "[5] property suites: jump symmetry + cardinality on 80 pairs, evenness and "
        f"conjugation at {samples} points, permutation invariance and round-trip on 500 cases each, "
        "self-deformation on 80 cusps"
    )


def _independent_verdicts(scenario: DeformationScenario):
    """From-scratch reimplementation of the four inequalities, sharing no
    code with the library beyond the descriptor fields."""

    def sigma_multiset(p, q):
        return sorted(Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q))

    def sigma_at(p, q, x):
        s = sigma_multiset(p, q)
        inside = sum(1 for e in s if x < e < x + 1)
        return (len(s) - inside) - inside

    def mu(c):
        return (c.p - 1) * (c.q - 1)

    def m(c):
        return c.p + c.q - Fraction(c.p, c.q) - Fraction(c.q, c.p) - 1

    g, r = scenario.genus, scenario.double_points
    central, cusps = scenario.central, scenario.cusps

    genus_ok = mu(central) == 2 * g + 2 * r + sum(mu(c) for c in cusps)

    points = set()
    for c in {central, *cusps}:
        for s in sigma_multiset(c.p, c.q):
            points.add(s if s < 1 else s - 1)
    grid = [Fraction(0), *sorted(points), Fraction(1)]
    midpoints = [(grid[i] + grid[i + 1]) / 2 for i in range(len(grid) - 1)]

    signature_ok = True
    one_sided_ok = True
    for x in midpoints:
        central_value = sigma_at(central.p, central.q, x)
        fiber_value = sum(sigma_at(c.p, c.q, x) for c in cusps)
        if abs(central_value - (fiber_value - r)) > 2 * g + r:
            signature_ok = False
        if central_value - fiber_value > 2 * g:
            one_sided_ok = False

    m_ok = sum(m(c) for c in cusps) - m(central) < 8 * g + 2 * r + Fraction(2, 9)
    return genus_ok, signature_ok, one_sided_ok, m_ok


def test_6_admissibility_means_only_not_obstructed():
    """Admissibility verdicts agree with a from-scratch reimplementation of
    the inequalities on randomized scenarios; nothing in the suite asserts
    that an admissible deformation actually exists."""
    rng = random.Random(777)
    agreements = 0
    for _ in range(300):
        scenario = _random_scenario(rng)
        report = full_report(scenario)
        genus_ok, signature_ok, one_sided_ok, m_ok = _independent_verdicts(scenario)
        assert report.genus_formula.holds == genus_ok
        assert report.signature_bound.holds == signature_ok
        assert report.one_sided_bound.holds == one_sided_ok
        assert report.m_number_bound.holds == m_ok
        assert report.admissible == (genus_ok and signature_ok and one_sided_ok and m_ok)
        agreements += 1
    _pass(
        f"[6] verdicts match the independent inequality reimplementation on {agreements} scenarios; "
        "admissible means exactly 'not obstructed by these necessary conditions'"
    )
