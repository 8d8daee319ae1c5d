"""Independent references for the test suite, each written once from the
definitions.  They share no code with the library: from `curvesig` they take
only the records they build (`Cusp`, `DeformationScenario`, `SeifertMatrix`)
and `full_report`, which the unpruned search uses as its filter.  Everything
is exact, and each reference is the slow, obvious route."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from curvesig import Cusp, DeformationScenario, SeifertMatrix, full_report

WINDOW_PAIRS = [(p, q) for p in range(2, 13) for q in range(p + 1, 76) if gcd(p, q) == 1 and p * q <= 150]


def milnor(cusp):
    return (cusp.p - 1) * (cusp.q - 1)


def m(cusp):
    p, q = cusp.p, cusp.q
    return p + q - Fraction(p, q) - Fraction(q, p) - 1


@lru_cache(maxsize=None)
def jump_multiset(p, q):
    """The sorted multiset {i/p + j/q : 0 < i < p, 0 < j < q}, by a double loop."""
    return tuple(sorted(Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q)))


def signature_at(cusp, x):
    """The Tristram-Levine signature at x: the jumps outside the window
    (x, x + 1) minus those inside it."""
    jumps = jump_multiset(cusp.p, cusp.q)
    inside = sum(1 for s in jumps if x < s < x + 1)
    return len(jumps) - 2 * inside


def random_non_breakpoint(rng, cusp):
    """Uniform rational in (0, 1), over 10000, with neither x nor x + 1 a
    jump of the cusp."""
    jumps = set(jump_multiset(cusp.p, cusp.q))
    while True:
        x = Fraction(rng.randint(1, 9999), 10000)
        if x not in jumps and x + 1 not in jumps:
            return x


def sweeps(scenario, at=Fraction(1, 2)):
    """Both sweeps over the common refinement of the scenario's cusps, each
    evaluated at the point `at` of the way across every interval (the
    midpoint by default), with every copy of every cusp counted.  Returns
    (witness, left) of the first maximiser for the signature bound, then
    for the one-sided bound."""
    points = {s - 1 if s > 1 else s for c in {scenario.central, *scenario.cusps} for s in jump_multiset(c.p, c.q)}
    grid = [Fraction(0), *sorted(points), Fraction(1)]
    two_sided = one_sided = None
    for lo, hi in zip(grid, grid[1:]):
        x = lo + (hi - lo) * at
        central = signature_at(scenario.central, x)
        fiber = sum(signature_at(c, x) for c in scenario.cusps)
        left = abs(central - (fiber - scenario.double_points))
        if two_sided is None or left > two_sided[1]:
            two_sided = (x, left)
        if one_sided is None or central - fiber > one_sided[1]:
            one_sided = (x, central - fiber)
    return two_sided, one_sided


def verdicts(scenario):
    """Whether the genus formula, the signature bound, the one-sided bound
    and the M-number bound hold, each from its inequality."""
    g, r = scenario.genus, scenario.double_points
    (_, two_sided), (_, one_sided) = sweeps(scenario)
    return (
        milnor(scenario.central) == 2 * g + 2 * r + sum(map(milnor, scenario.cusps)),
        two_sided <= 2 * g + r,
        one_sided <= 2 * g,
        sum(map(m, scenario.cusps)) - m(scenario.central) < 8 * g + 2 * r + Fraction(2, 9),
    )


def multisets_with_milnor_sum_at_most(candidates, bound):
    """Every multiset of the candidates with Milnor sum at most the bound, by
    choosing a multiplicity for each candidate in turn."""
    multisets = []

    def extend(index, remaining, current):
        if index == len(candidates):
            multisets.append(tuple(current))
            return
        mu = milnor(candidates[index])
        for count in range(remaining // mu + 1):
            extend(index + 1, remaining - count * mu, current + [candidates[index]] * count)

    extend(0, bound, [])
    return multisets


def brute_force_results(budget, multisets=None):
    """Unpruned search: every multiset crossed with the whole (g, R) box,
    filtered by the full report and sorted by the canonical key.  The
    multisets default to those of every cusp with Milnor number at most
    mu_0, listed here, with Milnor sum at most mu_0."""
    if multisets is None:
        mu_central = milnor(budget.central)
        candidates = sorted(
            Cusp(p, q)
            for p in range(2, mu_central + 2)
            for q in range(p + 1, mu_central + 2)
            if gcd(p, q) == 1 and (p - 1) * (q - 1) <= mu_central
        )
        multisets = multisets_with_milnor_sum_at_most(candidates, mu_central)
    rows = []
    for cusps in multisets:
        for genus in range(budget.max_genus + 1):
            for double_points in range(budget.max_double_points + 1):
                scenario = DeformationScenario(budget.central, cusps, double_points, genus)
                report = full_report(scenario)
                if budget.require_genus_formula:
                    emitted = report.admissible
                else:
                    emitted = (
                        report.signature_bound.holds
                        and report.one_sided_bound.holds
                        and report.m_number_bound.holds
                    )
                if emitted:
                    rows.append(scenario)
    rows.sort(key=lambda s: (s.cusps, s.genus, s.double_points))
    return rows


def _minus_one_bidiagonal(n):
    # B_n: (n - 1) x (n - 1), -1 on the diagonal and +1 just above it
    return [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n - 1)] for i in range(n - 1)]


def torus_seifert(cusp):
    """Seifert matrix V(p, q) = -(B_p (x) B_q) of the (p, q) torus knot: the
    Milnor fiber of x^p + y^q is the join of p and q points, so its Seifert
    form is the tensor product of the A_{p-1} and A_{q-1} forms."""
    bp, bq = _minus_one_bidiagonal(cusp.p), _minus_one_bidiagonal(cusp.q)
    return SeifertMatrix(tuple(
        tuple(-a * b for a in row_p for b in row_q) for row_p in bp for row_q in bq
    ))
