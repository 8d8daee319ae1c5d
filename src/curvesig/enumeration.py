"""Search over generic-fiber configurations for a fixed central cusp.

The pool of fiber cusps is always `candidate_cusps(mu_0)`, every cusp whose
Milnor number is at most the central mu_0: Milnor numbers are upper
semicontinuous, so no fiber cusp of a deformation exceeds mu_0.  Multisets
of pool cusps are explored depth-first in lexicographic order and paired
with every genus and double-point count inside the budget box; a
configuration is emitted when it passes the obstruction checks.  Two
prunings cut the tree, both sound because every cusp has positive Milnor
number and positive M number, so both running sums only grow along a
branch:

  * when the genus formula is required, a branch whose Milnor sum already
    exceeds the central Milnor number can never satisfy it;
  * a branch whose M-number sum already violates the M-number bound at the
    most generous budget point (max_genus, max_double_points) violates it
    for every budget point and every extension.

When the genus formula is required, mu_0 = 2g + 2R + sum_k mu_k bounds g
and R by mu_0 // 2, so the box is clamped there; a larger budget changes
nothing.

Output order is canonical and deterministic: multisets non-decreasing
lexicographically, then genus, then double points.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator

from .deformation import (
    DeformationScenario,
    ObstructionReport,
    _count,
    _m_number_bound,
    full_report,
)
from .signature import _events
from .singularities import Cusp, _Record, m_number, milnor_number

__all__ = [
    "SearchBudget",
    "SearchResult",
    "candidate_cusps",
    "enumerate_admissible",
    "count_admissible",
]


class SearchBudget(_Record):
    """Search box for one central cusp.

    With `require_genus_formula` (the default) only fully admissible
    scenarios are emitted.  Without it the genus-formula equality is dropped
    from the emission filter: emitted reports then still carry its verdict,
    and may be marked obstructed by that check alone.
    """

    central: Cusp
    max_genus: int
    max_double_points: int
    require_genus_formula: bool

    def __init__(
        self,
        central: Cusp,
        max_genus: int,
        max_double_points: int,
        require_genus_formula: bool = True,
    ) -> None:
        if not isinstance(central, Cusp):
            raise TypeError(f"central singularity must be a Cusp, got {central!r}")
        _count(max_genus, "max_genus")
        _count(max_double_points, "max_double_points")
        if not isinstance(require_genus_formula, bool):
            raise TypeError(f"require_genus_formula must be a bool, got {require_genus_formula!r}")
        self.__dict__.update(
            central=central,
            max_genus=max_genus,
            max_double_points=max_double_points,
            require_genus_formula=require_genus_formula,
        )


class SearchResult(_Record):
    scenario: DeformationScenario
    report: ObstructionReport

    def __init__(self, scenario: DeformationScenario, report: ObstructionReport) -> None:
        if type(scenario) is not DeformationScenario or type(report) is not ObstructionReport:
            raise TypeError(f"need a DeformationScenario and an ObstructionReport, got {scenario!r}, {report!r}")
        self.__dict__.update(scenario=scenario, report=report)


def candidate_cusps(max_milnor: int) -> tuple[Cusp, ...]:
    """All cusps with Milnor number (p-1)(q-1) <= max_milnor, sorted by (p, q)."""
    found = []
    p = 2
    while (p - 1) * p <= max_milnor:  # smallest partner is q = p + 1
        for q in range(p + 1, max_milnor // (p - 1) + 2):
            if gcd(p, q) == 1:
                found.append(Cusp(p, q))
        p += 1
    return tuple(found)


def _emit_filter(report: ObstructionReport, budget: SearchBudget) -> bool:
    if budget.require_genus_formula:
        return report.admissible
    return (
        report.signature_bound.holds
        and report.one_sided_bound.holds
        and report.m_number_bound.holds
    )


def enumerate_admissible(budget: SearchBudget) -> Iterator[SearchResult]:
    """Yield every non-obstructed configuration inside the budget box, with
    fiber cusps from `candidate_cusps(mu_0)` (by semicontinuity no fiber cusp
    has a larger Milnor number).  Re-running produces identical output."""
    central = budget.central
    _events(central)  # refuses a central cusp over the Milnor cap before the pool is listed
    mu_central = milnor_number(central)
    pool = candidate_cusps(mu_central)
    max_genus, max_double_points = budget.max_genus, budget.max_double_points
    if budget.require_genus_formula:
        max_genus = min(max_genus, mu_central // 2)
        max_double_points = min(max_double_points, mu_central // 2)
    # the M-number bound of the empty fiber at the most generous budget point;
    # adding a branch's M sum to its left side gives that branch's bound
    loosest = _m_number_bound(DeformationScenario(central, (), max_double_points, max_genus))

    # preorder over an explicit stack, so no depth can raise RecursionError;
    # children are pushed in reverse so that they pop in canonical order
    stack = [((), 0, 0, Fraction(0))]
    while stack:
        chosen, start, mu_sum, m_sum = stack.pop()
        if budget.require_genus_formula and mu_sum > mu_central:
            continue
        if m_sum + loosest.left >= loosest.right:
            continue
        for genus in range(max_genus + 1):
            for double_points in range(max_double_points + 1):
                scenario = DeformationScenario(central, chosen, double_points, genus)
                report = full_report(scenario)
                if _emit_filter(report, budget):
                    yield SearchResult(scenario, report)
        for i in reversed(range(start, len(pool))):
            cusp = pool[i]
            stack.append((chosen + (cusp,), i, mu_sum + milnor_number(cusp), m_sum + m_number(cusp)))


def count_admissible(budget: SearchBudget) -> int:
    """Number of configurations enumerate_admissible would emit."""
    return sum(1 for _ in enumerate_admissible(budget))
