import hashlib
import inspect
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

import pytest

import curvesig.enumeration
from curvesig import (
    Cusp,
    SearchBudget,
    candidate_cusps,
    count_admissible,
    enumerate_admissible,
    full_report,
    m_number,
    milnor_number,
)
from oracles import brute_force_results

A2 = Cusp(2, 3)


class TestCandidateCusps:
    def test_small_bounds(self):
        assert candidate_cusps(2) == (Cusp(2, 3),)
        assert candidate_cusps(4) == (Cusp(2, 3), Cusp(2, 5))

    def test_milnor_twelve_universe(self):
        expected = {
            Cusp(2, 3), Cusp(2, 5), Cusp(2, 7), Cusp(2, 9), Cusp(2, 11), Cusp(2, 13),
            Cusp(3, 4), Cusp(3, 5), Cusp(3, 7), Cusp(4, 5),
        }
        assert set(candidate_cusps(12)) == expected

    def test_sorted_and_within_bound(self):
        pool = candidate_cusps(20)
        assert list(pool) == sorted(pool)
        assert all(milnor_number(c) <= 20 for c in pool)

    def test_emitted_in_p_q_order(self):
        for n in range(201):
            assert candidate_cusps(n) == tuple(sorted(candidate_cusps(n)))

    def test_misses_nothing(self):
        pool = set(candidate_cusps(24))
        for p in range(2, 27):
            for q in range(p + 1, 30):
                if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 24:
                    assert Cusp(p, q) in pool


class TestEnumerateAdmissible:
    def test_trefoil_unit_budget(self):
        budget = SearchBudget(A2, max_genus=0, max_double_points=1)
        results = list(enumerate_admissible(budget))
        configs = [
            (r.scenario.cusps, r.scenario.genus, r.scenario.double_points) for r in results
        ]
        assert configs == [((), 0, 1), ((A2,), 0, 0)]

    def test_a6_budget_includes_itself_excludes_three_a2(self):
        budget = SearchBudget(Cusp(2, 7), max_genus=0, max_double_points=0)
        cusp_lists = [r.scenario.cusps for r in enumerate_admissible(budget)]
        assert (Cusp(2, 7),) in cusp_lists
        assert (A2, A2, A2) not in cusp_lists

    @pytest.mark.parametrize("search", [enumerate_admissible, count_admissible])
    def test_pool_is_not_a_parameter(self, search):
        # the pool is always candidate_cusps(mu_0), by semicontinuity
        assert list(inspect.signature(search).parameters) == ["budget"]

    def test_only_admissible_reports_are_emitted(self):
        budget = SearchBudget(Cusp(2, 9), max_genus=1, max_double_points=1)
        for result in enumerate_admissible(budget):
            assert result.report.admissible
            assert result.report == full_report(result.scenario)


class TestCanonicalOrder:
    def test_strictly_increasing_keys(self):
        budget = SearchBudget(Cusp(2, 9), max_genus=1, max_double_points=2)
        keys = [
            (r.scenario.cusps, r.scenario.genus, r.scenario.double_points)
            for r in enumerate_admissible(budget)
        ]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_rerun_is_identical(self):
        budget = SearchBudget(Cusp(3, 4), max_genus=1, max_double_points=1)
        assert list(enumerate_admissible(budget)) == list(enumerate_admissible(budget))


class TestOracleEquivalence:
    @pytest.mark.parametrize("central", [A2, Cusp(2, 5), Cusp(2, 7), Cusp(3, 4)])
    def test_pruned_equals_brute_force(self, central):
        budget = SearchBudget(central, max_genus=1, max_double_points=2)
        pruned = [r.scenario for r in enumerate_admissible(budget)]
        assert pruned == brute_force_results(budget)

    @pytest.mark.parametrize("central", [A2, Cusp(2, 5), Cusp(2, 7), Cusp(3, 4)])
    def test_pruned_equals_brute_force_without_genus_formula(self, central):
        # without the genus filter the Milnor sum is not capped, but every
        # cusp has M >= M(2, 3) = 11/6, so the M bound caps the multiset
        # size; the pool holds the central cusp, whose self-deformation a
        # prune that forgot M_0 would lose, and for (2, 5) it is no more
        pool = candidate_cusps(milnor_number(central))
        if central == Cusp(2, 5):
            assert pool == (A2, central)
        for max_genus, max_double_points in [(0, 1), (1, 2)]:
            budget = SearchBudget(
                central, max_genus, max_double_points, require_genus_formula=False
            )
            loosest = m_number(budget.central) + 8 * max_genus + 2 * max_double_points + 1
            multisets = [
                cusps
                for size in range(int(loosest / Fraction(11, 6)) + 1)
                for cusps in combinations_with_replacement(pool, size)
            ]
            pruned = [r.scenario for r in enumerate_admissible(budget)]
            assert pruned == brute_force_results(budget, multisets=multisets)

    @pytest.mark.parametrize("central", [A2, Cusp(2, 5), Cusp(2, 7), Cusp(3, 4)])
    def test_budget_past_half_the_milnor_number(self, central):
        # the walk clamps g and R at mu_0 // 2; the reference walks the
        # whole box, so the clamp must lose nothing
        bound = milnor_number(central) // 2 + 3
        budget = SearchBudget(central, max_genus=bound, max_double_points=bound)
        pruned = [r.scenario for r in enumerate_admissible(budget)]
        assert pruned == brute_force_results(budget)


class TestLargeSearches:
    """The streams of two searches that a faster walk must not change, with
    the count and the SHA-256 of the results' reprs, one per line; a repr
    holds every scenario field and every verdict side and witness."""

    PINS = {
        (Cusp(2, 31), 1, 2, True): (155, "3bd1a913455704001fcf1b451ca0bc796fa01bd3bfc9e8bce759da4e970652dd"),
        (Cusp(2, 13), 1, 2, False): (70, "a27b56266bff44bd5587e9fd016af26eb429afa89cf1f549456f5b678ff14a2a"),
    }

    @pytest.mark.parametrize("search", PINS, ids=["2_31_genus_formula", "2_13_no_genus_formula"])
    def test_stream_is_pinned(self, search):
        lines = [repr(result) for result in enumerate_admissible(SearchBudget(*search))]
        assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == self.PINS[search]


class TestWalkWork:
    """How much work the walk does, not only what it emits: (configurations
    emitted, reports built).  The prunes and the genus clamp change only the
    work, so these pins are what sees them.  A walk that does less work on
    purpose (ROADMAP items 2 and 3) changes these counts, and records the
    new ones in CHANGES.md."""

    PINS = {
        (Cusp(2, 9), 0, 0, True): (1, 9),
        (A2, 5, 5, True): (3, 8),
        (Cusp(2, 9), 1, 2, False): (50, 1818),
    }

    @pytest.mark.parametrize("search", PINS, ids=["2_9_genus_formula", "2_3_clamped", "2_9_no_genus_formula"])
    def test_work_is_pinned(self, search, monkeypatch):
        reports = []

        def counted(scenario):
            reports.append(scenario)
            return full_report(scenario)

        monkeypatch.setattr(curvesig.enumeration, "full_report", counted)
        assert (count_admissible(SearchBudget(*search)), len(reports)) == self.PINS[search]


# the centrals with mu_0 <= 10 and every budget up to (3, 3) with the genus
# formula and up to (1, 1) without it, which costs most: sized so that the
# relation tests take about 1 s and the pinned searches above about 2 s
RELATION_CENTRALS = candidate_cusps(10)
RELATION_BOXES = {True: (3, 3), False: (1, 1)}


@lru_cache(maxsize=None)
def box_results(central, genus_formula):
    """The results of every budget (g, R) inside the relation box."""
    max_genus, max_double_points = RELATION_BOXES[genus_formula]
    return {
        (g, r): list(enumerate_admissible(SearchBudget(central, g, r, genus_formula)))
        for g in range(max_genus + 1)
        for r in range(max_double_points + 1)
    }


def points(results):
    return {(x.scenario.cusps, x.scenario.genus, x.scenario.double_points) for x in results}


class TestSearchRelations:
    """Relations that any correct walk satisfies, with no reference code."""

    def test_central_count(self):
        assert len(RELATION_CENTRALS) == 7

    @pytest.mark.parametrize("genus_formula", [True, False])
    @pytest.mark.parametrize("central", RELATION_CENTRALS, ids=str)
    def test_budget_monotonicity(self, central, genus_formula):
        # a box is the next larger box with its new points filtered out, in order
        results = box_results(central, genus_formula)
        for (g, r), found in results.items():
            for larger in [(g + 1, r), (g, r + 1)]:
                if larger in results:
                    kept = [x for x in results[larger] if x.scenario.genus <= g and x.scenario.double_points <= r]
                    assert found == kept, (g, r, larger)

    @pytest.mark.parametrize("central", RELATION_CENTRALS, ids=str)
    def test_up_set_without_the_genus_formula(self, central):
        # fact (c): raising g or R inside the box keeps a point emitted
        for (g, r), found in box_results(central, False).items():
            emitted = points(found)
            for cusps, genus, double_points in emitted:
                if genus < g:
                    assert (cusps, genus + 1, double_points) in emitted
                if double_points < r:
                    assert (cusps, genus, double_points + 1) in emitted

    @pytest.mark.parametrize("central", RELATION_CENTRALS, ids=str)
    def test_up_set_with_the_genus_formula(self, central):
        # a point emitted with the genus formula passes the other three checks,
        # so by fact (c) it and its raised points inside the box are emitted
        # without it; those without it are the ones whose genus formula holds
        with_formula, without = box_results(central, True), box_results(central, False)
        for box, found in without.items():
            assert with_formula[box] == [x for x in found if x.report.genus_formula.holds]
            emitted = points(found)
            for cusps, genus, double_points in points(with_formula[box]):
                for g, r in [(genus + 1, double_points), (genus, double_points + 1)]:
                    if g <= box[0] and r <= box[1]:
                        assert (cusps, g, r) in emitted


class TestCountAdmissible:
    def test_matches_examples(self):
        assert count_admissible(SearchBudget(A2, 0, 1)) == 2

    @pytest.mark.parametrize("central", [A2, Cusp(2, 7), Cusp(3, 4)])
    def test_equals_stream_length(self, central):
        budget = SearchBudget(central, max_genus=1, max_double_points=1)
        assert count_admissible(budget) == len(list(enumerate_admissible(budget)))


class TestHugeBudget:
    def test_genus_formula_bounds_the_box(self, deadline):
        # the unclamped (g, R) box made this run without end
        huge = 99999999999999999999
        assert count_admissible(SearchBudget(A2, huge, 0)) == count_admissible(SearchBudget(A2, 1, 0)) == 2
        assert count_admissible(SearchBudget(Cusp(2, 7), huge, huge)) == count_admissible(
            SearchBudget(Cusp(2, 7), 3, 3)
        )


class TestDeepWalk:
    def test_no_recursion_error_under_a_low_limit(self, run_python):
        # a child interpreter, so that pytest's own frames do not count
        proc = run_python(
            "import sys\n"
            "from curvesig import Cusp, SearchBudget, count_admissible\n"
            "sys.setrecursionlimit(30)\n"
            "print(count_admissible(SearchBudget(Cusp(2, 3), 12, 0, False)))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "103\n"


class TestBudgetValidation:
    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            SearchBudget(A2, -1, 0)
        with pytest.raises(ValueError):
            SearchBudget(A2, 0, -1)
        with pytest.raises(ValueError):
            SearchBudget(A2, True, 0)
        with pytest.raises(ValueError):
            SearchBudget(A2, 0, True)

    def test_rejects_non_cusp_central(self):
        with pytest.raises(TypeError):
            SearchBudget("A2", 0, 0)

    @pytest.mark.parametrize("flag", ["False", None, 0], ids=["str", "None", "int"])
    def test_rejects_non_bool_genus_formula_flag(self, flag):
        with pytest.raises(TypeError, match="require_genus_formula must be a bool"):
            SearchBudget(A2, 1, 2, flag)
