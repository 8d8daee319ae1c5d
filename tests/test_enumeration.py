import inspect
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from curvesig import (
    Cusp,
    DeformationScenario,
    SearchBudget,
    candidate_cusps,
    count_admissible,
    enumerate_admissible,
    full_report,
    m_number,
    milnor_number,
)

A2 = Cusp(2, 3)


def all_multisets_with_bounded_milnor_sum(candidates, max_milnor_sum):
    """Independent oracle: every multiset of candidates with Milnor sum at
    most the bound, generated by per-candidate multiplicity counting."""
    multisets = []

    def extend(index, remaining, current):
        if index == len(candidates):
            multisets.append(tuple(current))
            return
        cusp = candidates[index]
        mu = milnor_number(cusp)
        for count in range(remaining // mu + 1):
            extend(index + 1, remaining - count * mu, current + [cusp] * count)

    extend(0, max_milnor_sum, [])
    return multisets


def brute_force_results(budget, multisets=None):
    """Unpruned reference enumeration: materialise the whole box, filter by
    the full report, sort by the canonical key.  The multisets default to
    those of candidate_cusps(mu_0) with Milnor sum at most mu_0."""
    if multisets is None:
        mu_central = milnor_number(budget.central)
        multisets = all_multisets_with_bounded_milnor_sum(candidate_cusps(mu_central), mu_central)
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

    def test_pruned_equals_brute_force_without_genus_formula(self):
        # without the genus filter the Milnor sum is not capped, but every
        # cusp has M >= M(2, 3) = 11/6, so the M bound caps the multiset
        # size; the pool (2, 3), (2, 5) holds the central cusp, whose
        # self-deformation a prune that forgot M_0 would lose
        central = Cusp(2, 5)
        pool = candidate_cusps(milnor_number(central))
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
