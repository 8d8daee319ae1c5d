import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from curvesig import (
    Cusp,
    DeformationScenario,
    EqualityVerdict,
    RationalVerdict,
    SweepVerdict,
    bmy_check,
    full_report,
    torus_signature_at,
    torus_signature_function,
)
from curvesig.cli import ScenarioFormatError, parse_report, serialize_report

A2 = Cusp(2, 3)
A4 = Cusp(2, 5)
A6 = Cusp(2, 7)

CUSP_TO_NODE = DeformationScenario(A2, (), 1, 0)
A6_TO_THREE_A2 = DeformationScenario(A6, (A2, A2, A2), 0, 0)

WINDOW_PAIRS = [(p, q) for p in range(2, 13) for q in range(p + 1, 76) if gcd(p, q) == 1 and p * q <= 150]


def random_scenario(rng):
    pool = [A2, A4, A6, Cusp(3, 4), Cusp(3, 5)]
    central = rng.choice([A6, Cusp(3, 4), Cusp(3, 5), Cusp(2, 9), Cusp(2, 11)])
    cusps = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
    return DeformationScenario(central, cusps, rng.randint(0, 3), rng.randint(0, 2))


class TestScenarioConstruction:
    def test_rejects_non_cusp_central(self):
        with pytest.raises(TypeError):
            DeformationScenario("A2", (), 0, 0)

    def test_rejects_non_cusp_fiber_entries(self):
        with pytest.raises(TypeError):
            DeformationScenario(A2, ((2, 3),), 0, 0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DeformationScenario(A2, (), -1, 0)
        with pytest.raises(ValueError):
            DeformationScenario(A2, (), 0, -2)
        with pytest.raises(ValueError):
            DeformationScenario(A2, (), True, False)
        with pytest.raises(ValueError):
            DeformationScenario(A2, (), 0, True)

    def test_accepts_list_of_cusps(self):
        s = DeformationScenario(A2, [A2], 0, 0)
        assert s.cusps == (A2,)


class TestBettiNumber:
    def test_examples(self):
        assert full_report(DeformationScenario(A2, (), 1, 0)).betti == 1
        assert full_report(DeformationScenario(A6, (), 3, 2)).betti == 7
        assert full_report(DeformationScenario(A2, (A2,), 0, 0)).betti == 0


class TestGenusFormula:
    def test_cusp_to_node_holds(self):
        verdict = full_report(CUSP_TO_NODE).genus_formula
        assert verdict.holds and verdict.left == 2 and verdict.right == 2

    def test_a6_to_three_a2_holds(self):
        verdict = full_report(A6_TO_THREE_A2).genus_formula
        assert verdict.holds and verdict.left == 6 and verdict.right == 6

    def test_growing_milnor_number_fails(self):
        verdict = full_report(DeformationScenario(A2, (A4,), 0, 0)).genus_formula
        assert not verdict.holds and verdict.left == 2 and verdict.right == 4


class TestSignatureBound:
    def test_cusp_to_node_holds(self):
        # at every midpoint |sigma_0(x) + 1| <= 1 because sigma_0 is 0 or -2
        verdict = full_report(CUSP_TO_NODE).signature_bound
        assert verdict.holds
        assert verdict.left == 1 and verdict.right == 1
        assert abs(torus_signature_at(A2, Fraction(1, 2)) - (-1)) == 1

    def test_a6_to_three_a2_fails_on_full_sweep(self):
        # equality holds at 1/2 but midpoints near the breakpoint mismatch
        # around 1/14 versus 1/6 push the left side to 2 and beyond
        verdict = full_report(A6_TO_THREE_A2).signature_bound
        assert not verdict.holds
        assert verdict.right == 0
        assert verdict.left == 4
        central = torus_signature_function(A6).value_at(verdict.witness)
        fiber = 3 * torus_signature_function(A2).value_at(verdict.witness)
        assert abs(central - fiber) == verdict.left

    def test_self_deformation_margin_zero_everywhere(self):
        verdict = full_report(DeformationScenario(A2, (A2,), 0, 0)).signature_bound
        assert verdict.holds and verdict.left == 0 and verdict.right == 0


class TestOneSidedBound:
    def test_cusp_to_node_holds(self):
        verdict = full_report(CUSP_TO_NODE).one_sided_bound
        assert verdict.holds and verdict.right == 0
        assert verdict.left == 0  # sigma_0 <= 0 everywhere, max at 0

    def test_a6_to_three_a2_worst_margin(self):
        verdict = full_report(A6_TO_THREE_A2).one_sided_bound
        assert not verdict.holds
        assert verdict.left == 4 and verdict.right == 0
        assert verdict.margin == -4

    def test_self_deformation_equality(self):
        verdict = full_report(DeformationScenario(A4, (A4,), 0, 0)).one_sided_bound
        assert verdict.holds and verdict.left == 0 and verdict.right == 0


class TestMNumberBound:
    def test_a6_to_three_a2_violated(self):
        verdict = full_report(A6_TO_THREE_A2).m_number_bound
        assert not verdict.holds
        assert verdict.left == Fraction(9, 7)
        assert verdict.right == Fraction(2, 9)

    def test_cusp_to_node_holds(self):
        verdict = full_report(CUSP_TO_NODE).m_number_bound
        assert verdict.holds
        assert verdict.left == Fraction(-11, 6)
        assert verdict.right == 2 + Fraction(2, 9)

    def test_self_deformation(self):
        verdict = full_report(DeformationScenario(A6, (A6,), 0, 0)).m_number_bound
        assert verdict.holds and verdict.left == 0 and verdict.right == Fraction(2, 9)

    def test_equality_counts_as_violated(self):
        verdict = RationalVerdict(Fraction(1), Fraction(1))
        assert not verdict.holds

    def test_monotone_in_genus_and_double_points(self):
        # enlarging the budget only increases the right side
        for cusps in [(), (A2,), (A2, A2)]:
            for g in range(2):
                for r in range(2):
                    base = full_report(DeformationScenario(A6, cusps, r, g)).m_number_bound
                    if base.holds:
                        up_g = full_report(DeformationScenario(A6, cusps, r, g + 1)).m_number_bound
                        up_r = full_report(DeformationScenario(A6, cusps, r + 1, g)).m_number_bound
                        assert up_g.holds and up_r.holds


class TestFullReport:
    def test_a6_to_three_a2_obstructed(self):
        report = full_report(A6_TO_THREE_A2)
        assert report.overall == "obstructed" and not report.admissible
        assert report.genus_formula.holds
        assert not report.m_number_bound.holds

    def test_cusp_to_node_admissible_under_all_four_checks(self):
        report = full_report(CUSP_TO_NODE)
        assert report.admissible
        assert report.genus_formula.holds
        assert report.signature_bound.holds
        assert report.one_sided_bound.holds
        assert report.m_number_bound.holds
        assert report.betti == 1

    @pytest.mark.parametrize(
        "scenario",
        [CUSP_TO_NODE, A6_TO_THREE_A2, DeformationScenario(A6, (), 3, 2)],
    )
    def test_betti_is_the_signature_bound_right_side(self, scenario):
        report = full_report(scenario)
        assert report.betti == report.signature_bound.right == 2 * scenario.genus + scenario.double_points

    def test_growing_cusp_obstructed_by_genus_formula(self):
        report = full_report(DeformationScenario(A2, (A4,), 0, 0))
        assert report.overall == "obstructed"
        assert not report.genus_formula.holds

    def test_verdicts_are_independent(self):
        # m-number bound may fail while the genus formula holds and vice versa
        failing_m = full_report(A6_TO_THREE_A2)
        assert failing_m.genus_formula.holds and not failing_m.m_number_bound.holds
        failing_genus = full_report(DeformationScenario(A6, (A2,), 0, 0))
        assert not failing_genus.genus_formula.holds and failing_genus.m_number_bound.holds

    def test_report_rejects_inconsistent_overall(self):
        # overall is derived in memory; only a document can carry a wrong one
        document = json.loads(serialize_report(full_report(CUSP_TO_NODE)))
        assert document["overall"] == "admissible"
        document["overall"] = "obstructed"
        with pytest.raises(ScenarioFormatError):
            parse_report(json.dumps(document))


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(20))
    def test_reports_identical_under_reordering(self, seed):
        rng = random.Random(seed)
        scenario = random_scenario(rng)
        shuffled = list(scenario.cusps)
        rng.shuffle(shuffled)
        other = DeformationScenario(
            scenario.central, tuple(shuffled), scenario.double_points, scenario.genus
        )
        assert full_report(scenario) == full_report(other)


class TestSweepSufficiency:
    @pytest.mark.parametrize("seed", range(10))
    def test_resweep_at_random_interior_points(self, seed):
        rng = random.Random(1000 + seed)
        scenario = random_scenario(rng)
        points = set()
        for cusp in {scenario.central, *scenario.cusps}:
            points.update(torus_signature_function(cusp).breakpoints)
        grid = [Fraction(0), *sorted(points), Fraction(1)]

        def left_at(x):
            central = torus_signature_function(scenario.central).value_at(x)
            fiber = sum(torus_signature_function(c).value_at(x) for c in scenario.cusps)
            return abs(central - (fiber - scenario.double_points))

        worst = max(
            left_at((grid[i] + grid[i + 1]) / 2) for i in range(len(grid) - 1)
        )
        verdict = full_report(scenario).signature_bound
        assert verdict.left == worst
        # arbitrary interior points of each interval give the same sweep result
        for _ in range(3):
            t = Fraction(rng.randint(1, 999), 1000)
            resweep = max(
                left_at(grid[i] + (grid[i + 1] - grid[i]) * t)
                for i in range(len(grid) - 1)
            )
            assert resweep == worst

    @staticmethod
    def assert_matches_per_copy_reference(scenario):
        # the reference evaluates every copy of every cusp separately at every
        # midpoint of the common refinement and keeps the first maximiser
        points = set()
        for cusp in {scenario.central, *scenario.cusps}:
            points.update(torus_signature_function(cusp).breakpoints)
        grid = [Fraction(0), *sorted(points), Fraction(1)]
        two_sided = one_sided = None
        for i in range(len(grid) - 1):
            x = (grid[i] + grid[i + 1]) / 2
            central = torus_signature_function(scenario.central).value_at(x)
            fiber = sum(torus_signature_function(c).value_at(x) for c in scenario.cusps)
            left = abs(central - (fiber - scenario.double_points))
            if two_sided is None or left > two_sided[1]:
                two_sided = (x, left)
            if one_sided is None or central - fiber > one_sided[1]:
                one_sided = (x, central - fiber)
        report = full_report(scenario)
        for verdict, (witness, left) in [
            (report.signature_bound, two_sided),
            (report.one_sided_bound, one_sided),
        ]:
            assert (verdict.witness, verdict.left) == (witness, left)

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_cusps_match_per_copy_reference(self, seed):
        # both sweeps weight each distinct cusp by its multiplicity
        rng = random.Random(2000 + seed)
        if seed == 0:
            cusps = [A2] * 12 + [Cusp(3, 4)] * 3 + [A4]
        else:
            pool = [A2, A4, A6, Cusp(3, 4), Cusp(3, 5)]
            cusps = [rng.choice([A2, A4, Cusp(3, 4)])] * rng.randint(5, 12)
            cusps += [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            rng.shuffle(cusps)
        scenario = DeformationScenario(
            rng.choice([Cusp(2, 31), Cusp(5, 7), Cusp(4, 9)]), tuple(cusps), rng.randint(0, 3), rng.randint(0, 2)
        )
        assert max(Counter(scenario.cusps).values()) >= 5
        self.assert_matches_per_copy_reference(scenario)

    @pytest.mark.parametrize(
        "scenario,witness",
        [
            # the central cusp cancels against its fiber copy, net weight 0
            (DeformationScenario(A4, (A4,), 0, 0), Fraction(1, 20)),
            # the same, and 1/6 and 5/6 are breakpoints of both (2,3) and (2,9)
            (DeformationScenario(Cusp(2, 9), (A2, Cusp(2, 9)), 1, 0), Fraction(2, 9)),
            # the same, and 1/6 and 5/6 are breakpoints of both (2,3) and (3,4)
            (DeformationScenario(Cusp(3, 4), (A2, A2, Cusp(3, 4)), 0, 1), Fraction(7, 24)),
        ],
        ids=["2,5-to-itself", "2,9-with-trefoil", "3,4-with-two-trefoils"],
    )
    def test_cancelling_cusps_still_cut_the_refinement(self, scenario, witness):
        # a cusp whose weights cancel keeps its breakpoints; without them
        # the first interval grows and the witness moves to 1/2
        self.assert_matches_per_copy_reference(scenario)
        report = full_report(scenario)
        assert report.signature_bound.witness == witness
        assert report.one_sided_bound.witness == witness


class TestSelfDeformation:
    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in range(2, 7) for q in range(p + 1, 16) if gcd(p, q) == 1 and p * q <= 40]
    )
    def test_always_admissible(self, p, q):
        cusp = Cusp(p, q)
        assert full_report(DeformationScenario(cusp, (cusp,), 0, 0)).admissible


class TestBmyCheck:
    def test_trefoil_on_2_3_curve_holds(self):
        verdict = bmy_check(2, 3, [A2], 0)
        assert verdict.holds
        assert verdict.left == Fraction(11, 6)
        assert verdict.right == Fraction(37, 18)

    def test_smooth_2_3_curve_holds(self):
        verdict = bmy_check(2, 3, [], 0)
        assert verdict.holds and verdict.left == 0 and verdict.right == Fraction(37, 18)

    def test_three_a2_on_3_4_curve_violated(self):
        verdict = bmy_check(3, 4, [A2, A2, A2], 0)
        assert not verdict.holds
        assert verdict.left == Fraction(33, 6)
        assert verdict.right == Fraction(149, 36)

    def test_double_points_relax_the_bound(self):
        tight = bmy_check(3, 4, [A2, A2, A2], 0)
        relaxed = bmy_check(3, 4, [A2, A2, A2], 1)
        assert not tight.holds and relaxed.holds
        assert relaxed.right - tight.right == 2

    @pytest.mark.parametrize("p,q", WINDOW_PAIRS)
    def test_matches_closed_form(self, p, q):
        # the docstring's inequality, with M written out for each fiber cusp
        rng = random.Random(p * 1000 + q)
        pool = [A2, A4, A6, Cusp(3, 4), Cusp(3, 5), Cusp(p, q)]
        cusps = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        sum_m = sum((c.p + c.q - Fraction(c.p, c.q) - Fraction(c.q, c.p) - 1 for c in cusps), Fraction(0))
        for double_points in (0, 1, 2):
            verdict = bmy_check(p, q, cusps, double_points)
            right = p + q - Fraction(p, q) - Fraction(q, p) - Fraction(7, 9) + 2 * double_points
            assert (verdict.left, verdict.right) == (sum_m, right)
            assert verdict.holds == (sum_m < right)

    def test_rejects_non_coprime_bidegree(self):
        with pytest.raises(ValueError, match="coprime"):
            bmy_check(2, 4, [], 0)

    def test_rejects_negative_double_points(self):
        with pytest.raises(ValueError):
            bmy_check(2, 3, [], -1)
        with pytest.raises(ValueError):
            bmy_check(2, 3, [], True)


def test_verdict_margin_properties():
    sweep = SweepVerdict(Fraction(1, 2), 1, 3)
    assert sweep.margin == 2
    rational = RationalVerdict(Fraction(1, 3), Fraction(1, 2))
    assert rational.margin == Fraction(1, 6)
    equality = EqualityVerdict(4, 4)
    assert equality.left == equality.right
