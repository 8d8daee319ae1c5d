import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from curvesig import (
    BreakpointEvaluation,
    Cusp,
    DeformationScenario,
    NearSingularForm,
    SearchBudget,
    SeifertMatrix,
    StepFunction,
    bidiagonal_seifert,
    candidate_cusps,
    enumerate_admissible,
    full_report,
    integral,
    m_number,
    milnor_number,
    seifert_signature_at,
    torus_signature_at,
    torus_signature_function,
)
from curvesig.singularities import _MAX_MILNOR, _numerators, _profile
from oracles import WINDOW_PAIRS, random_non_breakpoint, signature_at, torus_seifert

SMALL_PAIRS = [(p, q) for p in range(2, 7) for q in range(p + 1, 16) if gcd(p, q) == 1 and p * q <= 30]


def grid(fn: StepFunction) -> tuple[Fraction, ...]:
    """0, the breakpoints cuts[i] / denominator, and 1."""
    return (Fraction(0), *(Fraction(c, fn.denominator) for c in fn.cuts), Fraction(1))


class TestNumerators:
    # the jump at n/(pq) for each numerator n = iq + jp that every signature route reads

    def test_frozen_examples(self):
        assert sorted(_numerators(Cusp(2, 3))) == [5, 7]  # over 6
        assert sorted(_numerators(Cusp(2, 5))) == [7, 9, 11, 13]  # over 10

    def test_cardinality_and_symmetry_3_4(self):
        numerators = _numerators(Cusp(3, 4))
        assert len(numerators) == 6 == milnor_number(Cusp(3, 4))
        for n in numerators:
            assert numerators.count(n) == numerators.count(24 - n)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_symmetry_about_pq(self, p, q):
        numerators = _numerators(Cusp(p, q))
        for n in numerators:
            assert numerators.count(n) == numerators.count(2 * p * q - n)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_cardinality_is_milnor_number(self, p, q):
        # the jumps are distinct: no location is a multiple jump
        assert len(set(_numerators(Cusp(p, q)))) == milnor_number(Cusp(p, q))

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_ints_inside_0_2pq(self, p, q):
        assert all(type(n) is int and 0 < n < 2 * p * q for n in _numerators(Cusp(p, q)))


class TestTorusSignatureAt:
    def test_frozen_examples(self):
        assert torus_signature_at(Cusp(2, 3), Fraction(1, 2)) == -2
        assert torus_signature_at(Cusp(2, 3), Fraction(1, 12)) == 0
        assert torus_signature_at(Cusp(2, 5), Fraction(1, 2)) == -4

    def test_breakpoint_raises(self):
        # 5/6 is a jump location itself; 1/6 has 1/6 + 1 = 7/6 in the jump set
        with pytest.raises(BreakpointEvaluation):
            torus_signature_at(Cusp(2, 3), Fraction(5, 6))
        with pytest.raises(BreakpointEvaluation):
            torus_signature_at(Cusp(2, 3), Fraction(1, 6))

    def test_breakpoint_error_names_the_point(self):
        with pytest.raises(BreakpointEvaluation, match="1/6"):
            torus_signature_at(Cusp(2, 3), Fraction(1, 6))

    def test_rejects_arguments_outside_unit_interval(self):
        with pytest.raises(ValueError):
            torus_signature_at(Cusp(2, 3), Fraction(0))
        with pytest.raises(ValueError):
            torus_signature_at(Cusp(2, 3), Fraction(3, 2))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            torus_signature_at(Cusp(2, 3), 0.5)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_conjugation_symmetry(self, p, q):
        rng = random.Random(p * 100 + q)
        cusp = Cusp(p, q)
        for _ in range(10):
            x = random_non_breakpoint(rng, cusp)
            assert torus_signature_at(cusp, x) == torus_signature_at(cusp, 1 - x)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_values_always_even(self, p, q):
        rng = random.Random(p * 1000 + q)
        cusp = Cusp(p, q)
        for _ in range(10):
            assert torus_signature_at(cusp, random_non_breakpoint(rng, cusp)) % 2 == 0


class TestTorusSignatureFunction:
    def test_trefoil(self):
        fn = torus_signature_function(Cusp(2, 3))
        assert (fn.denominator, fn.cuts) == (6, (1, 5))
        assert fn.values == (0, -2, 0)

    def test_2_5(self):
        fn = torus_signature_function(Cusp(2, 5))
        assert (fn.denominator, fn.cuts) == (10, (1, 3, 7, 9))
        assert fn.values == (0, -2, -4, -2, 0)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_first_and_last_interval_values_are_zero(self, p, q):
        fn = torus_signature_function(Cusp(p, q))
        assert fn.values[0] == 0
        assert fn.values[-1] == 0

    @pytest.mark.parametrize("p,q", WINDOW_PAIRS)
    def test_agrees_with_pointwise_formula_at_random_interior_points(self, p, q):
        # the event scan against the direct window count; the breakpoints
        # are mu distinct points, each a jump of x or of x + 1
        cusp = Cusp(p, q)
        fn = torus_signature_function(cusp)
        assert len(fn.cuts) == milnor_number(cusp)
        rng = random.Random(17 * p + q)
        points = grid(fn)
        for lo, hi in zip(points, points[1:]):
            t = Fraction(rng.randint(1, 99), 100)
            x = lo + (hi - lo) * t
            assert fn.value_at(x) == torus_signature_at(cusp, x)
        for b in points[1:-1]:
            with pytest.raises(BreakpointEvaluation):
                torus_signature_at(cusp, b)


class TestProfile:
    @pytest.mark.parametrize("p,q", [*SMALL_PAIRS, (7, 11), (13, 20), (30, 61)])
    def test_one_cusp_is_its_signature_function(self, p, q):
        cusp = Cusp(p, q)
        fn = torus_signature_function(cusp)
        assert _profile({cusp: 1}) == (fn.denominator, fn.cuts, fn.values)
        assert fn.denominator == p * q

    def test_weight_zero_still_cuts(self):
        # (2,3) cuts at 5/30 and 25/30 without a step
        assert _profile({Cusp(2, 3): 0, Cusp(2, 5): 1}) == (
            30, (3, 5, 9, 21, 25, 27), (0, -2, -2, -4, -2, -2, 0)
        )

    def test_weighted_sum_against_the_window_count(self):
        # every profile is a valid record (least denominator included), and
        # its value is the weighted sum of the independent window counts
        rng = random.Random(29)
        pool = [Cusp(p, q) for p, q in SMALL_PAIRS]
        for _ in range(40):
            weights = {c: rng.randint(-3, 3) for c in rng.sample(pool, rng.randint(1, 4))}
            fn = StepFunction(*_profile(weights))
            points = grid(fn)
            for lo, hi, value in zip(points, points[1:], fn.values):
                x = (lo + hi) / 2
                assert value == sum(w * signature_at(c, x) for c, w in weights.items()), (weights, x)


class TestMilnorCap:
    # mu = 316 * 317 = 100 172, just above the cap
    OVER_CAP = Cusp(317, 318)

    def test_cap_admits_300_301(self):
        assert milnor_number(Cusp(300, 301)) <= _MAX_MILNOR < milnor_number(self.OVER_CAP)

    @pytest.mark.parametrize(
        "route",
        [
            _numerators,
            torus_signature_function,
            lambda c: torus_signature_at(c, Fraction(1, 2)),
            lambda c: full_report(DeformationScenario(c, (Cusp(2, 3),), 0, 0)),
            lambda c: full_report(DeformationScenario(Cusp(2, 3), (c,), 0, 0)),
            # refused before the candidate pool of mu <= 100 172 is listed
            lambda c: next(enumerate_admissible(SearchBudget(c, 0, 0))),
        ],
        ids=["_numerators", "function", "at", "central", "fiber", "enumerate"],
    )
    def test_every_route_refuses_a_cusp_over_the_cap(self, route):
        with pytest.raises(ValueError, match=f"above the cap of {_MAX_MILNOR}"):
            route(self.OVER_CAP)


class TestIntegral:
    def test_frozen_examples(self):
        assert integral(torus_signature_function(Cusp(2, 3))) == Fraction(-4, 3)
        assert integral(torus_signature_function(Cusp(2, 5))) == Fraction(-12, 5)

    def test_constant_zero(self):
        assert integral(StepFunction(1, (), (0,))) == 0

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_matches_midpoint_riemann_sum(self, p, q):
        fn = torus_signature_function(Cusp(p, q))
        points = grid(fn)
        riemann = sum(fn.value_at((lo + hi) / 2) * (hi - lo) for lo, hi in zip(points, points[1:]))
        assert integral(fn) == riemann

    @staticmethod
    def per_interval_sum(fn: StepFunction) -> Fraction:
        # the reference: one Fraction product per interval of the grid
        points = grid(fn)
        return sum((v * (hi - lo) for lo, hi, v in zip(points, points[1:], fn.values)), Fraction(0))

    def test_matches_per_interval_sum_on_mixed_denominators(self):
        rng = random.Random(13)
        for n in [0, 0, 1, 2, 3, 5, 8, 13, 40] * 20:
            breakpoints = set()
            while len(breakpoints) < n:
                denominator = rng.randint(2, 400)
                breakpoints.add(Fraction(rng.randint(1, denominator - 1), denominator))
            values = [rng.randint(-50, 50) for _ in range(n + 1)]
            # breakpoints of mixed denominators, held as cuts over their lcm
            common = lcm(*(b.denominator for b in breakpoints))
            cuts = sorted(b.numerator * (common // b.denominator) for b in breakpoints)
            fn = StepFunction(common, tuple(cuts), tuple(values))
            assert grid(fn)[1:-1] == tuple(sorted(breakpoints))
            assert integral(fn) == self.per_interval_sum(fn), fn
        for p, q in [(2, 5), (7, 11), (13, 20), (30, 61)]:
            fn = torus_signature_function(Cusp(p, q))
            assert integral(fn) == self.per_interval_sum(fn), (p, q)

    @pytest.mark.parametrize("p,q", SMALL_PAIRS)
    def test_bound_window(self, p, q):
        # spot check of the exact identity window on a small grid; the
        # acceptance suite runs the full sweep up to pq <= 100
        cusp = Cusp(p, q)
        d = -3 * integral(torus_signature_function(cusp)) - m_number(cusp) - milnor_number(cusp)
        assert 0 < d < Fraction(2, 9)

    def test_bound_window_closed_form(self):
        # integral of sigma_{p,q} is -(p^2-1)(q^2-1)/(3pq), so the window
        # quantity is exactly 1/(pq); checked on every coprime pair, pq <= 150
        assert len(WINDOW_PAIRS) == 139
        for p, q in WINDOW_PAIRS:
            cusp = Cusp(p, q)
            d = -3 * integral(torus_signature_function(cusp)) - m_number(cusp) - milnor_number(cusp)
            assert d == Fraction(1, p * q), (p, q)


class TestStepFunction:
    def test_value_lookup(self):
        fn = StepFunction(4, (1, 2), (5, -3, 7))
        assert fn.value_at(Fraction(1, 8)) == 5
        assert fn.value_at(Fraction(3, 8)) == -3
        assert fn.value_at(Fraction(3, 4)) == 7

    def test_value_at_breakpoint_raises(self):
        fn = StepFunction(4, (1,), (1, 2))
        with pytest.raises(BreakpointEvaluation):
            fn.value_at(Fraction(1, 4))
        # breakpoints in lower terms than the denominator, such as 14/20 = 7/10
        fn = torus_signature_function(Cusp(4, 5))
        assert fn.denominator == 20 and 14 in fn.cuts
        for b in grid(fn)[1:-1]:
            with pytest.raises(BreakpointEvaluation):
                fn.value_at(b)

    def test_value_outside_domain_raises(self):
        fn = StepFunction(4, (1,), (1, 2))
        with pytest.raises(ValueError):
            fn.value_at(Fraction(1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StepFunction(2, (1,), (1,))

    def test_breakpoints_must_be_interior(self):
        with pytest.raises(ValueError):
            StepFunction(2, (0,), (1, 2))
        with pytest.raises(ValueError):
            StepFunction(2, (2,), (1, 2))

    def test_breakpoints_must_be_sorted(self):
        with pytest.raises(ValueError):
            StepFunction(4, (2, 1), (1, 2, 3))

    def test_duplicate_breakpoints_rejected(self):
        # a duplicate would bound an empty interval, whose value means nothing
        with pytest.raises(ValueError, match="strictly increasing"):
            StepFunction(6, (1, 1, 5), (0, 99, -2, 0))

    def test_rejects_float_breakpoints_and_values(self):
        with pytest.raises(TypeError):
            StepFunction(4, (1.0,), (1, 2))
        with pytest.raises(TypeError):
            StepFunction(4, (1,), (1.0, 2))

    def test_rejects_bool_values(self):
        # an exact int is never a bool: True and False are not interval values
        with pytest.raises(TypeError):
            StepFunction(2, (1,), (True, False))
        with pytest.raises(TypeError):
            StepFunction(1, (), (False,))

    @pytest.mark.parametrize(
        "args,error",
        [
            ((8, (2,), (1, 2)), ValueError),
            ((6, (2, 4), (0, 1, 0)), ValueError),
            ((2, (), (0,)), ValueError),
            ((2, (True,), (1, 2)), TypeError),
            ((4, (0.25,), (1, 2)), TypeError),
            ((True, (), (0,)), TypeError),
            ((4.0, (1,), (1, 2)), TypeError),
            ((Fraction(4), (1,), (1, 2)), TypeError),
            ((4, (0, 1), (1, 2, 3)), ValueError),
            ((4, (1, 4), (1, 2, 3)), ValueError),
            ((4, (-1, 1), (1, 2, 3)), ValueError),
            ((4, (1, 1, 3), (1, 2, 3, 4)), ValueError),
            ((0, (), (0,)), ValueError),
            ((-3, (1,), (1, 2)), ValueError),
        ],
        ids=[
            "not_least_1_over_4", "not_least_thirds", "not_least_constant", "bool_cut", "float_cut",
            "bool_denominator", "float_denominator", "fraction_denominator", "cut_at_0",
            "cut_at_denominator", "negative_cut", "duplicate_cut", "zero_denominator",
            "negative_denominator",
        ],
    )
    def test_refuses(self, args, error):
        with pytest.raises(error):
            StepFunction(*args)

    def test_one_record_per_function(self):
        # the least denominator makes equal functions equal records
        assert StepFunction(1, (), (0,)) == StepFunction(1, [], [0])
        assert torus_signature_function(Cusp(2, 5)) == StepFunction(10, (1, 3, 7, 9), (0, -2, -4, -2, 0))

    def test_integral_ignores_breakpoints(self):
        fn = StepFunction(3, (1,), (3, -3))
        assert integral(fn) == 3 * Fraction(1, 3) + (-3) * Fraction(2, 3)

    def test_integral_is_a_function_only(self):
        # integral(fn) is the one route, so no method may shadow it
        assert not hasattr(StepFunction, "integral")
        assert not hasattr(torus_signature_function(Cusp(2, 3)), "integral")

    def test_cuts_are_the_one_view_of_the_breakpoints(self):
        # no Fraction view of the cuts: `grid` above builds one where a test needs it
        assert not hasattr(StepFunction, "breakpoints")
        assert not hasattr(torus_signature_function(Cusp(2, 3)), "breakpoints")


class TestBidiagonalSeifert:
    def test_trefoil_matrix(self):
        assert bidiagonal_seifert(3).entries == ((-1, 1), (0, -1))

    def test_2_5_matrix(self):
        assert bidiagonal_seifert(5).entries == (
            (-1, 1, 0, 0),
            (0, -1, 1, 0),
            (0, 0, -1, 1),
            (0, 0, 0, -1),
        )

    def test_rejects_even_or_small_q(self):
        with pytest.raises(ValueError):
            bidiagonal_seifert(4)
        with pytest.raises(ValueError):
            bidiagonal_seifert(1)
        with pytest.raises(ValueError):
            bidiagonal_seifert(-3)


class TestSeifertSignature:
    def test_trefoil_at_one_half(self):
        assert seifert_signature_at(SeifertMatrix(((-1, 1), (0, -1))), Fraction(1, 2)) == -2

    def test_2_5_at_one_half(self):
        assert seifert_signature_at(bidiagonal_seifert(5), Fraction(1, 2)) == -4

    def test_2_7_matches_counting_formula_at_one_half(self):
        assert (
            seifert_signature_at(bidiagonal_seifert(7), Fraction(1, 2))
            == torus_signature_at(Cusp(2, 7), Fraction(1, 2))
            == -6
        )

    def test_zero_form_raises_everywhere(self):
        zero = SeifertMatrix(((0,),))
        for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 11)):
            with pytest.raises(NearSingularForm):
                seifert_signature_at(zero, x)

    def test_near_jump_raises(self):
        # extremely close to the jump at 1/6 the smallest eigenvalue is tiny
        # relative to the largest, below the fixed threshold; a little
        # further away it is not
        near = Fraction(1, 6) + Fraction(1, 10**12)
        with pytest.raises(NearSingularForm):
            seifert_signature_at(bidiagonal_seifert(3), near)
        assert seifert_signature_at(bidiagonal_seifert(3), Fraction(1, 6) + Fraction(1, 10**8)) == -2

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_matches_counting_formula_at_random_points(self, q):
        # 25 samples per q here; the acceptance suite runs 200
        rng = random.Random(q)
        cusp = Cusp(2, q)
        matrix = bidiagonal_seifert(q)
        for _ in range(25):
            x = random_non_breakpoint(rng, cusp)
            assert seifert_signature_at(matrix, x) == torus_signature_at(cusp, x)


class TestTensorSeifert:
    PAIRS = [(p, q) for p in range(2, 62) for q in range(p + 1, 62)
             if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60]

    def test_pair_count(self):
        assert len(self.PAIRS) == 75

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 31])
    def test_p_two_is_the_bidiagonal_matrix(self, q):
        assert torus_seifert(Cusp(2, q)) == bidiagonal_seifert(q)

    @pytest.mark.parametrize("p,q", PAIRS)
    def test_matches_counting_formula_at_random_points(self, p, q):
        rng = random.Random(p * 100 + q)
        cusp = Cusp(p, q)
        matrix = torus_seifert(cusp)
        assert len(matrix.entries) == milnor_number(cusp)
        for _ in range(20):
            x = random_non_breakpoint(rng, cusp)
            assert seifert_signature_at(matrix, x) == torus_signature_at(cusp, x), x


def test_signature_functions_are_never_positive():
    # every torus-knot signature function is <= 0 on (0, 1), so subtracting
    # a fiber cusp's signature never lowers sigma_0 - sum_k sigma_k
    cusps = candidate_cusps(300)
    assert len(cusps) == 509
    for cusp in cusps:
        assert max(torus_signature_function(cusp).values) <= 0, cusp


def test_seifert_matrix_must_be_square():
    with pytest.raises(ValueError):
        SeifertMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        SeifertMatrix(())


def test_seifert_matrix_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        SeifertMatrix(((0.5,),))
