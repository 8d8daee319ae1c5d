"""The value-type contract shared by every public curvesig record."""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

import curvesig
from curvesig import (
    Cusp,
    DeformationScenario,
    EqualityVerdict,
    ObstructionReport,
    RationalVerdict,
    SearchBudget,
    SearchResult,
    SeifertMatrix,
    StepFunction,
    SweepVerdict,
)

SCENARIO = DeformationScenario(Cusp(2, 7), (Cusp(2, 3),), 1, 0)
REPORT_ARGS = (
    EqualityVerdict(6, 4),
    SweepVerdict(Fraction(1, 2), 3, 1),
    SweepVerdict(Fraction(1, 4), 2, 0),
    RationalVerdict(Fraction(-41, 14), Fraction(20, 9)),
)
REPORT = ObstructionReport(*REPORT_ARGS)

# each record type with positional arguments that construct it
SAMPLES = [
    (Cusp, (2, 3)),
    (StepFunction, (2, (1,), (0, 2))),
    (SeifertMatrix, (((-1, 1), (0, -1)),)),
    (DeformationScenario, (Cusp(2, 7), (Cusp(2, 3),), 1, 0)),
    (EqualityVerdict, (6, 4)),
    (SweepVerdict, (Fraction(1, 2), 3, 1)),
    (RationalVerdict, (Fraction(-41, 14), Fraction(20, 9))),
    (ObstructionReport, REPORT_ARGS),
    (SearchBudget, (Cusp(2, 3), 1, 1, False)),
    (SearchResult, (SCENARIO, REPORT)),
]


@pytest.fixture(params=SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def sample(request):
    return request.param


def fields_of(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


class TestConstruction:
    def test_positional_and_keyword_agree(self, sample):
        cls, args = sample
        record = cls(*args)
        assert cls(**dict(zip(cls.__match_args__, args))) == record
        assert fields_of(record) == args

    def test_stores_exactly_its_fields(self, sample):
        cls, args = sample
        assert tuple(vars(cls(*args))) == cls.__match_args__

    def test_wrong_argument_count(self, sample):
        cls, args = sample
        with pytest.raises(TypeError):
            cls(*args, 0)
        with pytest.raises(TypeError):
            cls()

    def test_search_budget_requires_genus_formula_by_default(self):
        assert SearchBudget(Cusp(2, 3), 1, 1).require_genus_formula is True
        assert SearchBudget(Cusp(2, 3), 1, 1) == SearchBudget(Cusp(2, 3), 1, 1, True)


class TestFieldTypes:
    """A record refuses what the report parser refuses: the sides of a
    verdict are exact (never a bool or a float) and a witness lies in (0, 1)."""

    def test_inexact_report_is_refused(self):
        with pytest.raises(TypeError):
            ObstructionReport(
                EqualityVerdict(True, 1.0),
                SweepVerdict(0.25, 1.5, 2),
                SweepVerdict(Fraction(3, 2), 0, -1),
                RationalVerdict(0.1, 2),
            )

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, Fraction(1, 2), "1", None])
    def test_equality_sides_are_int(self, bad):
        for args in [(bad, 1), (1, bad)]:
            with pytest.raises(TypeError):
                EqualityVerdict(*args)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, Fraction(1, 2), "1", None])
    def test_sweep_sides_are_int(self, bad):
        for args in [(Fraction(1, 2), bad, 1), (Fraction(1, 2), 1, bad)]:
            with pytest.raises(TypeError):
                SweepVerdict(*args)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
    def test_sweep_witness_lies_in_the_open_unit_interval(self, bad):
        with pytest.raises(ValueError, match="open interval"):
            SweepVerdict(bad, 0, 0)

    @pytest.mark.parametrize("bad", [0.25, 0.5, True, 0, 1, "1/2"])
    def test_sweep_witness_is_a_fraction(self, bad):
        with pytest.raises(TypeError):
            SweepVerdict(bad, 0, 0)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.1, "1/2", None])
    def test_rational_sides_are_fraction_or_int(self, bad):
        for args in [(bad, Fraction(1, 2)), (Fraction(1, 2), bad)]:
            with pytest.raises(TypeError):
                RationalVerdict(*args)
        assert RationalVerdict(1, Fraction(1, 2)) == RationalVerdict(Fraction(1), Fraction(1, 2))

    @pytest.mark.parametrize("slot", range(4))
    def test_report_slots_hold_their_verdict_types(self, slot):
        name = ObstructionReport.__match_args__[slot]
        for bad in [*(v for i, v in enumerate(REPORT_ARGS) if type(v) is not type(REPORT_ARGS[slot])), None, (6, 4)]:
            args = list(REPORT_ARGS)
            args[slot] = bad
            with pytest.raises(TypeError, match=name):
                ObstructionReport(*args)

    def test_search_result_holds_a_scenario_and_a_report(self):
        for args in [(REPORT, REPORT), (SCENARIO, SCENARIO), (None, REPORT), (SCENARIO, REPORT_ARGS)]:
            with pytest.raises(TypeError):
                SearchResult(*args)


class TestEquality:
    def test_equal_values_are_equal_with_equal_hashes(self, sample):
        cls, args = sample
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_to_a_tuple_or_another_type(self, sample):
        cls, args = sample
        record = cls(*args)
        assert record != fields_of(record)
        assert record != SimpleNamespace(**vars(record))

    def test_records_with_the_same_fields_but_another_type_differ(self):
        assert EqualityVerdict(1, 2) != RationalVerdict(1, 2)
        assert RationalVerdict(1, 2) != EqualityVerdict(1, 2)

    def test_unequal_fields_differ(self):
        assert Cusp(2, 3) != Cusp(2, 5)
        assert SearchBudget(Cusp(2, 3), 1, 1) != SearchBudget(Cusp(2, 3), 1, 1, False)


class TestImmutability:
    def test_fields_cannot_be_assigned_or_deleted(self, sample):
        cls, args = sample
        record = cls(*args)
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*args)
        assert not hasattr(record, "extra")


class TestRepr:
    def test_cusp_repr(self):
        assert repr(Cusp(3, 2)) == "Cusp(p=2, q=3)"

    def test_repr_evaluates_back(self, sample):
        cls, args = sample
        record = cls(*args)
        assert repr(record).startswith(f"{cls.__name__}(")
        assert eval(repr(record), {**vars(curvesig), "Fraction": Fraction}) == record


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip(self, sample, round_trip):
        cls, args = sample
        record = cls(*args)
        again = round_trip(record)
        assert type(again) is cls
        assert again == record and hash(again) == hash(record)
        with pytest.raises(AttributeError):
            setattr(again, "extra", None)


class TestCuspOrder:
    def test_orders_by_p_then_q(self):
        a, b = Cusp(2, 5), Cusp(3, 4)
        assert a < b and a <= b and b > a and b >= a
        assert a <= Cusp(5, 2) and a >= Cusp(5, 2)
        assert not a < Cusp(5, 2) and not a > Cusp(5, 2)
        assert sorted([Cusp(3, 4), Cusp(2, 5), Cusp(2, 3)]) == [Cusp(2, 3), Cusp(2, 5), Cusp(3, 4)]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_comparison_with_a_tuple_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            eval(f"a {op} b", {"a": Cusp(2, 3), "b": (2, 5)})
        with pytest.raises(TypeError):
            eval(f"b {op} a", {"a": Cusp(2, 3), "b": (2, 5)})


def test_cusp_pattern_matching():
    match Cusp(5, 2):
        case Cusp(p, q):
            assert (p, q) == (2, 5)
        case _:
            pytest.fail("Cusp(p, q) did not match")
