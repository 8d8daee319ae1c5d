"""Deformation scenarios and the obstruction inequalities they must satisfy.

A scenario pairs a central cusp with the singularity content of a nearby
generic fiber: its cusps, its number R of ordinary double points, and its
geometric genus g.  Four necessary conditions are evaluated, each with exact
witness values:

  * genus formula        mu_0 = 2g + 2R + sum_k mu_k        (integer equality)
  * signature bound      |sigma_0(x) - (sum_k sigma_k(x) - R)| <= 2g + R
  * one-sided bound      sum_k(-sigma_k(x)) + sigma_0(x) <= 2g
  * M-number bound       sum_k M_k - M_0 < 8g + 2R + 2/9    (strict)

The two signature conditions hold for almost all x; since all functions
involved are step functions, checking them at the midpoints of the common
breakpoint refinement is equivalent and exact.  Four facts relate the checks;
a = sigma_0 - sum_k sigma_k is a step function of the cusps alone:

  (a) the signature bound, -2g - 2R <= a <= 2g, implies its upper half, the
      one-sided bound a <= 2g (the witnesses may differ);
  (b) with the genus formula, the one-sided bound implies the M bound: the
      integral of sigma over (0, 1) is -(M + mu + 1/(pq))/3, so integrating
      a <= 2g gives sum_k M_k - M_0 <= 6g + mu_0 - sum_k mu_k + 1/(p_0 q_0)
      - sum_k 1/(p_k q_k) <= 8g + 2R + 1/6 < 8g + 2R + 2/9;
  (c) without it, the (g, R) that pass the other three checks form an
      up-set: a ignores g and R, and every right side grows with them;
  (d) with it, R fixes g = (mu_0 - sum_k mu_k)/2 - R.

`full_report` is the one route to all four verdicts; `bmy_check` is the
M-number bound at genus 0.  Both sweeps read a from one integer profile: the
kernel `singularities._profile`, over the cusps weighted by multiplicity, that
also builds each `StepFunction`.  Verdicts store only their exact
sides (and witness); `holds` and a report's `overall` and `betti` are derived
from them.  Each record refuses a field of the wrong type with TypeError (a
bool or a float is never an exact side) and a witness outside (0, 1) with
ValueError, so every report serializes to a document that parses back to it.

Passing all checks never certifies that a deformation exists; the verdict
"admissible" only means "not obstructed by these criteria".
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from . import _EXPORTS
from .singularities import Cusp, _Record, _profile, m_number, milnor_number

__all__ = _EXPORTS["deformation"]

# Hopf link contribution: a double point adds the constant -1 at every x.
_DOUBLE_POINT_SIGNATURE = -1

# Additive slack of the strict M-number inequalities.
_M_BOUND_SLACK = Fraction(2, 9)


def _count(value, name: str) -> int:
    """`value` if it is a non-negative int (bool is not a count), else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


class DeformationScenario(_Record):
    """Central cusp plus the singularities, double points and genus of a
    nearby generic fiber.  The order of the cusp list is irrelevant: every
    check is permutation-invariant."""

    central: Cusp
    cusps: tuple[Cusp, ...]
    double_points: int
    genus: int

    def __init__(
        self, central: Cusp, cusps: tuple[Cusp, ...], double_points: int, genus: int
    ) -> None:
        if not isinstance(central, Cusp):
            raise TypeError(f"central singularity must be a Cusp, got {central!r}")
        cusps = tuple(cusps)
        for c in cusps:
            if not isinstance(c, Cusp):
                raise TypeError(f"fiber singularities must be Cusp, got {c!r}")
        _count(double_points, "double_points")
        _count(genus, "genus")
        self.__dict__.update(central=central, cusps=cusps, double_points=double_points, genus=genus)


class EqualityVerdict(_Record):
    """Integer equality check; left and right are the two exact sides."""

    left: int
    right: int

    def __init__(self, left: int, right: int) -> None:
        if type(left) is not int or type(right) is not int:
            raise TypeError(f"equality sides must be int, got {left!r} and {right!r}")
        self.__dict__.update(left=left, right=right)

    @property
    def holds(self) -> bool:
        return self.left == self.right


class SweepVerdict(_Record):
    """Pointwise bound left(x) <= right checked at every midpoint of the
    common breakpoint refinement; witness is the midpoint with the largest
    left side (first such midpoint on ties), left its value there."""

    witness: Fraction
    left: int
    right: int

    def __init__(self, witness: Fraction, left: int, right: int) -> None:
        if type(witness) is not Fraction or type(left) is not int or type(right) is not int:
            raise TypeError(f"witness must be Fraction, sides int: got {witness!r}, {left!r}, {right!r}")
        if not 0 < witness.numerator < witness.denominator:
            raise ValueError(f"witness {witness} outside the open interval (0, 1)")
        self.__dict__.update(witness=witness, left=left, right=right)

    @property
    def holds(self) -> bool:
        return self.left <= self.right

    @property
    def margin(self) -> int:
        return self.right - self.left


class RationalVerdict(_Record):
    """Exact strict inequality left < right between rationals."""

    left: Fraction
    right: Fraction

    def __init__(self, left: Fraction, right: Fraction) -> None:
        if type(left) not in (Fraction, int) or type(right) not in (Fraction, int):
            raise TypeError(f"rational sides must be Fraction or int, got {left!r} and {right!r}")
        self.__dict__.update(left=left, right=right)

    @property
    def holds(self) -> bool:
        return self.left < self.right

    @property
    def margin(self) -> Fraction:
        return self.right - self.left


# the verdict type of each ObstructionReport field, in field order
_VERDICT_TYPES = (EqualityVerdict, SweepVerdict, SweepVerdict, RationalVerdict)


class ObstructionReport(_Record):
    """All verdicts for one scenario.  `overall` ("admissible" exactly when
    every check holds) and `betti` (the signature bound's right side) are
    derived."""

    genus_formula: EqualityVerdict
    signature_bound: SweepVerdict
    one_sided_bound: SweepVerdict
    m_number_bound: RationalVerdict

    def __init__(
        self,
        genus_formula: EqualityVerdict,
        signature_bound: SweepVerdict,
        one_sided_bound: SweepVerdict,
        m_number_bound: RationalVerdict,
    ) -> None:
        kinds = (type(genus_formula), type(signature_bound), type(one_sided_bound), type(m_number_bound))
        if kinds != _VERDICT_TYPES:
            name, want, kind = next(t for t in zip(self.__match_args__, _VERDICT_TYPES, kinds) if t[1] is not t[2])
            raise TypeError(f"{name} must be {want.__name__}, got {kind.__name__}")
        self.__dict__.update(
            genus_formula=genus_formula,
            signature_bound=signature_bound,
            one_sided_bound=one_sided_bound,
            m_number_bound=m_number_bound,
        )

    @property
    def betti(self) -> int:
        return self.signature_bound.right

    @property
    def admissible(self) -> bool:
        return (
            self.genus_formula.holds
            and self.signature_bound.holds
            and self.one_sided_bound.holds
            and self.m_number_bound.holds
        )

    @property
    def overall(self) -> str:
        return "admissible" if self.admissible else "obstructed"


def _sweeps(scenario: DeformationScenario) -> tuple[SweepVerdict, SweepVerdict]:
    """(signature bound, one-sided bound) from one profile: weight +1 for the
    central cusp and -1 per fiber copy give a = sigma_0 - sum_k sigma_k on
    each interval cut out of (0, 1) by all their breakpoints.  The witness is
    the midpoint of the first interval with the largest left side."""
    weights = Counter({scenario.central: 1})
    weights.subtract(scenario.cusps)
    denominator, cuts, a = _profile(weights)
    cuts = (0, *cuts, denominator)

    def verdict(left: list[int], right: int) -> SweepVerdict:
        i = max(range(len(left)), key=left.__getitem__)  # the first maximiser
        return SweepVerdict(Fraction(cuts[i] + cuts[i + 1], 2 * denominator), left[i], right)

    nodes = _DOUBLE_POINT_SIGNATURE * scenario.double_points
    return (
        verdict([abs(v - nodes) for v in a], 2 * scenario.genus + scenario.double_points),
        verdict(a, 2 * scenario.genus),
    )


def _m_number_bound(scenario: DeformationScenario) -> RationalVerdict:
    """sum of fiber-cusp M numbers minus the central M number < 8g + 2R + 2/9,
    strictly; equality counts as violated.  A double point has M = 0, so only
    cusps enter the sum and the R double points enter through 2R alone."""
    left = sum((m_number(c) for c in scenario.cusps), Fraction(0)) - m_number(scenario.central)
    right = 8 * scenario.genus + 2 * scenario.double_points + _M_BOUND_SLACK
    return RationalVerdict(left, right)


def full_report(scenario: DeformationScenario) -> ObstructionReport:
    """Run all four checks; both sweeps share one pass."""
    signature_bound, one_sided_bound = _sweeps(scenario)
    return ObstructionReport(
        genus_formula=EqualityVerdict(
            milnor_number(scenario.central),
            2 * scenario.genus + 2 * scenario.double_points + sum(map(milnor_number, scenario.cusps)),
        ),
        signature_bound=signature_bound,
        one_sided_bound=one_sided_bound,
        m_number_bound=_m_number_bound(scenario),
    )


def bmy_check(p: int, q: int, cusps: Iterable[Cusp], double_points: int = 0) -> RationalVerdict:
    """Bound on the cuspidal content of a parametric curve of bidegree (p, q).

    For coprime p, q >= 2, a curve parametrised by polynomials of degrees p
    and q with the given cusps and `double_points` ordinary double points
    must satisfy, strictly,

        sum_k M_k < p + q - p/q - q/p - 7/9 + 2 * double_points.

    This is the genus-0 M-number bound of the (p, q) cusp deforming to the
    given cusps and double points, with both sides shifted by M((p, q)); the
    right side is M((p, q)) + 2 * double_points + 2/9.  A double point has
    M = 0, so only the cusps enter the sum.
    """
    central = Cusp(p, q)  # validates coprimality and p, q >= 2
    verdict = _m_number_bound(DeformationScenario(central, cusps, double_points, 0))
    shift = m_number(central)
    return RationalVerdict(verdict.left + shift, verdict.right + shift)
