"""Plane curve singularity descriptors and their numeric invariants.

Two kinds of singular germs are supported: unibranched singularities with a
single Puiseux pair, written {x^p = y^q} for coprime p, q >= 2 (the link of
such a germ is the (p, q) torus knot), and ordinary double points.  Anything
more general is rejected at construction instead of being silently
approximated.

All invariants are exact: integers, or `fractions.Fraction` values in lowest
terms.  No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "Cusp",
    "OrdinaryDoublePoint",
    "Singularity",
    "milnor_number",
    "m_number",
    "m_bar_number",
    "n_squared_defect",
]


@dataclass(frozen=True, order=True)
class Cusp:
    """The cuspidal singularity {x^p = y^q} with gcd(p, q) = 1 and p, q >= 2.

    The constructor normalises the exponents so that p <= q; (p, q) and
    (q, p) describe the same germ up to a coordinate swap.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not isinstance(p, int) or not isinstance(q, int):
            raise TypeError(f"exponents must be integers, got ({p!r}, {q!r})")
        if p > q:
            p, q = q, p
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)
        if p < 2:
            raise ValueError(f"exponents must both be at least 2, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise ValueError(f"p and q must be coprime, got ({p}, {q})")

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


@dataclass(frozen=True)
class OrdinaryDoublePoint:
    """A node: two smooth branches meeting transversally (link: Hopf link)."""

    def __str__(self) -> str:
        return "node"


Singularity = Cusp | OrdinaryDoublePoint


def milnor_number(s: Singularity) -> int:
    """Milnor number of the singularity.

    For the cusp {x^p = y^q} this is (p - 1)(q - 1), which also counts the
    set {i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1} of signature jumps of
    the (p, q) torus knot.  An ordinary double point has Milnor number 1.
    """
    if isinstance(s, Cusp):
        return (s.p - 1) * (s.q - 1)
    if isinstance(s, OrdinaryDoublePoint):
        return 1
    raise TypeError(f"not a singularity descriptor: {s!r}")


def m_number(s: Singularity) -> Fraction:
    """Fine codimension invariant M, as an exact rational.

    M of the (p, q) cusp is p + q - p/q - q/p - 1; M of an ordinary double
    point is 0.
    """
    if isinstance(s, Cusp):
        p, q = s.p, s.q
        return p + q - Fraction(p, q) - Fraction(q, p) - 1
    if isinstance(s, OrdinaryDoublePoint):
        return Fraction(0)
    raise TypeError(f"not a singularity descriptor: {s!r}")


def m_bar_number(s: Singularity) -> int:
    """Rough codimension invariant M-bar.

    M-bar of the (p, q) cusp is p + q - ceil(p/q) - ceil(q/p) - 1; M-bar of
    an ordinary double point is 0.
    """
    if isinstance(s, Cusp):
        p, q = s.p, s.q
        return p + q - _ceil_div(p, q) - _ceil_div(q, p) - 1
    if isinstance(s, OrdinaryDoublePoint):
        return 0
    raise TypeError(f"not a singularity descriptor: {s!r}")


def n_squared_defect(s: Singularity) -> Fraction:
    """The difference m_bar_number(s) - m_number(s).

    Always non-positive; strictly below -1/2 for every cusp, and exactly 0
    for an ordinary double point.
    """
    return m_bar_number(s) - m_number(s)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
