"""Plane curve singularity descriptors and their numeric invariants.

The singular germs are the unibranched singularities with a single Puiseux
pair, written {x^p = y^q} for coprime p, q >= 2; the link of such a germ is
the (p, q) torus knot.  Anything more general is rejected at construction
instead of being silently approximated.  An ordinary double point has fixed
invariants (Milnor number 1, M = M-bar = 0, signature -1), so a scenario
carries double points as the count R and no descriptor exists for them.

All invariants are exact: integers, or `fractions.Fraction` values in lowest
terms.  No floating point enters this module.  The (p, q) torus knot's
signature jumps at n/(pq) for the jump numerators n = iq + jp with
1 <= i < p, 1 <= j < q.  `_numerators` lists them for every signature route
and refuses a Milnor number above the cap `_MAX_MILNOR` ((300, 301) builds
in about a second); `_events` sorts them into integer steps, and `_profile`
merges the steps of weighted cusps into the integer step function that
`signature` and `deformation` read, so the checks never load `signature`.

`_Record` is the base of every value type: an immutable record of its
annotated fields, equal only to records of its own type.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import accumulate
from math import gcd, lcm
from operator import attrgetter

__all__ = [
    "Cusp",
    "milnor_number",
    "m_number",
    "m_bar_number",
    "n_squared_defect",
]


class _Record:
    """Immutable value whose annotated fields, in order, are its constructor
    parameters.  Each subclass defines `__init__`, which validates its
    arguments and stores them once through `__dict__`.  A record equals only
    records of its own type with equal fields."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = fields
        # attrgetter returns a tuple for two or more names and the bare value
        # for one; either serves as the key of equality and hashing
        cls._key = staticmethod(attrgetter(*fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Cusp(_Record):
    """The cuspidal singularity {x^p = y^q} with gcd(p, q) = 1 and p, q >= 2.

    The constructor normalises the exponents so that p <= q; (p, q) and
    (q, p) describe the same germ up to a coordinate swap.  Cusps are
    ordered by (p, q).
    """

    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if not isinstance(p, int) or not isinstance(q, int):
            raise TypeError(f"exponents must be integers, got ({p!r}, {q!r})")
        if p > q:
            p, q = q, p
        if p < 2:
            raise ValueError(f"exponents must both be at least 2, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise ValueError(f"p and q must be coprime, got ({p}, {q})")
        self.__dict__.update(p=p, q=q)

    def __lt__(self, other):
        if type(other) is not Cusp:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def milnor_number(s: Cusp) -> int:
    """Milnor number of the cusp.

    For the cusp {x^p = y^q} this is (p - 1)(q - 1), which also counts the
    set {i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1} of signature jumps of
    the (p, q) torus knot.
    """
    if isinstance(s, Cusp):
        return (s.p - 1) * (s.q - 1)
    raise TypeError(f"not a singularity descriptor: {s!r}")


def m_number(s: Cusp) -> Fraction:
    """Fine codimension invariant M, as an exact rational.

    M of the (p, q) cusp is p + q - p/q - q/p - 1.
    """
    if isinstance(s, Cusp):
        p, q = s.p, s.q
        return p + q - Fraction(p, q) - Fraction(q, p) - 1
    raise TypeError(f"not a singularity descriptor: {s!r}")


def m_bar_number(s: Cusp) -> int:
    """Rough codimension invariant M-bar.

    M-bar of the (p, q) cusp is p + q - ceil(p/q) - ceil(q/p) - 1.  The
    constructor normalises p < q, so ceil(p/q) = 1 and only ceil(q/p) is
    computed.
    """
    if isinstance(s, Cusp):
        p, q = s.p, s.q
        return p + q - 2 - (-(-q // p))
    raise TypeError(f"not a singularity descriptor: {s!r}")


def n_squared_defect(s: Cusp) -> Fraction:
    """The difference m_bar_number(s) - m_number(s).

    Strictly below -1/2 for every cusp.
    """
    return m_bar_number(s) - m_number(s)


_MAX_MILNOR = 100_000


def _numerators(cusp: Cusp) -> list[int]:
    p, q = cusp.p, cusp.q
    if (p - 1) * (q - 1) > _MAX_MILNOR:
        raise ValueError(f"Milnor number of {cusp} is {(p - 1) * (q - 1)}, above the cap of {_MAX_MILNOR}")
    return [i * q + j * p for i in range(1, p) for j in range(1, q)]


@lru_cache(maxsize=None)
def _events(cusp: Cusp) -> tuple[tuple[int, int], ...]:
    """Sorted (position over pq, step) events of the cusp's signature function."""
    pq = cusp.p * cusp.q
    return tuple(sorted((n, 2) if n < pq else (n - pq, -2) for n in _numerators(cusp)))


def _profile(weights: dict[Cusp, int]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(denominator, cuts, values) of sum_c weight * sigma_c: each cusp's
    events scaled to D = lcm(pq) and weighted (weight 0 still cuts), merged
    by one sort into a running sum.  Each cusp's cuts are coprime to its pq
    and the scales D/(pq) have gcd 1, so gcd(D, *cuts) = 1."""
    denominator = lcm(*(c.p * c.q for c in weights))
    steps = Counter()
    for cusp, weight in weights.items():
        scale = denominator // (cusp.p * cusp.q)
        steps.update({n * scale: weight * step for n, step in _events(cusp)})
    cuts, deltas = zip(*sorted(steps.items()))
    return denominator, cuts, tuple(accumulate(deltas, initial=0))
