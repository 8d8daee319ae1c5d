"""Tristram-Levine signatures of torus knots, exactly.

The signature of the (p, q) torus knot at zeta = exp(2*pi*i*x) is computed
by a counting formula over the jump set

    Sigma = {i/p + j/q : 1 <= i <= p-1, 1 <= j <= q-1}  inside (0, 2).

Each jump is n/(pq) for a jump numerator n = iq + jp of `singularities`, and
for coprime p, q these numerators are pairwise distinct, so the module counts
integers and hands no jump out as a `Fraction`.  The value at a non-jump x
in (0, 1) is the number of jumps outside the open window (x, x+1) minus the
number inside.  As x grows, a jump n < pq leaves the window at n/(pq) and
raises the value by 2, and a jump n > pq enters it at (n - pq)/(pq) and
lowers it by 2; the value starts at 0 because the jumps are symmetric
about 1.  The step function is therefore a running sum over these integer
events, which `singularities._profile` merges, and its integral over (0, 1)
is an exact rational.  The folded positions are distinct as well, so each
breakpoint is a single jump, and `StepFunction` keeps them as strictly
increasing integer cuts over the one denominator pq; `Fraction(c,
fn.denominator)` turns a cut c into its point of (0, 1).  `torus_signature_at`
counts the window directly instead, so it stays an oracle independent of
the scan.  Values at the jumps themselves are undefined: evaluating there
raises `BreakpointEvaluation` rather than picking one of the competing
averaging conventions.

A second, floating-point route evaluates the signature of the Hermitian
form (1 - z) V + (1 - conj(z)) V^T for a Seifert matrix V.  Only the (2, q)
family has a matrix generator here; the route exists to cross-check the
counting formula, never to replace it.  It treats the form as degenerate,
and raises, when its smallest eigenvalue is below a fixed 1e-9 of its
largest.  It imports numpy lazily, so the exact routes need no numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from operator import index

from . import _EXPORTS
from .singularities import Cusp, _Record, _numerators, _profile

__all__ = _EXPORTS["signature"]


class BreakpointEvaluation(ValueError):
    """Evaluation of a signature or step function exactly at a jump point."""

    def __init__(self, point: Fraction):
        super().__init__(f"value undefined at jump point {point}")
        self.point = point


class NearSingularForm(ArithmeticError):
    """The numeric Hermitian form has an eigenvalue too close to zero."""


def _unit_point(x) -> Fraction:
    # floats are binary approximations; exactness is the point of this module
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got float {x!r}")
    if type(x) is not Fraction:
        x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"argument {x} outside the open interval (0, 1)")
    return x


class StepFunction(_Record):
    """Integer-valued piecewise constant function on (0, 1).

    The breakpoints are cuts[i] / denominator, and `values[i]` is the value
    on the i-th open interval they cut out of (0, 1); the value at a
    breakpoint itself is undefined and raises `BreakpointEvaluation`.  Every
    entry is an int, never a bool, else `TypeError`.  There is one more value
    than cuts, the cuts increase strictly inside (0, denominator) (a duplicate
    would bound an empty interval), and gcd(denominator, *cuts) = 1, so each
    function has exactly one record; else `ValueError`.
    """

    denominator: int
    cuts: tuple[int, ...]
    values: tuple[int, ...]

    def __init__(self, denominator: int, cuts: tuple[int, ...], values: tuple[int, ...]) -> None:
        cuts = tuple(cuts)
        values = tuple(values)
        if any(type(bad := n) is not int for n in (denominator, *cuts, *values)):
            raise TypeError(f"denominator, cuts and values must be int, got {bad!r}")
        if len(values) != len(cuts) + 1:
            raise ValueError(f"{len(cuts)} cuts require {len(cuts) + 1} interval values, got {len(values)}")
        if not all(a < b for a, b in zip((0, *cuts), (*cuts, denominator))):
            raise ValueError(f"cuts must be strictly increasing inside (0, {denominator}), got {cuts}")
        if gcd(denominator, *cuts) != 1:
            raise ValueError(f"denominator {denominator} is not the least for the cuts {cuts}")
        self.__dict__.update(denominator=denominator, cuts=cuts, values=values)

    def value_at(self, x) -> int:
        """Value on the open interval containing x, for x in (0, 1)."""
        x = _unit_point(x)
        position, rest = divmod(x.numerator * self.denominator, x.denominator)
        i = bisect_right(self.cuts, position)
        if rest == 0 and i and self.cuts[i - 1] == position:
            raise BreakpointEvaluation(x)
        return self.values[i]


def torus_signature_at(cusp: Cusp, x) -> int:
    """Tristram-Levine signature of the (p, q) torus knot at exp(2*pi*i*x).

    x must be a rational in (0, 1) such that neither x nor x + 1 is a jump
    location; at jumps the value is undefined and `BreakpointEvaluation` is
    raised.  The result is minus the number of jump locations inside the
    open window (x, x + 1) plus the number outside it.  With x = a/b in
    lowest terms, jump n/(pq) lies inside exactly when
    a*pq < n*b < (a + b)*pq, so the count needs integers only.
    """
    x = _unit_point(x)
    a, b = x.numerator, x.denominator
    pq = cusp.p * cusp.q
    lo, hi = a * pq, (a + b) * pq
    scaled = [n * b for n in _numerators(cusp)]
    if lo in scaled or hi in scaled:
        raise BreakpointEvaluation(x)
    inside = sum(lo < s < hi for s in scaled)
    return len(scaled) - 2 * inside


def torus_signature_function(cusp: Cusp) -> StepFunction:
    """The map x -> signature at exp(2*pi*i*x) as an exact step function.

    Breakpoints are the jump locations folded into (0, 1): n/(pq) for
    numerators n < pq and (n - pq)/(pq) for n > pq (no jump sits at 1 when
    p and q are coprime, and no two fold to one point).  Crossing the first kind raises the value by 2,
    crossing the second lowers it by 2, and the value starts at 0.
    """
    return StepFunction(*_profile({cusp: 1}))


def integral(f: StepFunction) -> Fraction:
    """Exact integral of a step function over (0, 1).  By Abel summation it
    is values[-1] - sum_k b_k * (values[k] - values[k-1]), with each
    breakpoint b_k = cuts[k] / denominator, summed as integers over the one
    denominator."""
    values = f.values
    total = sum(c * (after - before) for c, before, after in zip(f.cuts, values, values[1:]))
    return Fraction(values[-1] * f.denominator - total, f.denominator)


class SeifertMatrix(_Record):
    """Square integer matrix; no symmetry is assumed."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        # operator.index accepts any true integer type but refuses floats
        rows = tuple(tuple(index(e) for e in row) for row in entries)
        if not rows:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self.__dict__.update(entries=rows)


def bidiagonal_seifert(q: int) -> SeifertMatrix:
    """Seifert matrix of the (2, q) torus knot for odd q >= 3.

    The matrix is (q-1) x (q-1) with -1 on the diagonal, +1 on the
    superdiagonal and 0 elsewhere.
    """
    if not isinstance(q, int) or q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd integer >= 3, got {q!r}")
    n = q - 1
    rows = tuple(
        tuple(-1 if j == i else 1 if j == i + 1 else 0 for j in range(n))
        for i in range(n)
    )
    return SeifertMatrix(rows)


# below this share of the largest eigenvalue magnitude the form is degenerate
_DEGENERACY_TOLERANCE = 1e-9


def seifert_signature_at(matrix: SeifertMatrix, x) -> int:
    """Signature of (1 - z) V + (1 - conj(z)) V^T at z = exp(2*pi*i*x).

    This is the floating-point cross-check of the exact counting route: the
    eigenvalues of the Hermitian form are computed numerically and counted
    by sign.  Raises `NearSingularForm` when the smallest eigenvalue
    magnitude falls below the fixed 1e-9 times the largest (or the form
    vanishes outright), which signals that x sits too close to a jump of
    the signature function; the caller should perturb x.  numpy is imported
    here, on the first call; without it an ImportError names the extra.
    """
    x = _unit_point(x)
    import cmath
    try:
        import numpy as np
    except ImportError as err:
        raise ImportError("the Seifert cross-check needs numpy: install curvesig[oracle]") from err
    z = cmath.exp(2j * cmath.pi * float(x))
    v = np.array(matrix.entries, dtype=np.complex128)
    form = (1 - z) * v + (1 - z.conjugate()) * v.T
    eigenvalues = np.linalg.eigvalsh(form)
    magnitudes = np.abs(eigenvalues)
    largest = float(magnitudes.max())
    if largest == 0.0 or float(magnitudes.min()) < _DEGENERACY_TOLERANCE * largest:
        raise NearSingularForm(
            f"Hermitian form numerically degenerate at x = {x}; perturb x away from jumps"
        )
    return int((eigenvalues > 0).sum() - (eigenvalues < 0).sum())
