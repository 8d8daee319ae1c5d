"""Independent exact references the benchmark checks curvesig against.

Nothing here imports curvesig.  Every jump i/p + j/q of the (p, q) torus
knot equals (iq + jp)/(pq), so signatures are computed by counting integer
lattice points iq + jp in a window, on a common integer scale, and the
integral and codimension invariants come from their closed forms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

M_BOUND_SLACK = Fraction(2, 9)


def milnor(p: int, q: int) -> int:
    return (p - 1) * (q - 1)


def m_number(p: int, q: int) -> Fraction:
    return p + q - Fraction(p, q) - Fraction(q, p) - 1


def m_bar_number(p: int, q: int) -> int:
    return p + q - -(-p // q) - -(-q // p) - 1


def signature_integral(p: int, q: int) -> Fraction:
    """Closed form of the integral of the signature function over (0, 1)."""
    return Fraction(-(p * p - 1) * (q * q - 1), 3 * p * q)


def lattice_jumps(p: int, q: int) -> list[int]:
    """Sorted numerators iq + jp of the jumps (iq + jp)/(pq) in (0, 2)."""
    return sorted(i * q + j * p for i in range(1, p) for j in range(1, q))


def signature_at(p: int, q: int, x: Fraction) -> int:
    """Signature of the (p, q) torus knot at a rational x in (0, 1) that is
    not a jump: lattice points outside the window (x, x + 1) minus those
    inside it."""
    jumps = lattice_jumps(p, q)
    lo = x * p * q
    inside = sum(1 for k in jumps if lo < k < lo + p * q)
    return len(jumps) - 2 * inside


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def report_document(central: tuple[int, int], cusps: list[tuple[int, int]],
                    double_points: int, genus: int) -> dict:
    """The report document `curvesig check` prints for this scenario.

    Both sweeps run on one integer scale 2L, where L is the lcm of pq over
    the distinct cusps: breakpoints are even, midpoints are the sums of
    neighbouring breakpoints, and each distinct cusp is evaluated once per
    midpoint and weighted by its multiplicity in the fiber.
    """
    r, g = double_points, genus
    multiplicity: dict[tuple[int, int], int] = {}
    for c in cusps:
        multiplicity[c] = multiplicity.get(c, 0) + 1
    distinct = sorted({central, *cusps})
    scale = lcm(*(p * q for p, q in distinct))
    doubled = {}  # cusp -> sorted jumps on the scale 2 * scale, inside (0, 4 * scale)
    folded = set()
    for p, q in distinct:
        factor = scale // (p * q)
        ks = [k * factor for k in lattice_jumps(p, q)]
        doubled[(p, q)] = [2 * k for k in ks]
        folded.update(k if k < scale else k - scale for k in ks)
    grid = [0, *sorted(folded), scale]
    two_scale = 2 * scale

    def sigma(cusp, x2):
        ks = doubled[cusp]
        inside = bisect_left(ks, x2 + two_scale) - bisect_right(ks, x2)
        return len(ks) - 2 * inside

    two_sided = (None, None)
    one_sided = (None, None)
    for a, b in zip(grid, grid[1:]):
        x2 = a + b
        s0 = sigma(central, x2)
        fiber = sum(m * sigma(c, x2) for c, m in multiplicity.items())
        left = abs(s0 - (fiber - r))
        if two_sided[0] is None or left > two_sided[0]:
            two_sided = (left, x2)
        left = s0 - fiber
        if one_sided[0] is None or left > one_sided[0]:
            one_sided = (left, x2)

    def sweep(best, right):
        left, x2 = best
        return {
            "verdict": "holds" if left <= right else "fails",
            "witness": _fmt(Fraction(x2, two_scale)),
            "left": left,
            "right": right,
            "margin": right - left,
        }

    mu_left = milnor(*central)
    mu_right = 2 * g + 2 * r + sum(milnor(*c) for c in cusps)
    m_left = sum((m_number(*c) for c in cusps), Fraction(0)) - m_number(*central)
    m_right = 8 * g + 2 * r + M_BOUND_SLACK
    document = {
        "betti": 2 * g + r,
        "genus_formula": {
            "verdict": "holds" if mu_left == mu_right else "fails",
            "left": mu_left,
            "right": mu_right,
        },
        "signature_bound": sweep(two_sided, 2 * g + r),
        "one_sided_bound": sweep(one_sided, 2 * g),
        "m_number_bound": {
            "verdict": "holds" if m_left < m_right else "fails",
            "left": _fmt(m_left),
            "right": _fmt(m_right),
            "margin": _fmt(m_right - m_left),
        },
    }
    verdicts = [document[k]["verdict"] for k in
                ("genus_formula", "signature_bound", "one_sided_bound", "m_number_bound")]
    document["overall"] = "admissible" if all(v == "holds" for v in verdicts) else "obstructed"
    return document
