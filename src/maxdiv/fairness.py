"""Fairness of the symmetric seven-piece division, as a function of arc length.

Three chords in general position cut a disk into seven pieces.  The
symmetric family studied here is parameterized by a single arc length
x: each chord subtends an arc of length x against one side, and the
whole configuration has threefold rotational symmetry.  The seven
pieces then fall into three congruence classes (one central triangle,
three circular triangles, three circular trapezoids) whose areas are
closed-form functions of x on [0, pi/3].  This module is the one place
those formulas are written out.

Every piece would get pi/7 in a perfectly fair split.  Three measures of
how far a cut configuration strays from that ideal are provided, all
over the arc-length domain [0, pi/3]:

* ``sd``   population standard deviation of the seven areas,
* ``mad``  mean absolute deviation of the seven areas,
* ``min_piece``  the smallest area (to be maximized).

Each measure comes with an optimizer, and each optimum sits at a fixed
place, which the tests pin: sd falls across the whole domain to its
minimum at x = pi/3; mad has a global and a local minimum, each on a
kink where some piece crosses the fair share; min_piece peaks where the
central and the circular triangles trade places as smallest piece.  The
sd minimum is returned as it is.  The other three are refined by
golden-section search from a fixed bracket, two steps wide, of a
uniform coarse grid: the bracket around the grid point where the
measure bottoms out.  Golden section handles the kinks, since each
bracket is unimodal.  Maximization runs on the negated measure.

The table the CLI prints holds, per grid point, the three class areas
and the three measures.  ``_measures`` computes its rows at any arc
lengths as one flat list of floats, which the CLI formats chunk by
chunk; its loop body is the only code that evaluates the areas.  The
public measures and the checked one-point view ``_areas`` read the
same cells.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

#: Largest arc length: at pi/3 the central triangle vanishes.
ARC_MAX = math.pi / 3

#: Fair share of the unit disk for each of the seven pieces.
MEAN_AREA = math.pi / 7

_PI2_7 = math.pi**2 / 7.0

#: Points of the coarse grid whose steps bracket the refined optima.
BRACKET_GRID = 4096

#: Grid points where mad has its global and its local minimum and
#: -min_piece its one: each optimum lies within a step of its point.
_MAD_GLOBAL, _MAD_LOCAL, _MAXIMIN = 3793, 1762, 2549

_SQRT3 = math.sqrt(3.0)
_3SQRT3 = 3.0 * _SQRT3  # the first product of 3 sqrt(3) s^2, left to right
_PI_6 = math.pi / 6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Optimum(NamedTuple):
    """A located extremum of a fairness measure.

    at_boundary is true for the sd minimum, which sits on the end
    x = pi/3 of the domain; every other optimum is interior.
    """

    x_star: float
    objective_value: float
    at_boundary: bool


def _check_arc(x: float) -> None:
    if not 0.0 <= x <= ARC_MAX:
        raise ValueError(f"arc length {x!r} outside [0, pi/3]")


def _grid(points: int, start: int, stop: int):
    """Points start..stop-1 of points >= 2 evenly spaced arc lengths from
    0 to ARC_MAX, lazily.

    The last point is ARC_MAX itself: ARC_MAX * (g - 1) / (g - 1) rounds
    one unit above it for some g (982 among them), outside the domain.
    """
    last = points - 1
    return chain(
        (ARC_MAX * i / last for i in range(start, min(stop, last))),
        (ARC_MAX,) if stop == points else (),
    )


def sd(x: float) -> float:
    """Standard deviation of the seven areas at arc length x."""
    _check_arc(x)
    return _measures((x,))[4]


def sd_closed_form(x: float) -> float:
    """Standard deviation written out as a single expression in x.

    Algebraically identical to ``sd`` (the checks keep both routes
    honest); kept in the cos(pi/3 + x/2) form for direct comparison
    against the derivation by hand.
    """
    _check_arc(x)
    c = math.cos(math.pi / 3 + x / 2)
    tri_part = x / 2 - 2.0 * math.sin(x / 2) * c
    trap_part = math.pi / 3 - x / 2 + 2.0 * math.sin(x / 2) * c - _SQRT3 * c * c
    bracket = (
        21.0 * tri_part**2
        + 189.0 * c**4
        + 21.0 * trap_part**2
        - math.pi**2
    )
    return math.sqrt(bracket) / 7.0


def mad(x: float) -> float:
    """Mean absolute deviation of the seven areas at arc length x."""
    _check_arc(x)
    return _measures((x,))[5]


def mad_expanded(x: float) -> float:
    """Mean absolute deviation with the trapezoid term expanded.

    Assumes the trapezoid is at least the fair share (true on the whole
    domain, but verified rather than trusted by the test suite); the
    other two deviations keep their absolute values.
    """
    _check_arc(x)
    c = math.cos(math.pi / 3 + x / 2)
    return (
        (3.0 / 7.0) * abs(x / 2 - 2.0 * math.sin(x / 2) * c - math.pi / 7.0)
        + (1.0 / 7.0) * abs(-3.0 * _SQRT3 * c * c + math.pi / 7.0)
        + (4.0 / 49.0) * math.pi
        - (3.0 / 14.0) * x
        + (6.0 / 7.0) * math.sin(x / 2) * c
        - (3.0 * _SQRT3 / 7.0) * c * c
    )


def min_piece(x: float) -> float:
    """Area of the smallest piece at arc length x."""
    _check_arc(x)
    return _measures((x,))[6]


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal f on [lo, hi] to within tol in x.

    Also stops once an interior point reaches or passes an end of the
    bracket, which is then at float spacing; that point's value is unread.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c and d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2


def _refine(f, i: int, tol: float) -> float:
    """Minimum of f between the bracket-grid points i - 1 and i + 1, to
    within tol in x."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    lo, _, hi = _grid(BRACKET_GRID, i - 1, i + 2)
    return _golden_section(f, lo, hi, tol)


def minimize_sd() -> Optimum:
    """Arc length minimizing the standard deviation of the areas.

    The deviation decreases across the whole domain, so the minimum
    sits on the boundary at x = pi/3, where the central triangle
    vanishes and six pieces share everything.
    """
    return Optimum(ARC_MAX, sd(ARC_MAX), True)


def minimize_mad(tol: float = 1e-10) -> tuple[Optimum, Optimum]:
    """Global and local minimizers of the mean absolute deviation.

    Returns (global_minimum, local_minimum), 0.126 and 0.304: each sits
    on a kink where some piece crosses the fair share.
    """
    best, local = (_refine(mad, i, tol) for i in (_MAD_GLOBAL, _MAD_LOCAL))
    return Optimum(best, mad(best), False), Optimum(local, mad(local), False)


def maximize_min_piece(tol: float = 1e-10) -> Optimum:
    """Arc length maximizing the smallest piece.

    The maximum sits where the central triangle and the circular
    triangles trade places as smallest piece.  The bracketed search runs
    at tol/2, so a tol whose half underflows to 0.0 is refused.
    """
    if not 0.0 < tol / 2 < math.inf:
        raise ValueError(
            f"tolerance must be positive and finite and tol/2 must not underflow"
            f" to 0.0, got {tol!r}"
        )
    x_star = _refine(lambda x: -min_piece(x), _MAXIMIN, tol / 2)
    return Optimum(x_star, min_piece(x_star), False)


def _areas(x: float) -> tuple[float, float, float]:
    """Areas (alpha1, alpha2, alpha3) of the central triangle, of each
    circular triangle and of each circular trapezoid at arc length x."""
    _check_arc(x)
    return tuple(_measures((x,))[1:4])


def _measures(xs) -> list[float]:
    """The table rows at the arc lengths xs, flat: for each x, the 7 cells
    x, the areas alpha1, alpha2 and alpha3 of the central triangle, of
    each circular triangle and of each circular trapezoid, then sd, mad
    and min_piece.  The one place the areas and the three measures are
    computed.  With s = sin(pi/6 - x/2), the areas are

        central triangle (one):      3 sqrt(3) s^2
        circular triangle (three):   x/2 - 2 sin(x/2) s
        circular trapezoid (three):  pi/3 - x/2 + 2 sin(x/2) s - sqrt(3) s^2

    A trapezoid is a 120-degree sector less one circular triangle and a
    third of the central triangle, so the seven pieces add up to pi.

    The xs must lie in [0, pi/3]; nothing here checks them.  Rows are
    independent, so the CLI hands disjoint ranges of the grid to
    separate processes and the table does not depend on that schedule.
    """
    sin, sqrt, mean = math.sin, math.sqrt, MEAN_AREA
    cells: list[float] = []
    for x in xs:
        h = x / 2
        s = sin(_PI_6 - h)
        chord_s = 2.0 * sin(h) * s
        a1 = _3SQRT3 * s * s
        a2 = h - chord_s
        a3 = ARC_MAX - h + chord_s - _SQRT3 * s * s
        # The conditionals give the bits of abs and min: a - pi/7 is
        # never -0.0 (pi/7 is not 0), so d >= 0.0 keeps the sign abs
        # gives, and a tie keeps the first operand, as min does.
        d1, d2, d3 = a1 - mean, a2 - mean, a3 - mean
        low = a2 if a2 < a1 else a1
        cells += (
            x, a1, a2, a3,
            # the radicand is at least pi^2/294 on [0, pi/3]
            sqrt((a1**2 + 3.0 * a2**2 + 3.0 * a3**2 - _PI2_7) / 7.0),
            ((d1 if d1 >= 0.0 else -d1) + 3.0 * (d2 if d2 >= 0.0 else -d2)
             + 3.0 * (d3 if d3 >= 0.0 else -d3)) / 7.0,
            a3 if a3 < low else low,
        )
    return cells
