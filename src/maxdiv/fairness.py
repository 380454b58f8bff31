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

Each measure comes with an optimizer.  Minimization follows a fixed
recipe: bracket candidate minima on a uniform coarse grid, refine each
bracket by golden-section search, then rank.  The measures are piecewise
smooth with kinks (the interesting optima sit exactly on kinks), which
golden-section search handles as long as the bracket is unimodal.
Maximization runs the same recipe on the negated measure.

The table the CLI prints holds, per grid point, the three class areas
and the three measures.  ``_measures`` computes its rows at any arc
lengths as one flat list of floats, which the CLI formats chunk by
chunk; its loop body is the only code that evaluates the areas.  The
public measures, the checked one-point view ``_areas`` and the
optimizers' bracket grid read the same cells.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

#: Largest arc length: at pi/3 the central triangle vanishes.
ARC_MAX = math.pi / 3

#: Fair share of the unit disk for each of the seven pieces.
MEAN_AREA = math.pi / 7

_PI2_7 = math.pi**2 / 7.0

#: Coarse-grid resolution used to bracket minima before refinement.
BRACKET_GRID = 4096

_SQRT3 = math.sqrt(3.0)
_3SQRT3 = 3.0 * _SQRT3  # the first product of 3 sqrt(3) s^2, left to right
_PI_6 = math.pi / 6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Optimum(NamedTuple):
    """A located extremum of a fairness measure.

    at_boundary is true iff x_star was snapped onto pi/3; no measure
    has an optimum at the other end, x = 0.
    """

    x_star: float
    objective_value: float
    at_boundary: bool


def _check_arc(x: float) -> None:
    if not 0.0 <= x <= ARC_MAX:
        raise ValueError(f"arc length {x!r} outside [0, pi/3]")


def _grid(points: int, start: int = 0, stop: int | None = None):
    """Points start..stop-1 (all by default) of points >= 2 evenly spaced
    arc lengths from 0 to ARC_MAX, lazily.

    The last point is ARC_MAX itself: ARC_MAX * (g - 1) / (g - 1) rounds
    one unit above it for some g (982 among them), outside the domain.
    """
    last = points - 1
    stop = points if stop is None else stop
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

    Also stops once an interior point reaches an end of the bracket:
    the bracket is then at float spacing and cannot shrink further.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c and d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = max(a, b - _INV_PHI * (b - a))
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = min(b, a + _INV_PHI * (b - a))
            fd = f(d)
    return (a + b) / 2


@lru_cache(maxsize=None)
def _bracket_table() -> tuple[float, ...]:
    """``_measures`` over the bracket grid, computed once per process and
    shared by the three optimizers."""
    return tuple(_measures(_grid(BRACKET_GRID)))


def _locate_minima(f, fs, tol: float) -> list[Optimum]:
    """Bracket-and-refine minimization of f over [0, pi/3], where fs holds
    f at the BRACKET_GRID points of the bracket grid.

    Returns every detected minimum as an Optimum, best first.  Each
    interior grid minimum brackets one, and so does the last grid step
    when f falls there; a minimum refined in that step within
    max(10 tol, 1e-9) of pi/3 is snapped onto it.  No measure falls at
    x = 0 or brackets a minimum twice; the tests pin this layout.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    xs = _bracket_table()[::7]

    brackets = [
        (xs[i - 1], xs[i + 1])
        for i in range(1, BRACKET_GRID - 1)
        if fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1]
    ]
    if fs[-1] < fs[-2]:
        brackets.append((xs[-2], xs[-1]))

    snap = max(10.0 * tol, 1e-9)
    found: list[Optimum] = []
    for lo, hi in brackets:
        x_star = _golden_section(f, lo, hi, tol)
        at_boundary = hi == xs[-1] and ARC_MAX - x_star <= snap
        if at_boundary:
            x_star = ARC_MAX
        found.append(Optimum(x_star, f(x_star), at_boundary))

    found.sort(key=lambda opt: (opt.objective_value, opt.x_star))
    return found


def minimize_sd(tol: float = 1e-10) -> Optimum:
    """Arc length minimizing the standard deviation of the areas.

    The deviation decreases across the whole domain, so the minimum
    sits on the boundary at x = pi/3, where the central triangle
    vanishes and six pieces share everything.
    """
    return _locate_minima(sd, _bracket_table()[4::7], tol)[0]


def minimize_mad(tol: float = 1e-10) -> tuple[Optimum, list[Optimum]]:
    """Global and local minimizers of the mean absolute deviation.

    Returns (global_minimum, other_minima), 0.126 and [0.304]: they never
    tie, and each sits on a kink where some piece crosses the fair share.
    """
    best, *others = _locate_minima(mad, _bracket_table()[5::7], tol)
    return best, others


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
    fs = [-v for v in _bracket_table()[6::7]]
    best = _locate_minima(lambda x: -min_piece(x), fs, tol / 2)[0]
    return Optimum(best.x_star, -best.objective_value, best.at_boundary)


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
