"""Fairness of the symmetric seven-piece division, as a function of arc length.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from maxdiv.geometry import ARC_MAX, AreaProfile, _areas, _check_arc

#: Fair share of the unit disk for each of the seven pieces.
MEAN_AREA = math.pi / 7

_PI2_7 = math.pi**2 / 7.0

#: Coarse-grid resolution used to bracket minima before refinement.
BRACKET_GRID = 4096

#: Two refined minima closer than this in value are considered tied;
#: ties go to the smaller arc length.
VALUE_TIE_TOL = 1e-12

_SQRT3 = math.sqrt(3.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConsistencyError(RuntimeError):
    """Two independent routes to the same optimum disagreed."""


class FairnessReport(NamedTuple):
    """All fairness measures at one arc length, in CSV column order.

    alpha1, alpha2 and alpha3 are the areas of the central triangle, of
    each circular triangle and of each circular trapezoid.
    """

    x: float
    alpha1: float
    alpha2: float
    alpha3: float
    sd: float
    mad: float
    min_piece: float

    @property
    def profile(self) -> AreaProfile:
        return AreaProfile(self.alpha1, self.alpha2, self.alpha3)


@dataclass(frozen=True)
class Optimum:
    """A located extremum of a fairness measure.

    kind is "global_min", "local_min" or "global_max"; at_boundary is
    true iff x_star lies within tolerance of an end of [0, pi/3].
    """

    x_star: float
    objective_value: float
    kind: str
    at_boundary: bool


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


def _guarded_sqrt(value: float) -> float:
    # rounding may push an exact zero a hair negative; anything worse
    # than -1e-12 signals a real bug upstream
    if value < -1e-12:
        raise ValueError(f"negative radicand {value!r} in deviation formula")
    return math.sqrt(max(value, 0.0))


def _sd(triangle: float, circular_triangle: float, circular_trapezoid: float) -> float:
    square_sum = triangle**2 + 3.0 * circular_triangle**2 + 3.0 * circular_trapezoid**2
    return _guarded_sqrt((square_sum - _PI2_7) / 7.0)


def _mad(triangle: float, circular_triangle: float, circular_trapezoid: float) -> float:
    return (
        abs(triangle - MEAN_AREA)
        + 3.0 * abs(circular_triangle - MEAN_AREA)
        + 3.0 * abs(circular_trapezoid - MEAN_AREA)
    ) / 7.0


def profile_sd(profile: AreaProfile) -> float:
    """Population standard deviation of the seven areas of a profile."""
    return _sd(profile.triangle, profile.circular_triangle, profile.circular_trapezoid)


def profile_mad(profile: AreaProfile) -> float:
    """Mean absolute deviation of the seven areas from the fair share."""
    return _mad(profile.triangle, profile.circular_triangle, profile.circular_trapezoid)


def sd(x: float) -> float:
    """Standard deviation of the seven areas at arc length x."""
    return _sd(*_areas(x))


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
    return _guarded_sqrt(bracket) / 7.0


def mad(x: float) -> float:
    """Mean absolute deviation of the seven areas at arc length x."""
    return _mad(*_areas(x))


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
    return min(_areas(x))


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


def _locate_minima(f, tol: float) -> list[Optimum]:
    """Bracket-and-refine minimization of f over [0, pi/3].

    Returns every detected minimum as an Optimum, best first.  A minimum
    refined inside a bracket that touches an end of the domain is
    snapped to that end when it lies within max(10 tol, 1e-9) of it;
    interior brackets are never snapped.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    xs = list(_grid(BRACKET_GRID))
    fs = [f(x) for x in xs]

    brackets: list[tuple[float, float]] = []
    for i in range(1, BRACKET_GRID - 1):
        if fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1]:
            brackets.append((xs[i - 1], xs[i + 1]))
    if fs[0] < fs[1]:
        brackets.append((xs[0], xs[1]))
    if fs[-1] < fs[-2]:
        brackets.append((xs[-2], xs[-1]))

    snap = max(10.0 * tol, 1e-9)
    found: list[Optimum] = []
    for lo, hi in brackets:
        x_star = _golden_section(f, lo, hi, tol)
        at_boundary = False
        if lo == xs[0] and x_star <= snap:
            x_star, at_boundary = 0.0, True
        elif hi == xs[-1] and ARC_MAX - x_star <= snap:
            x_star, at_boundary = ARC_MAX, True
        candidate = Optimum(x_star, f(x_star), "local_min", at_boundary)
        # grid plateaus can bracket the same minimum twice
        if not any(abs(prev.x_star - candidate.x_star) < 1e-6 for prev in found):
            found.append(candidate)

    found.sort(key=lambda opt: (opt.objective_value, opt.x_star))
    return found


def minimize_sd(tol: float = 1e-10) -> Optimum:
    """Arc length minimizing the standard deviation of the areas.

    The deviation decreases across the whole domain, so the minimum
    sits on the boundary at x = pi/3, where the central triangle
    vanishes and six pieces share everything.
    """
    best = _locate_minima(sd, tol)[0]
    return Optimum(best.x_star, best.objective_value, "global_min", best.at_boundary)


def minimize_mad(tol: float = 1e-10) -> tuple[Optimum, list[Optimum]]:
    """Global and local minimizers of the mean absolute deviation.

    Returns (global_minimum, other_minima).  Both interesting minima sit
    on kinks where some piece crosses the fair share exactly.
    """
    ranked = _locate_minima(mad, tol)
    best = ranked[0]
    out = Optimum(best.x_star, best.objective_value, "global_min", best.at_boundary)
    locals_ = [
        opt
        for opt in ranked[1:]
        if opt.objective_value > out.objective_value + VALUE_TIE_TOL
    ]
    return out, locals_


def maximize_min_piece(tol: float = 1e-10) -> Optimum:
    """Arc length maximizing the smallest piece.

    The maximum sits where the central triangle and the circular
    triangles trade places as smallest piece.  The bracketed search is
    double-checked by bisecting that area crossing directly; the two
    routes must agree to within tol.  The two searches run at tol/2 and
    tol/4, so a tol whose quarter underflows to 0.0 is refused.
    """
    if not 0.0 < tol / 4 < math.inf:
        raise ValueError(
            f"tolerance must be positive and finite and tol/4 must not underflow"
            f" to 0.0, got {tol!r}"
        )
    ranked = _locate_minima(lambda x: -min_piece(x), tol / 2)
    best = ranked[0]

    crossing = _bisect_triangle_crossing(tol / 4)
    if abs(best.x_star - crossing) > tol:
        raise ConsistencyError(
            f"search maximum {best.x_star!r} disagrees with the "
            f"triangle-area crossing {crossing!r}"
        )
    return Optimum(best.x_star, -best.objective_value, "global_max", best.at_boundary)


def _bisect_triangle_crossing(tol: float) -> float:
    """Arc length where the central and circular triangles have equal area.

    Stops early once the midpoint equals an end: the bracket is then at
    float spacing.
    """

    def gap(x: float) -> float:
        triangle, circular_triangle, _ = _areas(x)
        return triangle - circular_triangle

    lo, hi = 0.0, ARC_MAX
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _measures(x: float) -> tuple[float, ...]:
    """The fields of ``report(x)`` as a plain tuple."""
    a1, a2, a3 = _areas(x)
    return x, a1, a2, a3, _sd(a1, a2, a3), _mad(a1, a2, a3), min(a1, a2, a3)


def report(x: float) -> FairnessReport:
    """All fairness measures at one arc length."""
    return FairnessReport._make(_measures(x))


def _rows(grid_points: int, start: int = 0, stop: int | None = None):
    """Rows start..stop-1 (all by default) of ``scan`` as plain tuples,
    computed one at a time.

    Only the requested rows are computed, so the CLI can stream the
    table and hand disjoint row ranges to separate processes.  The
    caller checks that grid_points is at least 2.
    """
    return map(_measures, _grid(grid_points, start, stop))


def scan(grid_points: int) -> list[FairnessReport]:
    """Fairness measures at uniformly spaced arc lengths covering [0, pi/3].

    Rows are independent of each other, so the output is the same no
    matter how the evaluation is scheduled.
    """
    if grid_points < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_points}")
    return list(map(FairnessReport._make, _rows(grid_points)))
