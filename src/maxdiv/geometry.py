"""Areas and region counts for maximal chord divisions of the unit disk.

Three chords in general position cut a disk into seven pieces.  The
symmetric family studied here is parameterized by a single arc length
``x``: each chord subtends an arc of length ``x`` against one side, and
the whole configuration has threefold rotational symmetry.  The seven
pieces then fall into three congruence classes (one central triangle,
three circular triangles, three circular trapezoids) whose areas are
closed-form functions of ``x`` on ``[0, pi/3]``.

The module also provides the straight-cut region-count maximum in any
dimension and an independent geometric counter that works directly on a
set of chords via Euler's formula.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ARC_MAX = math.pi / 3

#: Interior intersections must clear the circle, each other, and the chord
#: endpoints by this margin for the combinatorial count to be trustworthy.
GENERAL_POSITION_TOL = 1e-9

#: Attempts allowed when rejection-sampling a valid arrangement.
RETRY_BUDGET = 1000

_SQRT3 = math.sqrt(3.0)
_PI_6 = math.pi / 6


class InvalidChordError(ValueError):
    """A line misses the unit disk entirely (or is tangent to it)."""


class DegenerateConfigurationError(ValueError):
    """The chords are not a maximal arrangement in general position."""


class RetryBudgetError(RuntimeError):
    """Rejection sampling failed to produce a valid arrangement."""


def _check_arc(x: float) -> None:
    if not 0.0 <= x <= ARC_MAX:
        raise ValueError(f"arc length {x!r} outside [0, pi/3]")


def area_triangle(x: float) -> float:
    """Area of the central equilateral triangle: 3*sqrt(3)*sin^2(pi/6 - x/2).

    Shrinks monotonically from 3*sqrt(3)/4 at x = 0 to a point at
    x = pi/3, where the three chords meet in the center.
    """
    return _areas(x)[0]


def area_circular_triangle(x: float) -> float:
    """Area of one circular triangle: x/2 - 2*sin(x/2)*sin(pi/6 - x/2).

    The piece bounded by an arc of length x and two chord segments;
    there are three of them.  Zero at x = 0.
    """
    return _areas(x)[1]


def area_circular_trapezoid(x: float) -> float:
    """Area of one circular trapezoid:
    pi/3 - x/2 + 2*sin(x/2)*sin(pi/6 - x/2) - sqrt(3)*sin^2(pi/6 - x/2).

    The remainder of a 120-degree sector after the circular triangle and
    a third of the central triangle are removed, so the three classes
    always add up to the disk.
    """
    return _areas(x)[2]


@dataclass(frozen=True)
class AreaProfile:
    """Areas of the seven pieces, one entry per congruence class.

    Attributes:
        triangle: area of the central triangle (multiplicity 1).
        circular_triangle: area of each circular triangle (multiplicity 3).
        circular_trapezoid: area of each circular trapezoid (multiplicity 3).
    """

    triangle: float
    circular_triangle: float
    circular_trapezoid: float

    def total(self) -> float:
        """Sum over all seven pieces; equals pi for any valid profile."""
        return (
            self.triangle
            + 3.0 * self.circular_triangle
            + 3.0 * self.circular_trapezoid
        )

    def areas(self) -> tuple[float, ...]:
        """The seven piece areas with multiplicity."""
        return (
            (self.triangle,)
            + (self.circular_triangle,) * 3
            + (self.circular_trapezoid,) * 3
        )

    def smallest(self) -> float:
        return min(self.triangle, self.circular_triangle, self.circular_trapezoid)


def _areas(x: float) -> tuple[float, float, float]:
    """(triangle, circular_triangle, circular_trapezoid) at arc length x.

    The one evaluation of the three area formulas, with one domain check
    and each sine taken once; the area functions above return its parts.
    """
    _check_arc(x)
    s = math.sin(_PI_6 - x / 2)
    chord_s = 2.0 * math.sin(x / 2) * s
    return (
        3.0 * _SQRT3 * s * s,
        x / 2 - chord_s,
        ARC_MAX - x / 2 + chord_s - _SQRT3 * s * s,
    )


def area_profile(x: float) -> AreaProfile:
    """All three class areas at arc length x."""
    return AreaProfile(*_areas(x))


def max_regions(n: int, d: int) -> int:
    """Most regions n straight cuts can create in d dimensions.

    Exact integer sum of C(n, i) for i = 0..d; arbitrary-precision, so
    large inputs cannot silently wrap.  C(n, i) = 0 for i > n, so the
    sum stops at min(n, d) and a huge d costs nothing.
    """
    if n < 0:
        raise ValueError(f"cut count must be nonnegative, got {n}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    return sum(math.comb(n, i) for i in range(min(n, d) + 1))


@dataclass(frozen=True)
class Chord:
    """A chord of the unit disk, stored as its supporting line.

    The line is {p : p . normal = offset} with unit normal
    (cos(angle), sin(angle)); |offset| < 1 guarantees a real chord.
    """

    angle: float
    offset: float

    @property
    def normal(self) -> tuple[float, float]:
        return (math.cos(self.angle), math.sin(self.angle))

    def endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The two points where the chord meets the unit circle."""
        if abs(self.offset) >= 1.0:
            raise InvalidChordError(
                f"line at offset {self.offset!r} misses the unit disk"
            )
        nx, ny = self.normal
        half = math.sqrt(1.0 - self.offset * self.offset)
        fx, fy = self.offset * nx, self.offset * ny
        return (
            (fx - half * ny, fy + half * nx),
            (fx + half * ny, fy - half * nx),
        )


@dataclass(frozen=True)
class ChordSet:
    """A collection of chords intended to divide the disk maximally."""

    chords: tuple[Chord, ...]

    def __len__(self) -> int:
        return len(self.chords)


def _intersection(a: Chord, b: Chord) -> tuple[float, float] | None:
    ax, ay = a.normal
    bx, by = b.normal
    det = ax * by - ay * bx
    if abs(det) < 1e-12:
        return None
    px = (a.offset * by - b.offset * ay) / det
    py = (ax * b.offset - bx * a.offset) / det
    return (px, py)


def validate_chord_set(chord_set: ChordSet) -> list[tuple[int, int, tuple[float, float]]]:
    """Check the maximal-arrangement invariants.

    Every pair of chords must cross strictly inside the disk, no two may
    be parallel, and no three concurrent; all distinctness is enforced
    with margin GENERAL_POSITION_TOL.  Returns the interior crossing
    points as (i, j, point) triples.

    Raises InvalidChordError if a line misses the disk, and
    DegenerateConfigurationError for any other violated invariant.
    """
    endpoints: list[tuple[float, float]] = []
    for chord in chord_set.chords:
        endpoints.extend(chord.endpoints())

    crossings: list[tuple[int, int, tuple[float, float]]] = []
    m = len(chord_set.chords)
    for i in range(m):
        for j in range(i + 1, m):
            point = _intersection(chord_set.chords[i], chord_set.chords[j])
            if point is None:
                raise DegenerateConfigurationError(f"chords {i} and {j} are parallel")
            if math.hypot(*point) > 1.0 - GENERAL_POSITION_TOL:
                raise DegenerateConfigurationError(
                    f"chords {i} and {j} do not cross strictly inside the disk"
                )
            crossings.append((i, j, point))

    pts = [p for _, _, p in crossings]
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if math.dist(pts[a], pts[b]) < GENERAL_POSITION_TOL:
                raise DegenerateConfigurationError(
                    "three chords are concurrent (or nearly so)"
                )
    for a in range(len(endpoints)):
        for b in range(a + 1, len(endpoints)):
            if math.dist(endpoints[a], endpoints[b]) < GENERAL_POSITION_TOL:
                raise DegenerateConfigurationError(
                    "two chord endpoints coincide on the circle"
                )
    return crossings


def count_regions_geometric(chord_set: ChordSet) -> int:
    """Count the pieces a chord set cuts the disk into, via Euler's formula.

    Builds the planar subdivision instead of trusting any counting
    formula: vertices are the 2n points on the circle plus the interior
    crossings, edges are the chord segments between consecutive
    crossings plus the 2n boundary arcs, and V - E + F = 2 gives the
    face count of the connected subdivision.
    """
    n = len(chord_set)
    if n == 0:
        return 1
    crossings = validate_chord_set(chord_set)
    per_chord = [0] * n
    for i, j, _ in crossings:
        per_chord[i] += 1
        per_chord[j] += 1
    vertices = 2 * n + len(crossings)
    edges = sum(1 + k for k in per_chord) + 2 * n
    faces = edges - vertices + 2
    return faces - 1


def random_chord_set(n: int, seed: int) -> ChordSet:
    """Sample a valid maximal arrangement of n chords, deterministically.

    Each candidate line takes a normal direction uniform on [0, pi) and
    an offset uniform on [-0.2, 0.2]; the tight offset band keeps all
    crossings interior with high probability for n up to about 10.
    Candidates failing validation are rejected and redrawn, up to
    RETRY_BUDGET whole-set attempts.

    The result is a pure function of (n, seed).
    """
    if n < 1:
        raise ValueError(f"need at least one chord, got {n}")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        candidate = ChordSet(
            tuple(
                Chord(angle=rng.uniform(0.0, math.pi), offset=rng.uniform(-0.2, 0.2))
                for _ in range(n)
            )
        )
        try:
            validate_chord_set(candidate)
        except (InvalidChordError, DegenerateConfigurationError):
            continue
        return candidate
    raise RetryBudgetError(
        f"no valid {n}-chord arrangement within {RETRY_BUDGET} attempts (seed {seed})"
    )
