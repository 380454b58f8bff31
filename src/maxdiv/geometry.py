"""Region counts for maximal chord divisions of the unit disk.

The straight-cut region-count maximum in any dimension, and a geometric
counter that works directly on a set of chords: 1 + n + (interior
crossings), with the crossings found and checked by validate_chord_set.
The piece areas of the symmetric seven-piece division are computed in
``maxdiv.fairness``, the one place their formulas live.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from typing import NamedTuple

#: Interior intersections must clear the circle, each other, and the chord
#: endpoints by this margin for the combinatorial count to be trustworthy.
GENERAL_POSITION_TOL = 1e-9

#: Attempts allowed when rejection-sampling a valid arrangement.
RETRY_BUDGET = 1000


class InvalidChordError(ValueError):
    """A line misses the unit disk entirely (or is tangent to it)."""


class DegenerateConfigurationError(ValueError):
    """The chords are not a maximal arrangement in general position."""


class RetryBudgetError(ValueError):
    """A refusal of (n, seed): rejection sampling spent its retry budget."""


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


class Chord(NamedTuple):
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


def _intersection(a: Chord, b: Chord) -> tuple[float, float] | None:
    ax, ay = a.normal
    bx, by = b.normal
    det = ax * by - ay * bx
    if abs(det) < 1e-12:
        return None
    px = (a.offset * by - b.offset * ay) / det
    py = (ax * b.offset - bx * a.offset) / det
    return (px, py)


def _require_apart(points: list[tuple[float, float]], reason: str) -> None:
    """Refuse, with reason, any two points closer than GENERAL_POSITION_TOL."""
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if math.dist(points[a], points[b]) < GENERAL_POSITION_TOL:
                raise DegenerateConfigurationError(reason)


def validate_chord_set(chords: Sequence[Chord]) -> list[tuple[float, float]]:
    """Check the maximal-arrangement invariants.

    Every pair of chords must cross strictly inside the disk, no two may
    be parallel, and no three concurrent; all distinctness is enforced
    with margin GENERAL_POSITION_TOL.  Returns the interior crossing
    points.

    Raises InvalidChordError if a line misses the disk, and
    DegenerateConfigurationError for any other violated invariant.
    """
    endpoints = [point for chord in chords for point in chord.endpoints()]
    crossings: list[tuple[float, float]] = []
    for i in range(len(chords)):
        for j in range(i + 1, len(chords)):
            point = _intersection(chords[i], chords[j])
            if point is None:
                raise DegenerateConfigurationError(f"chords {i} and {j} are parallel")
            if math.hypot(*point) > 1.0 - GENERAL_POSITION_TOL:
                raise DegenerateConfigurationError(
                    f"chords {i} and {j} do not cross strictly inside the disk"
                )
            crossings.append(point)
    _require_apart(crossings, "three chords are concurrent (or nearly so)")
    _require_apart(endpoints, "two chord endpoints coincide on the circle")
    return crossings


def count_regions_geometric(chords: Sequence[Chord]) -> int:
    """Count the pieces a chord set cuts the disk into: 1 + n + c for n
    chords with c interior crossings (Zaslavsky 1975).

    Each chord adds one piece, plus one for each crossing on it with an
    earlier chord.  This is Euler's formula for the subdivision: V = 2n
    + c and E = 3n + 2c, so F - 1 = E - V + 1 = 1 + n + c.  The count
    comes from the crossings validate_chord_set finds, not from n alone;
    but that check refuses every set that is not maximal, so c = C(n, 2)
    and the count restates max_regions(n, 2) for every set it accepts.
    """
    return 1 + len(chords) + len(validate_chord_set(chords))


def random_chord_set(n: int, seed: int) -> tuple[Chord, ...]:
    """Sample a valid maximal arrangement of n chords, deterministically.

    Each candidate line takes a normal direction uniform on [0, pi) and
    an offset uniform on [-0.2, 0.2]; the tight offset band keeps all
    crossings interior with high probability for n up to about 10.
    Candidates failing validation are rejected and redrawn, up to
    RETRY_BUDGET whole-set attempts.

    The result is a pure function of (n, seed), for a seed >= 0:
    random.Random seeds with |seed|, so a negative seed is refused rather
    than given the arrangement of its absolute value.
    """
    if n < 1:
        raise ValueError(f"need at least one chord, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        candidate = tuple(
            Chord(angle=rng.uniform(0.0, math.pi), offset=rng.uniform(-0.2, 0.2))
            for _ in range(n)
        )
        try:
            validate_chord_set(candidate)
        except DegenerateConfigurationError:  # offsets in [-0.2, 0.2] always meet the disk
            continue
        return candidate
    raise RetryBudgetError(
        f"no valid {n}-chord arrangement within {RETRY_BUDGET} attempts (seed {seed})"
    )
