import math

import pytest

from maxdiv import geometry
from maxdiv.fairness import ARC_MAX, _areas
from maxdiv.geometry import (
    Chord,
    DegenerateConfigurationError,
    InvalidChordError,
    RetryBudgetError,
    count_regions_geometric,
    max_regions,
    random_chord_set,
    validate_chord_set,
)

GRID = [ARC_MAX * i / 9999 for i in range(10000)]

# Five-decimal checkpoints for the two published cut configurations, as
# (arc length, piece, area) with pieces 0, 1, 2 the central triangle, a
# circular triangle and a circular trapezoid; the arc lengths themselves
# are rounded, hence the 1e-5 slack.
CHECKPOINTS = [
    (0.45061, 0, 0.44880),
    (0.45061, 1, 0.09399),
    (0.45061, 2, 0.80361),
    (0.96976, 1, 0.44880),
    (0.96976, 2, 0.59581),
    (0.96976, 0, 0.00779),
]


def signature_region_count(chords):
    """Independent region count: distinct side-of-chord sign vectors.

    Each region is bounded by at least one chord segment, the part of a
    chord between consecutive crossings or endpoints.  A ball around the
    segment's midpoint that meets no other chord and stays in the disk
    has one region on each side of the chord, so probing both sides of
    every midpoint, at half that ball's radius, visits every region.
    """
    lines = [(*c.normal, c.offset) for c in chords]

    def side(point, line):
        return point[0] * line[0] + point[1] * line[1] - line[2]

    seen = set()
    for i, chord in enumerate(chords):
        nx, ny, _ = lines[i]
        (ax, ay), (bx, by) = chord.endpoints()
        ts = [0.0, 1.0]
        for j, other in enumerate(lines):
            da, db = side((ax, ay), other), side((bx, by), other)
            if j != i and (da < 0.0) != (db < 0.0):
                ts.append(da / (da - db))
        ts.sort()
        for t0, t1 in zip(ts, ts[1:]):
            t = (t0 + t1) / 2
            mx, my = ax + t * (bx - ax), ay + t * (by - ay)
            clear = min([1.0 - math.hypot(mx, my)]
                        + [abs(side((mx, my), line)) for j, line in enumerate(lines) if j != i])
            for sign in (1.0, -1.0):
                probe = (mx + sign * clear / 2 * nx, my + sign * clear / 2 * ny)
                seen.add(tuple(side(probe, line) > 0.0 for line in lines))
    return len(seen)


def test_area_endpoints():
    triangle, circular_triangle, circular_trapezoid = _areas(0.0)
    assert triangle == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-15)
    assert circular_triangle == 0.0
    assert circular_trapezoid == pytest.approx(math.pi / 3 - math.sqrt(3) / 4, abs=1e-15)
    triangle, circular_triangle, circular_trapezoid = _areas(ARC_MAX)
    assert triangle == pytest.approx(0.0, abs=1e-15)
    assert circular_triangle == pytest.approx(math.pi / 6, abs=1e-15)
    assert circular_trapezoid == pytest.approx(math.pi / 6, abs=1e-15)


def test_published_checkpoints():
    for x, piece, expected in CHECKPOINTS:
        assert _areas(x)[piece] == pytest.approx(expected, abs=1e-5)


def test_conservation_on_dense_grid():
    """The seven pieces always add up to the disk."""
    for x in GRID:
        triangle, circular_triangle, circular_trapezoid = _areas(x)
        total = triangle + 3.0 * circular_triangle + 3.0 * circular_trapezoid
        assert abs(total - math.pi) <= 1e-12


def test_sector_identity():
    # a 120-degree sector holds one circular triangle, one trapezoid,
    # and a third of the central triangle
    for x in GRID[::37]:
        triangle, circular_triangle, circular_trapezoid = _areas(x)
        sector = triangle / 3 + circular_triangle + circular_trapezoid
        assert sector == pytest.approx(math.pi / 3, abs=1e-12)


def test_triangle_monotone_decreasing():
    values = [_areas(x)[0] for x in GRID[::11]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_circular_triangle_monotone_increasing():
    values = [_areas(x)[1] for x in GRID[::11]]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_areas_nonnegative():
    for x in GRID[::7]:
        assert min(_areas(x)) >= 0.0


def _paper_areas(x):
    """The three area formulas as the paper states them, one sine per use."""
    s = math.sin(math.pi / 6 - x / 2)
    return (
        3.0 * math.sqrt(3.0) * s * s,
        x / 2 - 2.0 * math.sin(x / 2) * math.sin(math.pi / 6 - x / 2),
        math.pi / 3 - x / 2 + 2.0 * math.sin(x / 2) * s - math.sqrt(3.0) * s * s,
    )


def test_shared_kernel_matches_area_functions_bit_for_bit():
    for x in GRID + [0.0, ARC_MAX, 0.45061, 0.96976, 0.6520005058]:
        assert _areas(x) == _paper_areas(x)


def test_domain_rejected_outside():
    for bad in (-0.1, -1e-12, ARC_MAX + 1e-9, 4.0):
        with pytest.raises(ValueError):
            _areas(bad)


def test_max_regions_known_values():
    assert max_regions(3, 2) == 7
    assert max_regions(0, 2) == 1
    assert max_regions(1, 2) == 2
    assert max_regions(5, 3) == 26
    assert max_regions(4, 3) == 15


def test_max_regions_matches_binomial_sum():
    for n in range(0, 13):
        for d in range(1, 6):
            assert max_regions(n, d) == sum(math.comb(n, i) for i in range(d + 1))


def test_max_regions_saturates_at_powers_of_two():
    # once d >= n every subset counts
    assert max_regions(4, 4) == 16
    assert max_regions(6, 9) == 64
    assert max_regions(20, 10**4) == 2**20


def test_max_regions_rejects_bad_input():
    with pytest.raises(ValueError):
        max_regions(-1, 2)
    with pytest.raises(ValueError):
        max_regions(3, 0)


def test_count_regions_empty_and_single():
    assert count_regions_geometric(()) == 1
    assert count_regions_geometric((Chord(0.3, 0.1),)) == 2


def test_count_regions_hand_built_three_chords():
    cs = tuple(Chord(angle=k * math.pi / 3, offset=0.1) for k in range(3))
    assert count_regions_geometric(cs) == 7
    assert signature_region_count(cs) == 7


def test_count_regions_matches_signature_oracle():
    """Up to n = 10, the largest `oracle --n` takes."""
    for n in range(1, 11):
        for seed in range(10):
            cs = random_chord_set(n, seed)
            counted = count_regions_geometric(cs)
            assert counted == signature_region_count(cs)
            assert counted == max_regions(n, 2)


def test_random_chord_set_deterministic():
    a = random_chord_set(4, 42)
    b = random_chord_set(4, 42)
    assert a == b
    assert count_regions_geometric(a) == 11
    assert random_chord_set(4, 43) != a


def test_random_chord_set_respects_bounds():
    cs = random_chord_set(6, 7)
    for c in cs:
        assert 0.0 <= c.angle <= math.pi
        assert -0.2 <= c.offset <= 0.2


def test_random_chord_set_rejects_bad_n():
    with pytest.raises(ValueError):
        random_chord_set(0, 1)


def test_random_chord_set_refuses_a_negative_seed():
    """random.Random seeds with |seed|, so -1 would give the arrangement of 1."""
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        random_chord_set(3, -1)
    assert count_regions_geometric(random_chord_set(3, 0)) == 7


def test_random_chord_set_refuses_once_its_retry_budget_is_spent():
    # at n = 16, no candidate in the budget of any of these seeds keeps
    # every crossing inside the disk and apart
    for seed in range(5):
        with pytest.raises(RetryBudgetError, match=f"within {geometry.RETRY_BUDGET} attempts"):
            random_chord_set(16, seed)


def test_validate_rejects_parallel():
    cs = (Chord(0.5, 0.0), Chord(0.5, 0.1))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)


def test_validate_rejects_concurrent():
    # three distinct diameters all pass through the origin
    cs = (Chord(0.1, 0.0), Chord(1.0, 0.0), Chord(2.0, 0.0))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)

    # the line y = 0 and lines at 1.0 and 1.0 + 1e-3 rad through (0.3, 0)
    # and (0.3 + 5e-10, 0): only crossings 0 and 1, neighbours in the
    # list, are 5e-10 apart, and crossing 2 lies 4.2e-7 from both
    def line(direction: float, x: float) -> Chord:
        return Chord(direction + math.pi / 2, -math.sin(direction) * x)

    cs = (Chord(math.pi / 2, 0.0), line(1.0, 0.3), line(1.0 + 1e-3, 0.3 + 5e-10))
    with pytest.raises(DegenerateConfigurationError, match="concurrent"):
        validate_chord_set(cs)


def test_validate_rejects_exterior_crossing():
    # nearly parallel chords meet far outside the disk
    cs = (Chord(0.5, 0.1), Chord(0.5 + 1e-3, -0.1))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)


def test_validate_rejects_coinciding_endpoints():
    # two diameters 1e-10 apart cross at the centre, so only the endpoint
    # check can refuse them
    cs = (Chord(math.pi / 2, 0.0), Chord(math.pi / 2 + 1e-10, 0.0))
    with pytest.raises(DegenerateConfigurationError, match="endpoints coincide"):
        validate_chord_set(cs)

    # the chords through the circle points at angles pi + 0.3, 0 and at
    # 4e-10, pi + 0.3 + 2e-3: only endpoints 1 and 2, neighbours in the
    # list, are 4e-10 apart, and they cross 3.9e-7 inside the circle
    def through(alpha: float, beta: float) -> Chord:
        """The chord with endpoints() at angles alpha, then beta > alpha."""
        return Chord((alpha + beta) / 2 + math.pi, -math.cos((beta - alpha) / 2))

    cs = (through(math.pi + 0.3, 2 * math.pi), through(4e-10, math.pi + 0.3 + 2e-3))
    points = [point for chord in cs for point in chord.endpoints()]
    assert math.dist(points[1], (1.0, 0.0)) < 1e-15
    assert math.dist(points[2], (math.cos(4e-10), math.sin(4e-10))) < 1e-15
    with pytest.raises(DegenerateConfigurationError, match="endpoints coincide"):
        validate_chord_set(cs)


def test_chords_at_a_small_angle_still_cross():
    # 1e-6 apart: far from parallel at the 1e-12 threshold, and their
    # endpoints clear GENERAL_POSITION_TOL
    cs = (Chord(math.pi / 2, 0.0), Chord(math.pi / 2 + 1e-6, 0.0))
    assert count_regions_geometric(cs) == 4


def test_validate_rejects_line_missing_disk():
    with pytest.raises(InvalidChordError):
        Chord(0.0, 1.5).endpoints()
    with pytest.raises(InvalidChordError):
        count_regions_geometric((Chord(0.0, 1.0), Chord(1.0, 0.0)))


def test_general_position_margin_exposed():
    assert geometry.GENERAL_POSITION_TOL == 1e-9
