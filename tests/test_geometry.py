import math
import subprocess
import sys

import pytest

from maxdiv import geometry
from maxdiv.geometry import (
    ARC_MAX,
    Chord,
    ChordSet,
    DegenerateConfigurationError,
    InvalidChordError,
    area_circular_trapezoid,
    area_circular_triangle,
    area_profile,
    area_triangle,
    count_regions_geometric,
    max_regions,
    random_chord_set,
    validate_chord_set,
)

GRID = [ARC_MAX * i / 9999 for i in range(10000)]

# Five-decimal checkpoints for the two published cut configurations; the
# arc lengths themselves are rounded, hence the 1e-5 slack.
CHECKPOINTS = [
    (0.45061, area_triangle, 0.44880),
    (0.45061, area_circular_triangle, 0.09399),
    (0.45061, area_circular_trapezoid, 0.80361),
    (0.96976, area_circular_triangle, 0.44880),
    (0.96976, area_circular_trapezoid, 0.59581),
    (0.96976, area_triangle, 0.00779),
]


def signature_region_count(chord_set):
    """Independent region count: distinct side-of-chord sign vectors.

    Regions of a line arrangement restricted to the disk are convex, so
    each has exactly one sign vector, and every region touches at least
    one vertex of the subdivision.  Probing a small ring around every
    vertex therefore visits every region.
    """
    chords = chord_set.chords
    crossings = validate_chord_set(chord_set)
    ring = [(math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)) for k in range(16)]
    centers = [p for _, _, p in crossings]
    for c in chords:
        centers.extend(c.endpoints())
    seen = set()
    for cx, cy in centers:
        for dx, dy in ring:
            px, py = cx + 2e-4 * dx, cy + 2e-4 * dy
            if math.hypot(px, py) >= 1.0 - 1e-7:
                continue
            sides = []
            for c in chords:
                nx, ny = c.normal
                s = px * nx + py * ny - c.offset
                if abs(s) < 1e-9:
                    break
                sides.append(s > 0.0)
            else:
                seen.add(tuple(sides))
    return len(seen)


def test_area_endpoints():
    assert area_triangle(0.0) == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-15)
    assert area_triangle(ARC_MAX) == pytest.approx(0.0, abs=1e-15)
    assert area_circular_triangle(0.0) == 0.0
    assert area_circular_triangle(ARC_MAX) == pytest.approx(math.pi / 6, abs=1e-15)
    assert area_circular_trapezoid(0.0) == pytest.approx(math.pi / 3 - math.sqrt(3) / 4, abs=1e-15)
    assert area_circular_trapezoid(ARC_MAX) == pytest.approx(math.pi / 6, abs=1e-15)


def test_published_checkpoints():
    for x, fn, expected in CHECKPOINTS:
        assert fn(x) == pytest.approx(expected, abs=1e-5)


def test_conservation_on_dense_grid():
    """The seven pieces always add up to the disk."""
    for x in GRID:
        assert abs(area_profile(x).total() - math.pi) <= 1e-12


def test_sector_identity():
    # a 120-degree sector holds one circular triangle, one trapezoid,
    # and a third of the central triangle
    for x in GRID[::37]:
        p = area_profile(x)
        sector = p.triangle / 3 + p.circular_triangle + p.circular_trapezoid
        assert sector == pytest.approx(math.pi / 3, abs=1e-12)


def test_triangle_monotone_decreasing():
    values = [area_triangle(x) for x in GRID[::11]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_circular_triangle_monotone_increasing():
    values = [area_circular_triangle(x) for x in GRID[::11]]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_areas_nonnegative():
    for x in GRID[::7]:
        assert min(area_profile(x).areas()) >= 0.0


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
        assert geometry._areas(x) == _paper_areas(x) == (
            area_triangle(x), area_circular_triangle(x), area_circular_trapezoid(x)
        )


def test_domain_rejected_outside():
    for bad in (-0.1, -1e-12, ARC_MAX + 1e-9, 4.0):
        with pytest.raises(ValueError):
            area_triangle(bad)
        with pytest.raises(ValueError):
            area_circular_triangle(bad)
        with pytest.raises(ValueError):
            area_circular_trapezoid(bad)
        with pytest.raises(ValueError):
            geometry._areas(bad)


def test_profile_accessors():
    p = area_profile(0.5)
    assert len(p.areas()) == 7
    assert p.smallest() == min(p.areas())
    assert p.areas().count(p.circular_triangle) >= 3


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
    assert count_regions_geometric(ChordSet(())) == 1
    assert count_regions_geometric(ChordSet((Chord(0.3, 0.1),))) == 2


def test_count_regions_hand_built_three_chords():
    cs = ChordSet(tuple(Chord(angle=k * math.pi / 3, offset=0.1) for k in range(3)))
    assert count_regions_geometric(cs) == 7
    assert signature_region_count(cs) == 7


def test_count_regions_matches_signature_oracle():
    for n in range(1, 7):
        for seed in range(10):
            cs = random_chord_set(n, seed)
            euler = count_regions_geometric(cs)
            assert euler == signature_region_count(cs)
            assert euler == max_regions(n, 2)


def test_random_chord_set_deterministic():
    a = random_chord_set(4, 42)
    b = random_chord_set(4, 42)
    assert a == b
    assert count_regions_geometric(a) == 11
    assert random_chord_set(4, 43) != a


def test_random_chord_set_respects_bounds():
    cs = random_chord_set(6, 7)
    for c in cs.chords:
        assert 0.0 <= c.angle <= math.pi
        assert -0.2 <= c.offset <= 0.2


def test_random_chord_set_rejects_bad_n():
    with pytest.raises(ValueError):
        random_chord_set(0, 1)


def test_validate_rejects_parallel():
    cs = ChordSet((Chord(0.5, 0.0), Chord(0.5, 0.1)))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)


def test_validate_rejects_concurrent():
    # three distinct diameters all pass through the origin
    cs = ChordSet((Chord(0.1, 0.0), Chord(1.0, 0.0), Chord(2.0, 0.0)))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)


def test_validate_rejects_exterior_crossing():
    # nearly parallel chords meet far outside the disk
    cs = ChordSet((Chord(0.5, 0.1), Chord(0.5 + 1e-3, -0.1)))
    with pytest.raises(DegenerateConfigurationError):
        validate_chord_set(cs)


def test_validate_rejects_line_missing_disk():
    with pytest.raises(InvalidChordError):
        ChordSet((Chord(0.0, 1.5),)).chords[0].endpoints()
    with pytest.raises(InvalidChordError):
        count_regions_geometric(ChordSet((Chord(0.0, 1.0), Chord(1.0, 0.0))))


def test_general_position_margin_exposed():
    assert geometry.GENERAL_POSITION_TOL == 1e-9


def test_package_names_resolve_on_first_use():
    """maxdiv's names come from geometry, imported only when one is used."""
    code = (
        "import sys, maxdiv\n"
        "print('maxdiv.geometry' in sys.modules)\n"
        "from maxdiv import Chord, max_regions, random_chord_set\n"
        "from maxdiv import *\n"
        "from maxdiv import geometry\n"
        "print(all(getattr(maxdiv, name) is getattr(geometry, name) for name in maxdiv.__all__))\n"
        "print(max_regions(3, 2), len(random_chord_set(3, 0).chords), Chord is geometry.Chord)\n"
        "print(hasattr(maxdiv, 'no_such_name'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True", "7", "3", "True", "False"]
