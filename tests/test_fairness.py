import json
import math
import statistics
import subprocess
import sys

import pytest
from clirun import invoke

from maxdiv import fairness
from maxdiv.cli import CHUNK_ROWS
from maxdiv.fairness import (
    ARC_MAX,
    MEAN_AREA,
    Optimum,
    _areas,
    mad,
    mad_expanded,
    maximize_min_piece,
    min_piece,
    minimize_mad,
    minimize_sd,
    sd,
    sd_closed_form,
)

GRID = [ARC_MAX * i / 999 for i in range(1000)]

# Published five-decimal optima: (arc length, per-class areas)
MAD_GLOBAL = (0.96976, (0.00779, 0.44880, 0.59581))
MAD_LOCAL = (0.45061, (0.44880, 0.09399, 0.80361))


def seven_areas(x):
    """The seven piece areas at arc length x, with multiplicity."""
    triangle, circular_triangle, circular_trapezoid = _areas(x)
    return (triangle,) + (circular_triangle,) * 3 + (circular_trapezoid,) * 3


def seven_value_sd(x):
    """Oracle: population standard deviation taken literally over 7 areas."""
    return statistics.pstdev(seven_areas(x))


def seven_value_mad(x):
    return sum(abs(a - MEAN_AREA) for a in seven_areas(x)) / 7


def reference_row(x):
    """Oracle: one table row, from the three areas and the stated formulas
    sd = sqrt((sum of squared areas - pi^2/7) / 7), mad = mean |area - pi/7|
    and min_piece = the smallest area."""
    a1, a2, a3 = _areas(x)
    return [
        x, a1, a2, a3,
        math.sqrt((a1**2 + 3.0 * a2**2 + 3.0 * a3**2 - math.pi**2 / 7.0) / 7.0),
        (abs(a1 - MEAN_AREA) + 3.0 * abs(a2 - MEAN_AREA) + 3.0 * abs(a3 - MEAN_AREA)) / 7.0,
        min(a1, a2, a3),
    ]


def table_rows(grid):
    """The rows of `fairness --grid G`, one list of 7 cells each."""
    cells = fairness._measures(fairness._grid(grid, 0, grid))
    return [cells[i:i + 7] for i in range(0, len(cells), 7)]


def bisect_equal_triangles(tol=1e-12):
    """Oracle: arc length where central and circular triangle areas cross."""
    lo, hi = 0.0, ARC_MAX
    while hi - lo > tol:
        mid = (lo + hi) / 2
        triangle, circular_triangle, _ = _areas(mid)
        if triangle > circular_triangle:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_sd_boundary_value():
    assert sd(ARC_MAX) == pytest.approx(math.pi / math.sqrt(294), abs=1e-12)


def test_sd_matches_seven_value_oracle():
    for x in GRID:
        assert sd(x) == pytest.approx(seven_value_sd(x), abs=1e-12)


def test_sd_closed_form_equivalence():
    for x in GRID:
        assert abs(sd(x) - sd_closed_form(x)) <= 1e-10


def test_sd_zero_for_perfectly_fair_profile(monkeypatch):
    """Seven equal areas have no absolute deviation.  No arc length gives
    them, so the kernel is fed sines that do: at x = 0 it takes
    s = sin(pi/6) and t = sin(0), and 3 sqrt(3) s^2 = pi/7 makes the
    central triangle fair, -2 t s = pi/7 each circular triangle, and the
    trapezoids follow, since the seven pieces add up to pi for any s and
    t.  The areas then miss pi/7 by rounding alone, and so does mad.  The
    triangle falls one unit short, so a sign slip in its deviation would
    make mad negative.

    sd takes a plain square root: its radicand stays at least pi^2/294,
    its value at x = pi/3, across the domain.  Here it would round below
    zero, so pi^2/7 is zeroed, which keeps that root real and leaves the
    root mean square of the seven areas, pi/7 again."""
    s = math.sqrt(MEAN_AREA / (3.0 * math.sqrt(3.0)))
    t = -MEAN_AREA / (2.0 * s)
    with monkeypatch.context() as patch:
        patch.setattr(math, "sin", lambda v: t if v == 0.0 else s)
        patch.setattr(fairness, "_PI2_7", 0.0)
        _, *areas, root_mean_square, deviation, smallest = fairness._measures((0.0,))
    assert areas == pytest.approx([MEAN_AREA] * 3, rel=1e-15)
    assert 0.0 <= deviation <= 1e-16
    assert root_mean_square == pytest.approx(MEAN_AREA, rel=1e-15)
    assert smallest == min(areas)
    floor = math.pi**2 / 294 - 1e-15
    for x in fairness._grid(100_001, 0, 100_001):
        triangle, circular_triangle, circular_trapezoid = _areas(x)
        square_sum = triangle**2 + 3 * circular_triangle**2 + 3 * circular_trapezoid**2
        assert (square_sum - math.pi**2 / 7) / 7 >= floor, x


@pytest.mark.parametrize("measure", [sd, mad, min_piece, sd_closed_form, mad_expanded, _areas])
def test_measures_refuse_arc_lengths_outside_the_domain(measure):
    """The one-point routes check x themselves; the table's kernel takes
    grid points, which lie in [0, pi/3] by construction, unchecked."""
    for bad in (-1e-12, ARC_MAX + 1e-9, math.nan):
        with pytest.raises(ValueError, match="outside"):
            measure(bad)


def test_sd_strictly_decreasing():
    values = [sd(x) for x in GRID]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mad_boundary_value():
    assert mad(ARC_MAX) == pytest.approx(2 * math.pi / 49, abs=1e-12)


def test_mad_matches_seven_value_oracle():
    for x in GRID:
        assert mad(x) == pytest.approx(seven_value_mad(x), abs=1e-12)


def test_mad_expanded_equivalence():
    """The expanded form assumes the trapezoid exceeds the fair share;
    confirm that assumption on the grid, then demand equality there."""
    for x in GRID:
        assert _areas(x)[2] >= MEAN_AREA
        assert abs(mad(x) - mad_expanded(x)) <= 1e-10


def test_mad_dominated_by_sd():
    # mean absolute deviation never exceeds the standard deviation
    for x in GRID[::9]:
        assert mad(x) <= sd(x) + 1e-15


def test_min_piece_consistency():
    for x in GRID[::9]:
        assert min_piece(x) == min(seven_areas(x))
    assert min_piece(0.0) == 0.0
    assert min_piece(ARC_MAX) == pytest.approx(0.0, abs=1e-15)


def test_minimize_sd_boundary_optimum():
    opt = minimize_sd()
    assert opt.x_star == ARC_MAX
    assert opt.at_boundary
    assert opt.objective_value == pytest.approx(math.pi / math.sqrt(294), abs=1e-9)


def test_minimize_sd_is_global():
    opt = minimize_sd()
    for x in GRID:
        assert sd(x) >= opt.objective_value - 1e-12


def test_bracket_layout_of_each_measure():
    """The fixed brackets are the ones the bracket grid shows: sd falls at
    every step to the right end, mad's grid minima are exactly the global
    and the local bracket points, with neither end among them, and
    -min_piece's only grid minimum is the maximin bracket point.  The
    local mad minimum is clearly above the global one."""
    table = fairness._measures(fairness._grid(fairness.BRACKET_GRID, 0, fairness.BRACKET_GRID))
    sds, mads, negated = table[4::7], table[5::7], [-v for v in table[6::7]]

    def minima(fs):
        return [i for i in range(len(fs))
                if (i == 0 or fs[i] <= fs[i - 1]) and (i == len(fs) - 1 or fs[i] <= fs[i + 1])]

    assert minima(sds) == [fairness.BRACKET_GRID - 1]
    assert all(a > b for a, b in zip(sds, sds[1:]))
    assert minima(mads) == [fairness._MAD_LOCAL, fairness._MAD_GLOBAL]
    assert minima(negated) == [fairness._MAXIMIN]
    assert mads[fairness._MAD_LOCAL] > mads[fairness._MAD_GLOBAL] + 1e-3
    best, local = minimize_mad()
    assert local.objective_value > best.objective_value + 1e-3


def test_optimizers_evaluate_few_kernel_rows():
    """The three optimizers together, at the default tol, evaluate about
    a hundred rows of the kernel: one for sd, and the golden-section
    steps of the three refined optima.  Run in a fresh process, so that
    nothing a test computed earlier is reused."""
    script = (
        "from maxdiv import fairness\n"
        "rows = 0\n"
        "measures = fairness._measures\n"
        "def counted(xs):\n"
        "    global rows\n"
        "    cells = measures(xs)\n"
        "    rows += len(cells) // 7\n"
        "    return cells\n"
        "fairness._measures = counted\n"
        "fairness.minimize_sd(), fairness.minimize_mad(), fairness.maximize_min_piece()\n"
        "print(rows)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert 0 < int(proc.stdout) < 200


def test_minimize_mad_global():
    best, local = minimize_mad(tol=1e-10)
    x_ref, areas_ref = MAD_GLOBAL
    assert best.objective_value < local.objective_value
    assert not best.at_boundary
    assert best.x_star == pytest.approx(x_ref, abs=1e-3)
    for got, want in zip(_areas(best.x_star), areas_ref):
        assert got == pytest.approx(want, abs=5e-4)


def test_minimize_mad_local():
    best, local = minimize_mad(tol=1e-10)
    assert not local.at_boundary
    x_ref, areas_ref = MAD_LOCAL
    assert local.x_star == pytest.approx(x_ref, abs=1e-3)
    for got, want in zip(_areas(local.x_star), areas_ref):
        assert got == pytest.approx(want, abs=5e-4)
    # a local minimum, strictly worse than the global one
    step = 1e-6
    assert min(mad(local.x_star - step), mad(local.x_star + step)) > local.objective_value
    assert local.objective_value > best.objective_value


def test_minimize_mad_is_global():
    best, _ = minimize_mad()
    for x in GRID:
        assert mad(x) >= best.objective_value - 1e-12


def test_mad_minima_sit_on_fair_share_kinks():
    # each minimum is where some piece crosses pi/7 exactly
    best, local = minimize_mad(tol=1e-12)
    assert _areas(best.x_star)[1] == pytest.approx(MEAN_AREA, abs=1e-9)
    assert _areas(local.x_star)[0] == pytest.approx(MEAN_AREA, abs=1e-9)


@pytest.mark.parametrize("tol", [1e-20, 1e-10, 1e-4, 1.0])
def test_maximize_min_piece_crossing(tol):
    """The search lands within tol of the triangle-area crossing, found
    independently by bisection, down to float spacing."""
    opt = maximize_min_piece(tol=tol)
    triangle, circular_triangle, circular_trapezoid = _areas(opt.x_star)
    assert not opt.at_boundary
    assert opt.objective_value == min_piece(opt.x_star)
    assert abs(opt.x_star - bisect_equal_triangles(1e-15)) <= max(tol, 1e-15)
    assert abs(triangle - circular_triangle) <= 2 * max(tol, 1e-15)
    assert opt.objective_value == pytest.approx(0.20, abs=0.01)
    assert circular_trapezoid == pytest.approx(0.78, abs=0.01)
    assert triangle <= circular_trapezoid
    assert circular_triangle <= circular_trapezoid


def test_maximize_min_piece_is_global():
    opt = maximize_min_piece()
    for x in GRID:
        assert min_piece(x) <= opt.objective_value + 1e-12


# float.hex of (x_star, objective_value) and at_boundary of each optimum,
# in the order sd minimum, mad global, mad local, maximin.  Tolerances
# at or below 1e-20 meet float spacing, and those from 0.01 up end
# golden section before its first step.
_FINE = [
    ("0x1.0c152382d7365p+0", "0x1.773cc89b781e3p-3", True),
    ("0x1.f084e8e51079cp-1", "0x1.020e5db05d9f8p-3", False),
    ("0x1.cd6c838860362p-2", "0x1.376b2a568ba5bp-2", False),
    ("0x1.4dd302a2c2d96p-1", "0x1.9a20c83047a14p-3", False),
]
_COARSE = [
    _FINE[0],
    ("0x1.f09fb05fb8d10p-1", "0x1.0214823d24a88p-3", False),
    ("0x1.cd67360e04313p-2", "0x1.376d1b4037f60p-2", False),
    ("0x1.4dbeab3d6cf2cp-1", "0x1.99edafc9de01ap-3", False),
]
OPTIMA_BITS = {
    1e-323: _FINE,
    1e-20: _FINE,
    1e-10: [
        _FINE[0],
        ("0x1.f084e8e53be07p-1", "0x1.020e5db067977p-3", False),
        ("0x1.cd6c8388923f3p-2", "0x1.376b2a568e32bp-2", False),
        ("0x1.4dd302a2bbc5bp-1", "0x1.9a20c83035da2p-3", False),
    ],
    1e-4: [
        _FINE[0],
        ("0x1.f0891affa0f54p-1", "0x1.020f5458d949fp-3", False),
        ("0x1.cd74ba419eeaap-2", "0x1.376b957d30a22p-2", False),
        ("0x1.4dd3626d5da5ep-1", "0x1.9a1f48ef4aef3p-3", False),
    ],
    0.01: _COARSE,
    1.0: _COARSE,
    1e300: _COARSE,
}


@pytest.mark.parametrize("tol", sorted(OPTIMA_BITS))
def test_optima_keep_their_bits(tol):
    """Every optimum `fairness` reports, bit for bit, at tolerances across
    the accepted range.  At --precision 17 the JSON summary rounds each
    value to itself, so it holds the bits; the pinned digests round to 10
    places and would miss a move of one unit in the last place."""
    res = invoke("fairness", "--grid", "2", "--tol", repr(tol), "--format", "json", "--precision", "17")
    assert res.exit_code == 0
    summary = json.loads(res.stdout)["summary"]
    optima = [summary["sd_min"], summary["mad_global"], *summary["mad_locals"], summary["maximin"]]
    assert [(opt["x_star"].hex(), opt["objective"].hex(), opt["at_boundary"]) for opt in optima] == OPTIMA_BITS[tol]


def test_optimizers_deterministic_across_reruns():
    assert minimize_sd() == minimize_sd()
    assert minimize_mad() == minimize_mad()
    assert maximize_min_piece() == maximize_min_piece()


def test_optimizers_reject_bad_tol():
    with pytest.raises(ValueError):
        minimize_mad(tol=-1e-3)
    for tol in (math.nan, math.inf, -math.inf, 0.0):
        for optimizer in (minimize_mad, maximize_min_piece):
            with pytest.raises(ValueError):
                optimizer(tol=tol)


def test_maximize_min_piece_names_the_halved_tol_it_refuses():
    """On the command line minimize_mad refuses an infinite --tol first,
    so only this call shows which check refused it."""
    with pytest.raises(ValueError, match="tol/2"):
        maximize_min_piece(tol=math.inf)


def test_refinement_stops_at_float_spacing():
    """A zero tolerance can never be met, yet the golden-section loop
    must end once the bracket reaches float spacing (about a hundred
    steps here)."""

    def capped(f):
        calls = []

        def counted(x):
            calls.append(x)
            assert len(calls) < 1000, "refinement loop does not terminate"
            return f(x)

        return counted

    x = fairness._golden_section(capped(lambda t: abs(t - 0.3)), 0.25, 0.35, 0.0)
    assert x == pytest.approx(0.3, abs=1e-15)


def test_scan_rows_equal_the_public_measures():
    """Rows of the table, whose grid includes both endpoints, and rows at
    the three acceptance optima hold, in the CLI's column order x, alpha1,
    alpha2, alpha3, sd, mad, min_piece, exactly the values of the
    one-measure-at-a-time routes."""
    mad_global, mad_local = minimize_mad()
    optima = [mad_global.x_star, mad_local.x_star, maximize_min_piece().x_star]
    for row in table_rows(1001) + [fairness._measures((x,)) for x in optima]:
        x = row[0]
        assert row == [x, *_areas(x), sd(x), mad(x), min_piece(x)]
        assert row == reference_row(x)


@pytest.mark.parametrize("grid", [2, 982, 1963, 1996, 3925, 3958, 3991, 100_000])
def test_measures_match_the_reference_row_bit_for_bit(grid):
    """The kernel, over the chunks the CLI asks for, gives every row of
    `fairness --grid G` exactly as reference_row writes it.  Below 10^5,
    the grids are 2 and those whose last point ARC_MAX * (g - 1) / (g - 1)
    would round past pi/3."""
    cells = [cell for start in range(0, grid, CHUNK_ROWS)
             for cell in fairness._measures(fairness._grid(grid, start, min(start + CHUNK_ROWS, grid)))]
    assert cells == [cell for x in fairness._grid(grid, 0, grid) for cell in reference_row(x)]


def test_scan_endpoints_and_length():
    assert [row[0] for row in table_rows(2)] == [0.0, ARC_MAX]
    assert len(table_rows(1000)) == 1000


def test_scan_rejects_tiny_grid():
    """The table needs both ends of [0, pi/3]; its one entry point,
    `fairness --grid`, refuses a grid below 2 before computing a row."""
    for grid in ("1", "0", "-3"):
        res = invoke("fairness", "--grid", grid)
        assert res.exit_code == 2
        assert "2<=x<=" in res.output
        assert "x,alpha1" not in res.output


def test_grid_stays_inside_the_domain():
    """ARC_MAX * (g - 1) / (g - 1) rounds above ARC_MAX at g = 982, 1963,
    1996, 3925, 3958 and 3991; the grid must end on ARC_MAX exactly."""
    for g in range(2, 5001):
        points = list(fairness._grid(g, 0, g))
        assert len(points) == g and points[0] == 0.0 and points[-1] == ARC_MAX
        assert max(points) == ARC_MAX, g


def test_grid_pieces_join_up_to_the_grid():
    for g in (2, 3, 982, 1000):
        for step in (1, 7, g - 1, g):
            pieces = [list(fairness._grid(g, start, min(start + step, g))) for start in range(0, g, step)]
            assert sum(pieces, []) == list(fairness._grid(g, 0, g))


def test_scan_rows_conserve_area():
    for _, alpha1, alpha2, alpha3, *_ in table_rows(257):
        total = alpha1 + 3.0 * alpha2 + 3.0 * alpha3
        assert total == pytest.approx(math.pi, abs=1e-12)


def test_scan_deterministic():
    assert table_rows(100) == table_rows(100)


def test_optimum_is_plain_data():
    opt = Optimum(1.0, 2.0, False)
    assert opt.x_star == 1.0
    assert not opt.at_boundary
