import math
import statistics

import pytest

from maxdiv import fairness
from maxdiv.fairness import (
    ARC_MAX,
    MEAN_AREA,
    Optimum,
    mad,
    mad_expanded,
    maximize_min_piece,
    min_piece,
    minimize_mad,
    minimize_sd,
    profile_mad,
    profile_sd,
    report,
    scan,
    sd,
    sd_closed_form,
)
from maxdiv.geometry import AreaProfile, area_profile

GRID = [ARC_MAX * i / 999 for i in range(1000)]

# Published five-decimal optima: (arc length, per-class areas)
MAD_GLOBAL = (0.96976, (0.00779, 0.44880, 0.59581))
MAD_LOCAL = (0.45061, (0.44880, 0.09399, 0.80361))


def seven_value_sd(x):
    """Oracle: population standard deviation taken literally over 7 areas."""
    return statistics.pstdev(area_profile(x).areas())


def seven_value_mad(x):
    areas = area_profile(x).areas()
    return sum(abs(a - MEAN_AREA) for a in areas) / 7


def bisect_equal_triangles(tol=1e-12):
    """Oracle: arc length where central and circular triangle areas cross."""
    lo, hi = 0.0, ARC_MAX
    while hi - lo > tol:
        mid = (lo + hi) / 2
        p = area_profile(mid)
        if p.triangle > p.circular_triangle:
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


def test_sd_zero_for_perfectly_fair_profile():
    fair = AreaProfile(MEAN_AREA, MEAN_AREA, MEAN_AREA)
    assert profile_sd(fair) == 0.0
    assert profile_mad(fair) == 0.0


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
        assert area_profile(x).circular_trapezoid >= MEAN_AREA
        assert abs(mad(x) - mad_expanded(x)) <= 1e-10


def test_mad_dominated_by_sd():
    # mean absolute deviation never exceeds the standard deviation
    for x in GRID[::9]:
        assert mad(x) <= sd(x) + 1e-15


def test_min_piece_consistency():
    for x in GRID[::9]:
        assert min_piece(x) == min(area_profile(x).areas())
    assert min_piece(0.0) == 0.0
    assert min_piece(ARC_MAX) == pytest.approx(0.0, abs=1e-15)


def test_minimize_sd_boundary_optimum():
    opt = minimize_sd(tol=1e-10)
    assert opt.x_star == ARC_MAX
    assert opt.at_boundary
    assert opt.kind == "global_min"
    assert opt.objective_value == pytest.approx(math.pi / math.sqrt(294), abs=1e-9)


def test_minimize_sd_is_global():
    opt = minimize_sd()
    for x in GRID:
        assert sd(x) >= opt.objective_value - 1e-12


def test_minimize_mad_global():
    best, _ = minimize_mad(tol=1e-10)
    x_ref, areas_ref = MAD_GLOBAL
    assert best.kind == "global_min"
    assert not best.at_boundary
    assert best.x_star == pytest.approx(x_ref, abs=1e-3)
    p = area_profile(best.x_star)
    for got, want in zip((p.triangle, p.circular_triangle, p.circular_trapezoid), areas_ref):
        assert got == pytest.approx(want, abs=5e-4)


def test_minimize_mad_local():
    best, others = minimize_mad(tol=1e-10)
    assert len(others) == 1
    (local,) = others
    x_ref, areas_ref = MAD_LOCAL
    assert local.kind == "local_min"
    assert local.x_star == pytest.approx(x_ref, abs=1e-3)
    p = area_profile(local.x_star)
    for got, want in zip((p.triangle, p.circular_triangle, p.circular_trapezoid), areas_ref):
        assert got == pytest.approx(want, abs=5e-4)
    assert local.objective_value > best.objective_value


def test_minimize_mad_is_global():
    best, _ = minimize_mad()
    for x in GRID:
        assert mad(x) >= best.objective_value - 1e-12


def test_mad_minima_sit_on_fair_share_kinks():
    # each minimum is where some piece crosses pi/7 exactly
    best, (local,) = minimize_mad(tol=1e-12)
    assert area_profile(best.x_star).circular_triangle == pytest.approx(MEAN_AREA, abs=1e-9)
    assert area_profile(local.x_star).triangle == pytest.approx(MEAN_AREA, abs=1e-9)


def test_maximize_min_piece_crossing():
    opt = maximize_min_piece(tol=1e-10)
    p = area_profile(opt.x_star)
    assert opt.kind == "global_max"
    assert not opt.at_boundary
    assert abs(p.triangle - p.circular_triangle) <= 1e-8
    assert opt.x_star == pytest.approx(bisect_equal_triangles(), abs=1e-8)
    assert opt.objective_value == pytest.approx(0.20, abs=0.01)
    assert p.circular_trapezoid == pytest.approx(0.78, abs=0.01)
    assert p.triangle <= p.circular_trapezoid
    assert p.circular_triangle <= p.circular_trapezoid


def test_maximize_min_piece_is_global():
    opt = maximize_min_piece()
    for x in GRID:
        assert min_piece(x) <= opt.objective_value + 1e-12


def test_optimizers_deterministic_across_reruns():
    assert minimize_sd() == minimize_sd()
    assert minimize_mad() == minimize_mad()
    assert maximize_min_piece() == maximize_min_piece()


def test_optimizers_reject_bad_tol():
    with pytest.raises(ValueError):
        minimize_sd(tol=0.0)
    with pytest.raises(ValueError):
        minimize_mad(tol=-1e-3)
    for tol in (math.nan, math.inf, -math.inf, 0.0):
        for optimizer in (minimize_sd, minimize_mad, maximize_min_piece):
            with pytest.raises(ValueError):
                optimizer(tol=tol)


def test_refinement_stops_at_float_spacing(monkeypatch):
    """A zero tolerance can never be met, yet both loops must end once
    the bracket reaches float spacing (about a hundred steps here)."""

    def capped(f):
        calls = []

        def counted(x):
            calls.append(x)
            assert len(calls) < 1000, "refinement loop does not terminate"
            return f(x)

        return counted

    x = fairness._golden_section(capped(lambda t: abs(t - 0.3)), 0.25, 0.35, 0.0)
    assert x == pytest.approx(0.3, abs=1e-15)
    monkeypatch.setattr(fairness, "_areas", capped(fairness._areas))
    crossing = fairness._bisect_triangle_crossing(0.0)
    assert crossing == pytest.approx(bisect_equal_triangles(), abs=1e-12)


def test_report_fields():
    rep = report(0.5)
    assert rep.x == 0.5
    assert rep.sd == sd(0.5)
    assert rep.mad == mad(0.5)
    assert rep.min_piece == min_piece(0.5)
    assert rep.profile == area_profile(0.5)


def test_scan_rows_equal_the_public_measures():
    """Rows of a scan, whose grid includes both endpoints, and reports at
    the three acceptance optima are CSV rows holding exactly the values
    of the one-measure-at-a-time routes."""
    mad_global, (mad_local,) = minimize_mad()
    optima = [mad_global.x_star, mad_local.x_star, maximize_min_piece().x_star]
    rows = scan(1001) + [report(x) for x in optima]
    assert rows[0]._fields == ("x", "alpha1", "alpha2", "alpha3", "sd", "mad", "min_piece")
    for row in rows:
        x = row.x
        p = area_profile(x)
        assert row == (
            x, p.triangle, p.circular_triangle, p.circular_trapezoid,
            sd(x), mad(x), min_piece(x),
        )
        assert row.sd == profile_sd(p)
        assert row.mad == profile_mad(p)
        assert row.min_piece == p.smallest()


def test_scan_endpoints_and_length():
    rows = scan(2)
    assert [r.x for r in rows] == [0.0, ARC_MAX]
    assert len(scan(1000)) == 1000


def test_grid_stays_inside_the_domain():
    """ARC_MAX * (g - 1) / (g - 1) rounds above ARC_MAX at g = 982, 1963,
    1996, 3925, 3958 and 3991; the grid must end on ARC_MAX exactly."""
    for g in range(2, 5001):
        points = list(fairness._grid(g))
        assert len(points) == g and points[0] == 0.0 and points[-1] == ARC_MAX
        assert max(points) == ARC_MAX, g


def test_grid_pieces_join_up_to_the_grid():
    for g in (2, 3, 982, 1000):
        for step in (1, 7, g - 1, g):
            pieces = [list(fairness._grid(g, start, min(start + step, g))) for start in range(0, g, step)]
            assert sum(pieces, []) == list(fairness._grid(g))


def test_scan_rows_conserve_area():
    for row in scan(257):
        assert row.profile.total() == pytest.approx(math.pi, abs=1e-12)


def test_scan_deterministic():
    assert scan(100) == scan(100)


def test_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        scan(1)


def test_optimum_is_plain_data():
    opt = Optimum(1.0, 2.0, "global_min", False)
    assert opt.x_star == 1.0
    assert not opt.at_boundary


def test_consistency_error_exported():
    assert issubclass(fairness.ConsistencyError, RuntimeError)
