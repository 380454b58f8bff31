"""Acceptance suite: one check per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the test results.  Every tolerance and runtime budget
is pinned here; nothing is loosened at runtime.
"""

import math
import time

from clirun import invoke

from maxdiv import clt as clt_mod
from maxdiv import fairness as fairness_mod
from maxdiv.fairness import _areas
from maxdiv.geometry import (
    count_regions_geometric,
    max_regions,
    random_chord_set,
)
from maxdiv.moments import (
    CutModel,
    concentration_window,
    expected_regions,
    moments_exact,
    second_moment_2d,
    variance_asymptotic,
    variance_closed_form,
)


def _verdict(num, label, ok):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def _close(got, want, rel=1e-10, abs_=1e-12):
    return abs(got - want) <= max(rel * abs(want), abs_)


def test_criterion_01_conservation():
    start = time.perf_counter()
    ok = True
    for i in range(10000):
        triangle, circular_triangle, circular_trapezoid = _areas(math.pi / 3 * i / 9999)
        total = triangle + 3.0 * circular_triangle + 3.0 * circular_trapezoid
        ok = ok and abs(total - math.pi) <= 1e-12
    elapsed = time.perf_counter() - start
    _verdict(1, f"area conservation at 10,000 points ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_sd_minimizer():
    opt = fairness_mod.minimize_sd()
    triangle, circular_triangle, circular_trapezoid = _areas(opt.x_star)
    ok = (
        opt.x_star == math.pi / 3
        and opt.at_boundary
        and abs(opt.objective_value - math.pi / math.sqrt(294)) <= 1e-9
        and abs(triangle) <= 1e-9
        and abs(circular_triangle - math.pi / 6) <= 1e-9
        and abs(circular_trapezoid - math.pi / 6) <= 1e-9
    )
    _verdict(2, "sd minimum pi/sqrt(294) at the pi/3 boundary", ok)


def test_criterion_03_mad_optima():
    start = time.perf_counter()
    best, local = fairness_mod.minimize_mad(tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    for opt, x_ref, areas_ref in (
        (best, 0.96976, (0.00779, 0.44880, 0.59581)),
        (local, 0.45061, (0.44880, 0.09399, 0.80361)),
    ):
        ok = ok and abs(opt.x_star - x_ref) <= 1e-3
        for got, want in zip(_areas(opt.x_star), areas_ref):
            ok = ok and abs(got - want) <= 5e-4
    _verdict(3, f"mad global 0.96976 and local 0.45061 ({elapsed:.2f}s)", ok)


def test_criterion_04_maximin():
    opt = fairness_mod.maximize_min_piece(tol=1e-10)
    triangle, circular_triangle, circular_trapezoid = _areas(opt.x_star)
    ok = (
        abs(triangle - circular_triangle) <= 1e-8
        and abs(opt.objective_value - 0.20) <= 0.01
        and abs(circular_trapezoid - 0.78) <= 0.01
    )
    _verdict(4, "maximin at the equal-smallest-piece crossing", ok)


def test_criterion_05_closed_form_equivalence():
    xs = [math.pi / 3 * i / 999 for i in range(1000)]
    sign_holds = all(
        _areas(x)[2] >= fairness_mod.MEAN_AREA for x in xs
    )
    sd_ok = all(abs(fairness_mod.sd(x) - fairness_mod.sd_closed_form(x)) <= 1e-10 for x in xs)
    mad_ok = all(abs(fairness_mod.mad(x) - fairness_mod.mad_expanded(x)) <= 1e-10 for x in xs)
    _verdict(5, "closed forms match direct evaluation on 1000 points", sign_holds and sd_ok and mad_ok)


def test_criterion_06_moment_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(1, 31):
        for k in range(11):
            p = k / 10
            for d in (2, 3):
                model = CutModel(n, p, d)
                reference = moments_exact(model)
                ok = ok and _close(expected_regions(model), reference.mean)
                ok = ok and _close(variance_closed_form(model), reference.variance)
                if d == 2:
                    ok = ok and _close(second_moment_2d(model), reference.second_moment)
    elapsed = time.perf_counter() - start
    _verdict(6, f"polynomials match the exact route for n <= 30 ({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_07_asymptotics():
    ratios = [
        moments_exact(CutModel(n, 0.5, 2)).variance / variance_asymptotic(CutModel(n, 0.5, 2))
        for n in (100, 300, 1000, 3000)
    ]
    ratio_3d = moments_exact(CutModel(1000, 0.5, 3)).variance / variance_asymptotic(
        CutModel(1000, 0.5, 3)
    )
    ok = (
        abs(ratios[2] - 1.0) <= 0.01
        and all(abs(a - 1.0) > abs(b - 1.0) for a, b in zip(ratios, ratios[1:]))
        and abs(ratio_3d - 1.0) <= 0.05
    )
    _verdict(7, "variance approaches its leading-order form monotonically", ok)


def test_criterion_08_concentration_windows():
    n = 10**4
    mean, _ = concentration_window(CutModel(n, 0.5, 2))
    _, window_low = concentration_window(CutModel(n, n**-0.5, 2))
    _, window_high = concentration_window(CutModel(n, 1 - n**-0.5, 2))
    ok = (
        0.99 <= mean / (n * n / 8) <= 1.01
        and 0.8 <= window_low / n**0.75 <= 1.2
        and 0.8 <= window_high / n**1.25 <= 1.2
    )
    _verdict(8, "concentration windows in all three probability regimes", ok)


def test_criterion_09_geometric_oracle():
    start = time.perf_counter()
    ok = all(
        count_regions_geometric(random_chord_set(n, seed)) == max_regions(n, 2)
        for n in range(1, 9)
        for seed in range(20)
    )
    elapsed = time.perf_counter() - start
    _verdict(9, f"geometric count equals formula, n <= 8 x 20 seeds ({elapsed:.2f}s)", ok and elapsed < 2.0)


def test_criterion_10_clt():
    start = time.perf_counter()
    ks_big = clt_mod.sample_normality(10**4, 0.5, 10**5, seed=1).ks_distance
    ks_small = clt_mod.sample_normality(10**2, 0.5, 10**5, seed=1).ks_distance
    elapsed = time.perf_counter() - start
    scaling_ok = True
    for field in ("term1", "term2", "term3"):
        scaled = [
            getattr(clt_mod.rinott_terms(n, 0.5), field) * math.sqrt(n)
            for n in (10**3, 10**4, 10**5)
        ]
        scaling_ok = scaling_ok and (max(scaled) - min(scaled)) / min(scaled) <= 0.05
    ok = ks_big < 0.02 and ks_big < ks_small and elapsed < 30.0 and scaling_ok
    _verdict(
        10,
        f"ks(1e4)={ks_big:.4f} < 0.02 < ks(1e2)={ks_small:.4f}; terms scale as 1/sqrt(n) ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_11_determinism():
    commands = [
        ("fairness", "--grid", "32"),
        ("moments", "--n", "25", "--p", "0.4", "--dim", "3", "--method", "closed"),
        ("clt", "--n", "300", "--p", "0.5", "--samples", "2000", "--seed", "6"),
        ("oracle", "--n", "5", "--seeds", "0,1,2,3"),
    ]
    ok = True
    for args in commands:
        outputs = {invoke(*args).stdout for _ in range(3)}
        ok = ok and len(outputs) == 1
    runs = [clt_mod.sample_normality(150, 0.3, 5000, seed=12) for _ in range(2)]
    ok = ok and runs[0] == runs[1]
    _verdict(11, "commands and sampler byte-identical across runs", ok)
