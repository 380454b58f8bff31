import math
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from maxdiv import MAX_SAMPLES
from maxdiv.clt import (
    MAX_CUTS,
    NormalitySample,
    RinottTerms,
    _binomial_cdf,
    _binomial_window,
    _invert,
    ks_distance,
    rinott_terms,
    sample_region_counts,
    threshold_check,
)
from maxdiv.moments import (
    CutModel,
    RegionMoments,
    expected_regions,
    variance_closed_form,
)

KS_SEED = 1
KS_SAMPLES = 10**5


def test_rinott_parameters():
    rt = rinott_terms(10, 0.3)
    assert rt.n_summands == 101
    assert rt.max_degree == 40
    assert rt.summand_bound == 1.0
    assert rt.sigma == pytest.approx(
        math.sqrt(variance_closed_form(CutModel(10, 0.3, 2))), abs=1e-15
    )


def test_rinott_term3_definition_instance():
    rt = rinott_terms(100, 0.5)
    sigma = math.sqrt(variance_closed_form(CutModel(100, 0.5, 2)))
    assert rt.term3 == pytest.approx(400 / sigma, abs=1e-12)


def test_rinott_terms_positive():
    for n in (2, 5, 100):
        for p in (0.1, 0.5, 0.9):
            rt = rinott_terms(n, p)
            assert rt.term1 > 0 and rt.term2 > 0 and rt.term3 > 0


def test_rinott_max_term_is_max():
    rt = rinott_terms(50, 0.7)
    assert rt.max_term == max(rt.term1, rt.term2, rt.term3)


def test_term1_dominates_below_half():
    for n in (2, 3, 5, 10, 50, 300):
        for k in range(1, 11):
            rt = rinott_terms(n, k / 20)
            assert rt.max_term == rt.term1


def test_term3_ratio_halves():
    ratio = rinott_terms(4000, 0.5).term3 / rinott_terms(1000, 0.5).term3
    assert ratio == pytest.approx(0.5, abs=0.005)


def test_terms_scale_like_inverse_sqrt_n():
    for field in ("term1", "term2", "term3"):
        scaled = [
            getattr(rinott_terms(n, 0.5), field) * math.sqrt(n)
            for n in (10**3, 10**4, 10**5)
        ]
        assert (max(scaled) - min(scaled)) / min(scaled) <= 0.05


def test_rinott_rejects_degenerate():
    with pytest.raises(ValueError):
        rinott_terms(10, 0.0)
    with pytest.raises(ValueError):
        rinott_terms(10, 1.0)
    with pytest.raises(ValueError):
        rinott_terms(1, 0.5)


def test_rinott_rejects_underflowing_sigma():
    # sigma = 1.4e-150 is positive, but sigma^3 underflows to 0
    with pytest.raises(ValueError, match="underflows"):
        rinott_terms(2, 1e-300)


def test_threshold_margin_value():
    check = threshold_check(10**9, 0.5)
    assert check.margin == pytest.approx(0.5 * 0.5 ** (1 / 3) * 10, rel=1e-12)
    assert check.in_clt_regime


def test_threshold_boundary_behavior():
    # p = n^{-1/9} leaves margin (1-p)^{1/3} < 1
    n = 512
    p = n ** (-1 / 9)
    check = threshold_check(n, p)
    assert check.margin == pytest.approx((1 - p) ** (1 / 3), rel=1e-12)
    assert not check.in_clt_regime


def test_threshold_monotone_in_n():
    margins = [threshold_check(n, 0.3).margin for n in (10, 100, 1000, 10**6)]
    assert all(a < b for a, b in zip(margins, margins[1:]))


def test_threshold_rejects_degenerate():
    with pytest.raises(ValueError):
        threshold_check(100, 1.0)


def test_samples_degenerate_probabilities():
    for p, count in ((0.0, 1), (1.0, 22)):
        samples = sample_region_counts(6, p, 50, seed=0)
        assert samples.dtype == np.int64
        assert np.all(samples == count)


def test_samples_deterministic():
    a = sample_region_counts(100, 0.5, 500, seed=7)
    b = sample_region_counts(100, 0.5, 500, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_region_counts(100, 0.5, 500, seed=8))


def test_samples_are_indexed_streams():
    """Sample i depends only on (n, p, seed, i), so shorter runs are prefixes."""
    long = sample_region_counts(100, 0.5, 300, seed=11)
    short = sample_region_counts(100, 0.5, 120, seed=11)
    assert np.array_equal(long[:120], short)


def test_samples_are_valid_region_counts():
    samples = sample_region_counts(12, 0.6, 2000, seed=5)
    achievable = {1 + x + x * (x - 1) // 2 for x in range(13)}
    assert set(np.unique(samples)) <= achievable


def test_sample_mean_near_expectation():
    n, p, m = 100, 0.5, KS_SAMPLES
    model = CutModel(n, p, 2)
    samples = sample_region_counts(n, p, m, seed=3)
    sigma = math.sqrt(variance_closed_form(model))
    assert abs(samples.mean() - expected_regions(model)) <= 4 * sigma / math.sqrt(m)


def test_sample_moments_via_monte_carlo_bundle():
    samples = sample_region_counts(40, 0.5, 50_000, seed=9)
    bundle = RegionMoments.from_samples(samples.tolist(), d=2)
    model = CutModel(40, 0.5, 2)
    assert bundle.mean == pytest.approx(expected_regions(model), rel=0.01)
    assert bundle.variance == pytest.approx(variance_closed_form(model), rel=0.05)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_region_counts(0, 0.5, 10, seed=0)
    with pytest.raises(ValueError):
        sample_region_counts(5, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        sample_region_counts(5, 1.5, 10, seed=0)


def test_max_cuts_is_the_int64_limit():
    int64_max = 2**63 - 1
    assert MAX_CUTS * (MAX_CUTS - 1) <= int64_max < (MAX_CUTS + 1) * MAX_CUTS
    assert 1 + MAX_CUTS + MAX_CUTS * (MAX_CUTS - 1) // 2 <= int64_max


def test_samples_at_the_cut_limit_are_exact_region_counts():
    tracemalloc.start()
    try:
        samples = sample_region_counts(MAX_CUTS, 0.9, 5, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the CDF window holds about 2.2e6 outcomes; a CDF over all n + 1
    # outcomes would need 24 GB
    assert peak < 256 * 2**20
    sigma = math.sqrt(MAX_CUTS * 0.9 * 0.1)
    for count in samples.tolist():
        x = (math.isqrt(8 * (count - 1) + 1) - 1) // 2
        assert 1 + x + x * (x - 1) // 2 == count
        assert abs(x - MAX_CUTS * 0.9) <= 6 * sigma


def test_samples_beyond_the_cut_limit_are_refused():
    for p in (0.0, 0.9, 1.0):
        with pytest.raises(ValueError, match="int64"):
            sample_region_counts(MAX_CUTS + 1, p, 5, seed=3)


def test_samples_beyond_the_sample_limit_are_refused_before_allocating():
    tracemalloc.start()
    try:
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
                sample_region_counts(10**7, p, MAX_SAMPLES + 1, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _reference_draws(n: int, p: float, m: int, seed: int) -> np.ndarray:
    """Binomial inversion over the full CDF on 0..n, from math.lgamma."""
    log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
    log_pmf = np.array([
        log_fact[n] - log_fact[x] - log_fact[n - x] + x * math.log(p) + (n - x) * math.log1p(-p)
        for x in range(n + 1)
    ])
    cdf = np.cumsum(np.exp(log_pmf))
    cdf /= cdf[-1]
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(m)
    x = np.searchsorted(cdf, uniforms, side="left").clip(max=n)
    return 1 + x + x * (x - 1) // 2


@pytest.mark.parametrize("n", [2, 10, 10**3, 10**5])
@pytest.mark.parametrize("p", [1e-6, 1e-3, 0.5, 0.999, 1 - 1e-6])
def test_windowed_sampler_matches_full_cdf(n, p):
    seed = 1000 * n + int(p * 997)
    assert np.array_equal(
        sample_region_counts(n, p, 20_000, seed=seed), _reference_draws(n, p, 20_000, seed)
    )


def test_guided_inversion_equals_binary_search():
    _, cdf = _binomial_cdf(1000, 0.3)
    # bucket edges j / g of every guide size up to 4096, the floats just
    # below them, and the CDF values themselves, all inside [0, 1)
    edges = np.array([j / 2**k for k in range(13) for j in range(2**k)])
    edges = np.concatenate((edges, np.nextafter(edges[1:], 0.0), cdf, [np.nextafter(1.0, 0.0)]))
    edges = np.unique(edges[edges < 1.0])
    rng = np.random.Generator(np.random.Philox(key=5))
    for uniforms in (rng.random(1), rng.random(7), rng.random(5000), edges):
        assert np.array_equal(_invert(cdf, uniforms), np.searchsorted(cdf, uniforms, side="left"))


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 1000)])
def test_window_leaves_out_less_than_2_pow_minus_1000(p):
    """Exact binomial mass outside the sampling window, in integers."""
    n = 5000
    lo, hi = _binomial_window(n, float(p))
    a, b = p.numerator, p.denominator
    # term x is C(n, x) a^x (b - a)^(n - x), of total b^n
    outside, comb, a_pow, c_pow = 0, 1, 1, (b - a) ** n
    for x in range(n + 1):
        if not lo <= x <= hi:
            outside += comb * a_pow * c_pow
        comb = comb * (n - x) // (x + 1)
        a_pow *= a
        c_pow //= b - a
    assert outside * 2**1000 < b**n


def test_ks_standardization_is_exact():
    result = ks_distance([4, 7, 7, 11], 3, 0.5, seed=123)
    model = CutModel(3, 0.5, 2)
    assert result.mean == expected_regions(model)
    assert result.sigma == math.sqrt(variance_closed_form(model))
    assert result.seed == 123
    assert result.sample_count == 4


def test_ks_degenerate_samples_far_from_normal():
    result = ks_distance([42] * 1000, 10, 0.5)
    assert result.ks_distance >= 0.5


def test_ks_rejects_degenerate_p():
    with pytest.raises(ValueError):
        ks_distance([1, 2, 3], 10, 0.0)
    with pytest.raises(ValueError):
        ks_distance([], 10, 0.5)


def _brute_force_ks(samples, mean: float, sigma: float) -> float:
    """Largest gap to the normal CDF at every sorted sample, ties included."""
    z = sorted((float(v) - mean) / sigma for v in samples)
    m = len(z)
    brute = 0.0
    for i, point in enumerate(z):
        phi = statistics.NormalDist().cdf(point)
        brute = max(brute, abs((i + 1) / m - phi), abs(i / m - phi))
    return brute


def test_ks_matches_brute_force_on_small_sample():
    """Check the sup over distinct values against every sample."""
    samples = sample_region_counts(30, 0.4, 64, seed=21)
    result = ks_distance(samples, 30, 0.4)
    assert result.ks_distance == pytest.approx(
        _brute_force_ks(samples, result.mean, result.sigma), abs=1e-15
    )


def test_ks_matches_brute_force_with_heavy_ties():
    # 500 samples on at most 7 values; at this seed the sup is the gap
    # just below a jump, which must count every sample tied at the jump
    samples = sample_region_counts(6, 0.5, 500, seed=14)
    assert len(set(samples.tolist())) <= 7
    result = ks_distance(samples, 6, 0.5)
    assert result.ks_distance == pytest.approx(
        _brute_force_ks(samples, result.mean, result.sigma), abs=1e-15
    )


def test_ks_improves_with_n():
    big = ks_distance(
        sample_region_counts(10**4, 0.5, KS_SAMPLES, seed=KS_SEED), 10**4, 0.5
    )
    small = ks_distance(
        sample_region_counts(10**2, 0.5, KS_SAMPLES, seed=KS_SEED), 10**2, 0.5
    )
    assert big.ks_distance < 0.02
    assert big.ks_distance < small.ks_distance


def test_standardized_moments_converge():
    n, p, m = 100, 0.5, KS_SAMPLES
    model = CutModel(n, p, 2)
    samples = sample_region_counts(n, p, m, seed=3)
    z = (samples - expected_regions(model)) / math.sqrt(variance_closed_form(model))
    band = 5 / math.sqrt(m)
    assert abs(z.mean()) <= band
    assert abs(z.var() - 1.0) <= band


def test_clt_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, maxdiv.clt; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


def test_result_types_are_frozen():
    rt = rinott_terms(5, 0.5)
    ns = ks_distance([4, 7], 5, 0.5)
    assert isinstance(rt, RinottTerms)
    assert isinstance(ns, NormalitySample)
    with pytest.raises(AttributeError):
        rt.term1 = 0.0
