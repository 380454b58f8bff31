import math
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from maxdiv import MAX_SAMPLES, MAX_SEED
from maxdiv import clt
from maxdiv.clt import (
    _KS_BATCH,
    CHUNK_DRAWS,
    MAX_CUTS,
    NormalitySample,
    RinottTerms,
    _binomial_cdf,
    _binomial_window,
    _inverter,
    rinott_terms,
    sample_normality,
    threshold_check,
)
from maxdiv.moments import (
    CutModel,
    expected_regions,
    variance_closed_form,
)

KS_SEED = 1
KS_SAMPLES = 10**5


def sample_region_counts(n: int, p: float, m: int, seed: int) -> np.ndarray:
    """Reference sampler: the m region counts that ``sample_normality``
    draws, held in full.  Uniform i of the Philox stream keyed by the seed
    is inverted by a binary search over the whole window CDF, with no
    guide table; the caller passes inputs ``sample_normality`` accepts."""
    lo, cdf = _binomial_cdf(n, p)
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(m)
    x = lo + np.searchsorted(cdf, uniforms, side="left")
    return 1 + x + x * (x - 1) // 2


def ks_distance(samples, n: int, p: float) -> NormalitySample:
    """Reference KS run over the samples themselves, through np.unique;
    ``sample_normality`` must match it bit for bit."""
    sigma = clt._exact_sigma(n, p)
    values, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
    return clt._ks(values, counts, n, p, sigma)


def test_rinott_parameters():
    n, p = 10, 0.3
    rt = rinott_terms(n, p)
    # N = n^2 + 1 summands, degree bound D = 4n, summand bound B = 1
    big_n, big_d, big_b = 101, 40, 1.0
    sigma = math.sqrt(variance_closed_form(CutModel(n, p, 2)))
    assert rt.term1 == pytest.approx(big_n * big_d**2 * big_b**3 / sigma**3, rel=1e-14)
    assert rt.term2 == pytest.approx(math.sqrt(big_n * big_d**3 * big_b**4) / sigma**2, rel=1e-14)
    assert rt.term3 == pytest.approx(big_d * big_b / sigma, rel=1e-14)


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


def test_terms_decrease_strictly_on_both_sides_of_half():
    """term2 / term1 = term3 / term2 = sigma / sqrt(N D), and
    sigma^2 <= n^3 / 4 < N D = 4n(n^2 + 1), so term1 > term2 > term3 for
    every input rinott_terms answers."""
    for n in (2, 3, 5, 10, 50, 300, 10**6, MAX_CUTS):
        for p in (1e-13, 1e-6, 0.01, *(k / 20 for k in range(1, 20)), 0.99, 1 - 1e-6, 1 - 1e-13):
            rt = rinott_terms(n, p)
            assert rt.term1 > rt.term2 > rt.term3
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


@pytest.mark.parametrize("name, exponent, p", [
    ("rinott_terms", 400, 0.5),
    ("threshold_check", 400, 0.5),
    ("sample_normality", 400, 0.5),
    ("rinott_terms", 77, 0.5),  # n fits a float, sigma^3 does not
    ("sample_normality", 77, 0.5),
    ("rinott_terms", 62, 1e-3),  # sigma^3 fits, sqrt(N D^3) does not
])
def test_a_cut_count_that_overflows_float64_is_refused_by_name(name, exponent, p):
    n = 10**exponent
    args = (10, 1) if name == "sample_normality" else ()
    with pytest.raises(ValueError, match=f"cut count {n} is too large for float64"):
        getattr(clt, name)(n, p, *args)


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


def test_threshold_needs_a_positive_cut_count():
    for n in (0, -1):
        with pytest.raises(ValueError, match="cut count must be positive"):
            threshold_check(n, 0.5)
    assert threshold_check(1, 0.5).margin == pytest.approx(0.5 ** (4 / 3), rel=1e-12)


def test_threshold_rejects_degenerate():
    with pytest.raises(ValueError):
        threshold_check(100, 1.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.5, -0.2])
def test_probability_outside_the_unit_interval_is_not_called_degenerate(p):
    for check in (threshold_check, rinott_terms):
        with pytest.raises(ValueError, match=r"not a number in \[0, 1\]"):
            check(10, p)
    with pytest.raises(ValueError, match=r"not a number in \[0, 1\]"):
        sample_normality(10, p, 10, 1)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_degenerate_probability_is_called_degenerate(p):
    with pytest.raises(ValueError, match="degenerate"):
        threshold_check(10, p)


def test_samples_degenerate_probabilities():
    for p in (0.0, 1.0):
        with pytest.raises(ValueError, match="degenerate"):
            clt.sample_normality(6, p, 50, 0)


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
    values = sample_region_counts(40, 0.5, 50_000, seed=9).tolist()
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    model = CutModel(40, 0.5, 2)
    assert mean == pytest.approx(expected_regions(model), rel=0.01)
    assert variance == pytest.approx(variance_closed_form(model), rel=0.05)


def test_sample_validation():
    with pytest.raises(ValueError, match="positive"):
        sample_normality(0, 0.5, 10, 0)
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        sample_normality(5, 0.5, 0, 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sample_normality(5, 1.5, 10, 0)


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


@pytest.mark.parametrize("n, m, limit_mib", [(10**7, 10**6, 1.8), (MAX_CUTS, 10**5, 32)])
def test_sampler_keeps_its_traced_peak_small(n, m, limit_mib):
    """numpy reports its buffers to tracemalloc.  Building the window in
    place, drawing from the reachable entries through a guide of one to
    two buckets per entry, and taking the normal CDF a small batch of
    values at a time keep the peak near 1.4 and 25 MiB, set while the
    window is built.  A window built from fresh arrays and kept for the
    draws reads 3.8 and 65.7 MiB, and a guide of four to eight buckets
    per entry 2.1 MiB at n = 10^7."""
    sample_normality(100, 0.5, 10, 1)
    tracemalloc.start()
    try:
        sample_normality(n, 0.5, m, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_the_ks_run_starts_without_the_guide_table(monkeypatch):
    """sample_normality drops its inverter, and with it the guide table
    and the kept CDF, before the KS run.  At n = 10^7 that leaves 0.17 MiB
    traced when the KS run starts, and 0.64 MiB if the inverter is kept;
    the traced peak, set while the window is built, does not show this."""
    ks, alive = clt._ks, []

    def traced_ks(*args):
        alive.append(tracemalloc.get_traced_memory()[0])
        return ks(*args)

    monkeypatch.setattr(clt, "_ks", traced_ks)
    sample_normality(100, 0.5, 10, 1)
    tracemalloc.start()
    try:
        sample_normality(10**7, 0.5, 10**6, 1)
    finally:
        tracemalloc.stop()
    assert alive[-1] < 0.4 * 2**20


@pytest.mark.parametrize("n, m, phase, limit_mib", [
    (10**7, 10**6, "draws", 1.1), (10**7, 10**6, "ks", 0.4), (10**4, 10**5, "draws", 0.4),
])
def test_draws_and_ks_run_keep_their_traced_peaks_small(monkeypatch, n, m, phase, limit_mib):
    """The traced peak of the draws, from the return of _inverter to the
    start of the KS run, and that of the KS run.  Counting each chunk of
    2^13 draws into the histogram in place, with no array of outcomes,
    keeps the draws at 0.93 and 0.28 MiB at n = 10^7 and 10^4; chunks of
    2^14 added as a bincount over an outcome array read 1.39 and 0.56 MiB.
    The KS run reads 0.34 MiB in one float array and one float cumsum,
    0.43 MiB with the drawn outcomes kept alive through it, and 1.15 MiB
    with a fresh array for each step."""
    inverter, ks, peaks = clt._inverter, clt._ks, {}

    def traced_inverter(*args):
        result = inverter(*args)
        tracemalloc.reset_peak()
        return result

    def traced_ks(*args):
        peaks["draws"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result = ks(*args)
        peaks["ks"] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(clt, "_inverter", traced_inverter)
    monkeypatch.setattr(clt, "_ks", traced_ks)
    sample_normality(100, 0.5, 10, 1)
    tracemalloc.start()
    try:
        sample_normality(n, 0.5, m, 1)
    finally:
        tracemalloc.stop()
    assert peaks[phase] < limit_mib * 2**20


def test_samples_beyond_the_cut_limit_are_refused():
    """A degenerate p is named before the cut count."""
    for p, message in ((0.0, "degenerate"), (0.9, "int64"), (1.0, "degenerate")):
        with pytest.raises(ValueError, match=message):
            sample_normality(MAX_CUTS + 1, p, 5, 3)


def test_samples_beyond_the_sample_limit_are_refused_before_allocating():
    """A degenerate p is named before the sample count."""
    tracemalloc.start()
    try:
        for p, message in ((0.0, "degenerate"), (0.5, str(MAX_SAMPLES)), (1.0, "degenerate")):
            with pytest.raises(ValueError, match=message):
                sample_normality(10**7, p, MAX_SAMPLES + 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_seeds_outside_128_bits_are_refused_not_aliased():
    """The stream key has 128 bits: a wider seed would key the stream of
    its low 128 bits, so it is refused, and the smallest and largest
    seeds key their own."""
    for seed in (-1, MAX_SEED + 1, -(2**130), 2**130):
        with pytest.raises(ValueError, match="seed"):
            sample_normality(1000, 0.3, 10, seed)
    top = sample_region_counts(1000, 0.3, 1000, MAX_SEED)
    assert np.array_equal(top, _reference_draws(1000, 0.3, 1000, MAX_SEED))
    bottom = sample_region_counts(1000, 0.3, 1000, 0)
    assert not np.array_equal(top, bottom)
    assert sample_normality(1000, 0.3, 1000, MAX_SEED) == ks_distance(top, 1000, 0.3)
    assert sample_normality(1000, 0.3, 1000, 0) == ks_distance(bottom, 1000, 0.3)


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


def _concatenated_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """``_binomial_cdf`` as first written: each half of the log-pmf in its
    own array, joined by concatenate, with a fresh array for each step."""
    lo, hi = _binomial_window(n, p)
    mode = min(max(math.floor((n + 1) * p), lo), hi)
    log_odds = math.log(p) - math.log1p(-p)
    up = np.arange(mode, hi, dtype=np.float64)
    down = np.arange(mode - 1, lo - 1, -1, dtype=np.float64)
    log_up = np.cumsum(np.log((n - up) / (up + 1)) + log_odds)
    log_down = np.cumsum(np.log((down + 1) / (n - down)) - log_odds)
    cdf = np.cumsum(np.exp(np.concatenate((log_down[::-1], [0.0], log_up))))
    return lo, cdf / cdf[-1]


@pytest.mark.parametrize("n", [2, 10, 1000, 10**5, 10**7, MAX_CUTS])
@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6])
def test_cdf_built_in_place_keeps_the_bits_of_the_concatenated_formula(n, p):
    """Windows clipped at 0 and at n, and modes at either end, included."""
    lo, cdf = _binomial_cdf(n, p)
    expected_lo, expected = _concatenated_cdf(n, p)
    assert lo == expected_lo
    assert np.array_equal(cdf, expected)


@pytest.mark.parametrize("key", [0, 1, 5, 2**64 + 3, MAX_SEED])
def test_uniforms_are_multiples_of_2_pow_minus_53(key):
    """The sampler keeps only the CDF entries that such uniforms can reach;
    a finer Generator.random would land draws below 2^-53 on the wrong
    outcome, so it must fail here."""
    scaled = np.random.Generator(np.random.Philox(key=key)).random(10**5) * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))


def inverted_outcomes(lo: int, first: int, index: np.ndarray) -> np.ndarray:
    """The outcome of each histogram index of _inverter: index 0 is
    outcome lo, index i >= 1 outcome lo + first - 1 + i."""
    return np.where(index == 0, lo, lo + first - 1 + index)


def test_guided_inversion_equals_binary_search():
    """Every draw, in an easy bucket, a bucket with one CDF step or a
    wider one, gets the outcome a binary search over the whole window
    gives: the uniforms, multiples of 2^-53 as Generator.random returns,
    include those just below and just above each CDF entry and bucket
    edge, 0, 2^-53 and 1 - 2^-53.  The windows of n = 2 and 10 start with
    an entry of at least 2^-53, the others below it."""
    ulp = 2.0**-53
    for n, p in [(1000, 0.3), (10**7, 0.5), (100, 0.9), (10**5, 0.01), (2, 0.5), (10, 0.5)]:
        lo, cdf = _binomial_cdf(n, p)
        # bucket edges j / g of every guide size the window can get, and
        # the lattice points just below them
        edges = np.concatenate([np.arange(2**k) / 2**k for k in range(cdf.size.bit_length() + 3)])
        lattice = np.concatenate((np.floor(cdf / ulp), np.ceil(cdf / ulp), edges / ulp,
                                  edges / ulp - 1, [0.0, 1.0, 2.0**53 - 1])) * ulp
        lattice = np.unique(lattice[(lattice >= 0.0) & (lattice < 1.0)])
        rng = np.random.Generator(np.random.Philox(key=5))
        draws = (rng.random(1), rng.random(7), rng.random(5000), rng.random(CHUNK_DRAWS))
        for uniforms in (*draws, lattice):
            # a guide sized for this batch, and guides sized for more or fewer draws
            for m in (uniforms.size, 1, 3, 10**6):
                inverted_lo, first, size, invert = _inverter(n, p, m)
                index = invert(uniforms)
                assert inverted_lo == lo and 0 <= index.min() and index.max() < size
                assert np.array_equal(
                    inverted_outcomes(lo, first, index),
                    lo + np.searchsorted(cdf, uniforms, side="left"),
                )


def test_inverter_keeps_only_the_reachable_entries():
    """At n = 10^7, p = 1/2 the CDF entries from the first of at least
    2^-53 to the first of at least 1 - 2^-53, and the first entry: 0
    inverts to the first, 2^-53 to the second and 1 - 2^-53 to the last."""
    lo, cdf = _binomial_cdf(10**7, 0.5)
    inverted_lo, first, size, invert = _inverter(10**7, 0.5, 10**6)
    outcomes = inverted_outcomes(lo, first, np.arange(size))
    assert (cdf.size, size) == (123_545, 25_045)
    assert (inverted_lo, first) == (lo, int(np.searchsorted(cdf, 2.0**-53)))
    assert outcomes[0] == lo and outcomes[1] == lo + first
    assert cdf[outcomes[-1] - lo - 1] < 1.0 - 2.0**-53 <= cdf[outcomes[-1] - lo]
    assert np.array_equal(np.diff(outcomes[1:]), np.ones(outcomes.size - 2, dtype=np.int64))
    assert invert(np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])).tolist() == [0, 1, size - 1]


def test_only_draws_in_buckets_of_two_or_more_entries_are_binary_searched(monkeypatch):
    """Every draw is answered by its guide entry and one comparison,
    unless its bucket holds two or more CDF entries: at clt-wide's
    n = 10^7, p = 1/2 and 10^6 samples, 2.6 % of the uniforms reach
    np.searchsorted.  Searching the one-entry buckets too reads 24 %,
    and a one-bucket guide searches every draw; the index stays the
    same, so only this count tells them apart."""
    searchsorted, searched = np.searchsorted, []

    def counted(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    m = 10**6
    sample_normality(10**7, 0.5, m, 1)
    assert sum(searched) < 0.05 * m


@pytest.mark.parametrize("n, p", [(3, 1 - 1e-9), (100, 0.9), (10**7, 0.5), (10, 0.5)])
def test_histogram_holds_the_outcome_of_each_uniform(monkeypatch, n, p):
    """The values and counts sample_normality hands to the KS run are
    those of the region counts of its uniforms, here 0, 2^-53 and the
    lattice points at and above the lowest CDF entries, among random
    ones over two chunks.  Only u = 0 reaches outcome lo below the first
    entry of at least 2^-53, the second entry of the window at n = 3 and
    far above lo at n = 100 and 10^7; at n = 10 it is entry 0 itself."""
    lo, cdf = _binomial_cdf(n, p)
    ulp = 2.0**-53
    low = cdf[:int(np.searchsorted(cdf, ulp)) + 3]
    uniforms = np.concatenate((
        [0.0, ulp, 2 * ulp], np.floor(low / ulp) * ulp, np.ceil(low / ulp) * ulp,
        np.random.Generator(np.random.Philox(key=3)).random(CHUNK_DRAWS + 3),
    ))
    uniforms = uniforms[uniforms < 1.0]
    x = lo + np.searchsorted(cdf, uniforms, side="left")
    values, counts = np.unique((1 + x + x * (x - 1) // 2).astype(np.float64),
                               return_counts=True)

    class Stream:
        """Returns the uniforms above in order, in place of the Philox stream."""

        def __init__(self, bit_generator):
            self.left = uniforms

        def random(self, size):
            head, self.left = self.left[:size], self.left[size:]
            return head

    ks, handed = clt._ks, []

    def recorded_ks(values, counts, *args):
        handed.append((values.copy(), counts.copy()))
        return ks(values, counts, *args)

    monkeypatch.setattr(np.random, "Generator", Stream)
    monkeypatch.setattr(clt, "_ks", recorded_ks)
    sample_normality(n, p, uniforms.size, 1)
    assert np.array_equal(handed[0][0], values) and np.array_equal(handed[0][1], counts)


@pytest.mark.parametrize("m", [4 * CHUNK_DRAWS - 1, 4 * CHUNK_DRAWS, 4 * CHUNK_DRAWS + 1,
                               12 * CHUNK_DRAWS + 5])
def test_streamed_draws_equal_one_shot_draws(m):
    """Chunked draws are the draws of one stream.random(m) call, inverted
    by binary search over the same windowed CDF: the KS run over the
    chunks' histogram is the KS run over those one-shot draws."""
    n, p, seed = 10**4, 0.3, 17 + m
    expected = ks_distance(sample_region_counts(n, p, m, seed), n, p)
    assert sample_normality(n, p, m, seed) == expected


@pytest.mark.parametrize("n, p, m, seed", [
    (2, 0.5, 12 * CHUNK_DRAWS + 5, 1),
    (2, 1e-6, 4 * CHUNK_DRAWS + 1, 2),
    (3, 1 - 1e-6, 1000, 3),
    (10, 0.5, 1, 4),
    (10**4, 0.5, 8 * CHUNK_DRAWS, 5),
    # windows clipped at 0 and at n
    (10**6, 1e-4, 4 * CHUNK_DRAWS - 1, 6),
    (10**6, 1 - 1e-4, 4 * CHUNK_DRAWS, 7),
    (10**7, 0.5, 20 * CHUNK_DRAWS + 3, 8),
    (MAX_CUTS, 0.9, 3000, 9),
])
def test_histogram_ks_equals_ks_of_the_samples(n, p, m, seed):
    expected = ks_distance(sample_region_counts(n, p, m, seed), n, p)
    result = sample_normality(n, p, m, seed)
    assert (result.ks_distance.hex(), result.mean.hex(), result.sigma.hex()) == (
        expected.ks_distance.hex(), expected.mean.hex(), expected.sigma.hex()
    )


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
@pytest.mark.parametrize("p", [1e-6, 0.1, 0.3, 0.5, 0.9, 1 - 1e-6])
def test_window_cdf_is_the_exact_cdf(n, p):
    """Every window entry within 1e-12 of the exact CDF, summed in
    integers for p = a / b: weight x is C(n, x) a^x (b - a)^(n - x) of
    b^n, and weight x + 1 is weight x times (n - x) a / ((x + 1)(b - a)),
    exactly.  At n <= 1000 the windows are cut at 0, at n or at both."""
    lo, cdf = _binomial_cdf(n, p)
    a, b = p.as_integer_ratio()
    total, below, weight = b**n, 0, (b - a) ** n
    exact = []
    for x in range(lo + cdf.size):
        below += weight
        weight = weight * (n - x) * a // ((x + 1) * (b - a))
        if x >= lo:
            exact.append(below / total)
    assert np.max(np.abs(cdf - exact)) <= 1e-12


def test_histogram_cases_include_clipped_windows():
    assert _binomial_window(2, 0.5) == (0, 2)
    assert _binomial_window(10**6, 1e-4)[0] == 0
    assert _binomial_window(10**6, 1 - 1e-4)[1] == 10**6


def test_histogram_ks_validates_like_the_sampler():
    for args, message in (((0, 0.5, 10, 1), "positive"), ((MAX_CUTS + 1, 0.5, 10, 1), "int64"),
                          ((10, 0.5, 0, 1), str(MAX_SAMPLES)), ((10, 1.5, 10, 1), r"\[0, 1\]"),
                          ((10, 1.0, 10, 1), "degenerate")):
        with pytest.raises(ValueError, match=message):
            sample_normality(*args)


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
    result = ks_distance([4, 7, 7, 11], 3, 0.5)
    model = CutModel(3, 0.5, 2)
    assert result.mean == expected_regions(model)
    assert result.sigma == math.sqrt(variance_closed_form(model))


def test_ks_degenerate_samples_far_from_normal():
    result = ks_distance([42] * 1000, 10, 0.5)
    assert result.ks_distance >= 0.5


def test_ks_rejects_degenerate_p():
    with pytest.raises(ValueError):
        ks_distance([1, 2, 3], 10, 0.0)


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


@pytest.mark.parametrize("heavy", [0, _KS_BATCH - 1, _KS_BATCH, 2 * _KS_BATCH + 7,
                                   3 * _KS_BATCH + 4])
def test_ks_over_several_batches_of_values_equals_one_pass(heavy):
    """_ks evaluates the normal CDF a batch of values at a time.  With
    nearly all the sample on one value, the distance is set by the CDF
    there, so each case checks it, in another batch, against one pass
    over all the values."""
    n, p = 10**9, 0.5
    sigma = clt._exact_sigma(n, p)
    mean = expected_regions(CutModel(n, p, 2))
    values = mean + sigma * np.linspace(-6.0, 6.0, 3 * _KS_BATCH + 5)
    counts = np.ones(values.size, dtype=np.int64)
    counts[heavy] = 10**12
    z = (values - mean) / sigma
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    cumulative = np.cumsum(counts)
    m = int(cumulative[-1])
    upper, lower = np.max(cumulative / m - phi), np.max(phi - (cumulative - counts) / m)
    expected = max(float(upper), float(lower))
    assert clt._ks(values, counts, n, p, sigma).ks_distance == expected


def exact_kolmogorov_distance(n: int, p: float) -> float:
    """d_K between the standardized region count and N(0, 1), from the
    window CDF and math.erfc, with no sampling.  The region count rises
    with the outcome x, so the sup is the larger of F(x) - Phi(z_x) and
    Phi(z_x) - F(x-) over the window; F is 0 below it and 1 above it in
    float64."""
    lo, cdf = _binomial_cdf(n, p)
    sigma = clt._exact_sigma(n, p)
    mean = expected_regions(CutModel(n, p, 2))
    gap, below = 0.0, 0.0
    for x, f in enumerate(cdf.tolist(), start=lo):
        phi = 0.5 * math.erfc(-(1 + x + x * (x - 1) // 2 - mean) / sigma / math.sqrt(2.0))
        gap = max(gap, f - phi, phi - below)
        below = f
    return gap


def dkw_epsilon(m: int, delta: float = 1e-9) -> float:
    """Dvoretzky-Kiefer-Wolfowitz with Massart's constant: the empirical
    CDF of m draws is farther than this from the true CDF anywhere with
    probability at most delta, and the KS distance moves no more."""
    return math.sqrt(math.log(2 / delta) / (2 * m))


@pytest.mark.parametrize("n, p, m", [
    (10**4, 0.5, 10**5), (10**7, 0.5, 10**6), (100, 0.9, 10**5), (10**5, 0.01, 10**5),
])
def test_sampled_ks_is_within_dkw_of_the_exact_distance(n, p, m):
    """The oracle shares no sampling code with the sampler; at a fixed
    seed the event it excludes has probability below 1e-9."""
    sampled = sample_normality(n, p, m, KS_SEED).ks_distance
    assert abs(sampled - exact_kolmogorov_distance(n, p)) <= dkw_epsilon(m)


@pytest.mark.parametrize("n, p, m", [(100, 0.9, 10**5), (10**4, 0.5, 10**6), (10**3, 0.1, 10**6)])
def test_draws_shifted_by_one_outcome_break_the_dkw_bound(n, p, m):
    """The DKW check can fail: every draw x moved to x + 1 is too far
    from the exact distance.  (At n = 10^7 a one-outcome shift moves the
    KS distance by only about 0.001, inside the bound.)"""
    regions = sample_region_counts(n, p, m, KS_SEED)
    x = (np.sqrt(8 * (regions - 1) + 1).round().astype(np.int64) - 1) // 2
    assert np.array_equal(1 + x + x * (x - 1) // 2, regions)
    # the region count of x + 1 is that of x plus x + 1
    shifted = ks_distance(regions + x + 1, n, p).ks_distance
    assert abs(shifted - exact_kolmogorov_distance(n, p)) > dkw_epsilon(m)


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
    # so are the package's other result types
    from maxdiv import fairness, geometry, moments

    chord = geometry.Chord(0.5, 0.1)
    model = CutModel(3, 0.5, 2)
    for value, field in [(ns, "sigma"), (chord, "offset"),
                         (model, "p"), (moments.moments_exact(model), "mean"),
                         (fairness.Optimum(1.0, 2.0, False), "x_star")]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
