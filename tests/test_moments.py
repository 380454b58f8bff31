import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdiv import MAX_CUTS
from maxdiv.geometry import max_regions
from maxdiv.moments import (
    CutModel,
    UnsupportedDimensionError,
    chebyshev_tail,
    concentration_window,
    exact_moments_rational,
    expected_regions,
    moments_asymptotic,
    moments_closed_form,
    moments_exact,
    second_moment_2d,
    variance_asymptotic,
    variance_closed_form,
)

P_GRID = [k / 10 for k in range(11)]


def close(got, want, rel=1e-10, abs_=1e-12):
    return abs(got - want) <= max(rel * abs(want), abs_)


def test_region_count_known_values():
    assert max_regions(3, 2) == 7
    assert max_regions(0, 2) == 1
    assert max_regions(0, 5) == 1
    assert max_regions(4, 3) == 15
    assert max_regions(2, 2) == 4


def test_expected_regions_ignores_dimensions_beyond_n():
    for p in (0.0, 0.3, 1.0):
        assert expected_regions(CutModel(12, p, 10**4)) == expected_regions(CutModel(12, p, 12))


def _mean_by_fractions(n: int, p: float, top: int) -> float:
    """float() of sum_{i<=top} C(n, i) p^i, summed as one Fraction over v^top."""
    u, v = p.as_integer_ratio()
    total, binom = 0, 1  # sum_{j<i} C(n, j) u^j v^(i-1-j), and C(n, i)
    for i in range(top + 1):
        total = total * v + binom * u**i
        binom = binom * (n - i) // (i + 1)
    return float(Fraction(total, v**top))


def test_expected_regions_is_correctly_rounded_where_every_binomial_is_a_float():
    """clt's mean and the closed and asymptotic routes' means are these floats."""
    checked = 0
    for n in (1, 2, 5, 20, 1000, 10**4, 10**7, MAX_CUTS, 10**12, 10**52):
        for d in (1, 2, 3, 5, 10, 200):
            for p in [5e-324, 1e-300, 1e-100, 1e-20, 1e-6, 0.01, 0.3, 0.9, 1 - 2**-53, *P_GRID]:
                try:
                    want = _mean_by_fractions(n, p, min(n, d))
                except OverflowError:
                    continue
                assert expected_regions(CutModel(n, p, d)) == want, (n, p, d)
                checked += 1
    assert checked > 1100
    # a float sum of the terms gives 0x1.ce147ae147ae2p+1 here
    assert expected_regions(CutModel(2, 0.9, 2)).hex() == "0x1.ce147ae147ae1p+1"


@pytest.mark.parametrize("n, p, d, terms, want, seconds", [
    (10**52, 5e-324, 7, 7, 1.0, 0.1),
    (10**52, 5e-324, 10**9, 10, 1.0, 0.1),
    # about 970 terms of 200 000 bits each before the rest is small enough
    (10**52, 2e-50, 10**9, 1000, 7.22597376812576e+86, 1.0),
    (10**300, 1e-300, 10, 10, 2.7182818011463845, 0.1),
    (10**300, 1e-300, 10**9, 200, math.e, 0.1),
    (10**400, 0.0, 3, 3, 1.0, 0.1),
])
def test_expected_regions_takes_a_huge_binomial_from_its_logarithm(n, p, d, terms, want, seconds):
    """C(n, i) is past the float range here, but E(R) is not; past the
    given number of terms, the rest is below 2^-1100 of it."""
    with pytest.raises(OverflowError):
        float(math.comb(n, min(d, 10)))
    assert _mean_by_fractions(n, p, terms) == want
    start = time.perf_counter()
    assert expected_regions(CutModel(n, p, d)) == want
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("n, p, d", [(10**52, 0.5, 10**9), (10**7, 0.5, 10**7), (2000, 0.5, 10**6)])
def test_expected_regions_raises_only_past_the_float_range(n, p, d):
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="past the float range"):
        expected_regions(CutModel(n, p, d))
    assert time.perf_counter() - start < 0.1


def test_region_count_rejects_bad_input():
    with pytest.raises(ValueError):
        max_regions(-1, 2)
    with pytest.raises(ValueError):
        max_regions(3, 0)


def test_cut_model_validation():
    with pytest.raises(ValueError):
        CutModel(0, 0.5, 2)
    with pytest.raises(ValueError):
        CutModel(3, 1.5, 2)
    with pytest.raises(ValueError):
        CutModel(3, -0.1, 2)
    with pytest.raises(ValueError):
        CutModel(3, 0.5, 0)


def test_expected_regions_anchor():
    assert expected_regions(CutModel(2, 0.5, 2)) == pytest.approx(2.25, abs=1e-15)


def test_second_moment_anchor():
    assert second_moment_2d(CutModel(2, 0.5, 2)) == pytest.approx(6.25, abs=1e-15)
    assert second_moment_2d(CutModel(1, 1.0, 2)) == pytest.approx(4.0, abs=1e-15)


def test_variance_anchor():
    assert variance_closed_form(CutModel(2, 0.5, 2)) == pytest.approx(1.1875, abs=1e-15)
    assert variance_closed_form(CutModel(1, 1.0, 2)) == 0.0
    assert variance_closed_form(CutModel(3, 1.0, 3)) == 0.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("route", [moments_exact, moments_closed_form, moments_asymptotic])
def test_a_negative_zero_p_gives_no_negative_zero_moment(route, d):
    """p = -0.0 is p = 0: every variance, second moment and window scale
    is +0.0, not the -0.0 that n p q gave the closed form."""
    bundle = route(CutModel(5, -0.0, d))
    for value in (bundle.variance, bundle.second_moment):
        assert value is None or math.copysign(1.0, value) == 1.0
    for value in concentration_window(CutModel(5, -0.0, 2)):
        assert math.copysign(1.0, value) == 1.0


def test_degenerate_probabilities():
    for d in (2, 3):
        sure = CutModel(6, 1.0, d)
        none = CutModel(6, 0.0, d)
        assert expected_regions(sure) == max_regions(6, d)
        assert expected_regions(none) == 1.0
        assert variance_closed_form(sure) == 0.0
        assert moments_exact(none).variance == 0.0
    assert moments_exact(CutModel(5, 1.0, 4)).variance == 0.0
    assert expected_regions(CutModel(5, 1.0, 4)) == max_regions(5, 4)
    # R past 2^53 is not its own float, yet a certain count has no spread
    for n, d in ((1000, 7), (10**7, 3)):
        sure = CutModel(n, 1.0, d)
        assert max_regions(n, d) > 2**53 and max_regions(n, d) != int(float(max_regions(n, d)))
        bundle = moments_exact(sure)
        assert bundle.mean == float(max_regions(n, d))
        assert bundle.variance == 0.0
        assert chebyshev_tail(sure, 1.0) == 0.0


def test_closed_forms_match_rational_enumeration():
    """Every polynomial route must reproduce exact rational arithmetic;
    the d = 3 variance and the d = 2 second moment are that value rounded
    once, at the float p, from the smallest subnormal to 1."""
    for n in range(1, 31):
        for k in range(11):
            p = k / 10
            for d in (2, 3):
                model = CutModel(n, p, d)
                mean_r, m2_r, var_r = exact_moments_rational(n, Fraction(k, 10), d)
                assert close(expected_regions(model), float(mean_r))
                assert close(variance_closed_form(model), float(var_r))
                assert close(moments_exact(model).variance, float(var_r))
        for p in (0.0, 5e-324, 1e-300, 0.1, 0.3, 0.5, 0.9, 1 - 2**-53, 1.0):
            _, m2_r, _ = exact_moments_rational(n, Fraction(p), 2)
            assert second_moment_2d(CutModel(n, p, 2)) == float(m2_r), (n, p)
            _, _, var_r = exact_moments_rational(n, Fraction(p), 3)
            assert variance_closed_form(CutModel(n, p, 3)) == float(var_r), (n, p)


def test_enumeration_matches_closed_form_large_n():
    for n in (200, 500, 1000):
        model = CutModel(n, 0.3, 2)
        assert close(moments_exact(model).variance, variance_closed_form(model), rel=1e-9)


def _variance_2d_rational(n: int, p: Fraction) -> Fraction:
    return (
        n * p
        + Fraction(n * (5 * n - 7), 2) * p**2
        + n * (n - 1) * (n - 4) * p**3
        - Fraction(n * (n - 1) * (2 * n - 3), 2) * p**4
    )


def test_enumerated_variance_accurate_near_one():
    """V(R) is about 2e-7 of E(R)^2 here: E(R^2) - E(R)^2 in floats
    misses the rational value by 1.35e-6 relative; in integers it is
    the rational value, rounded once."""
    n, p = 2000, 0.9999
    want = _variance_2d_rational(n, Fraction(p))
    assert moments_exact(CutModel(n, p, 2)).variance == float(want)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.sampled_from([1, 2, 3, 4]),
    p=st.one_of(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e-6),
        st.floats(1.0 - 1e-6, 1.0),
    ),
)
def test_enumeration_matches_rational_route(n, d, p):
    """Where the k-sum is cut, the sums fall short by less than 2^-1100
    of E(R), which does not move a rounding at these sizes."""
    bundle = moments_exact(CutModel(n, p, d))
    exact = exact_moments_rational(n, Fraction(p), d)
    assert (bundle.mean, bundle.second_moment, bundle.variance) == tuple(map(float, exact))
    if d == 2:
        # every term of the factored polynomial is nonnegative, so a
        # few rounding units bound its error even at p near 0 or 1
        closed = variance_closed_form(CutModel(n, p, d))
        assert abs(Fraction(closed) - exact[2]) <= Fraction(1, 10**14) * exact[2]
        assert second_moment_2d(CutModel(n, p, d)) == float(exact[1])
    if d == 3:
        assert variance_closed_form(CutModel(n, p, d)) == float(exact[2])


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1 - 1e-9])
@pytest.mark.parametrize("d", [2, 5])
def test_enumeration_within_1e_14_of_rational_route(n, p, d):
    """Weights from lgamma, as enumerated before, were up to 1.9e-13 off
    here; the integer sums round each moment once."""
    bundle = moments_exact(CutModel(n, p, d))
    exact = exact_moments_rational(n, Fraction(p), d)
    assert (bundle.mean, bundle.second_moment, bundle.variance) == tuple(map(float, exact))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 40, 300])
def test_exact_route_is_the_rational_route_rounded(n):
    """Every moment is float() of the exact rational value, at p from the
    smallest subnormal to the float just below 1, and at d below, near
    and above n, where N_k leaves 3^k."""
    for d in (1, 2, 3, 4, 6, 11, 20):
        for p in (5e-324, 1e-300, 1e-9, 0.3, 0.5, 0.9, 1 - 2**-53):
            bundle = moments_exact(CutModel(n, p, d))
            exact = exact_moments_rational(n, Fraction(p), d)
            got = (bundle.mean, bundle.second_moment, bundle.variance)
            assert got == tuple(map(float, exact)), (n, d, p)


@pytest.mark.parametrize("n", [10**6, 10**7])
@pytest.mark.parametrize("d", [2, 3])
def test_enumeration_within_1e_14_of_closed_form_at_large_n(n, d):
    """Window weights stepped down by a separately rounded q / p put V(R)
    8e-14 off at n = 10^7, p = 0.3, and centring on the float mean up to
    8e-12 off at p = 1 - 1e-6, d = 3."""
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
        model = CutModel(n, p, d)
        bundle = moments_exact(model)
        for got, want in ((bundle.mean, expected_regions(model)),
                          (bundle.variance, variance_closed_form(model))):
            assert abs(got - want) <= 1e-14 * want, (p, got, want)


@pytest.mark.parametrize("n", [10**7, MAX_CUTS])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_route_within_1e_15_of_closed_forms(n, d):
    for p in (1e-300, 1e-9, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1 - 2**-53):
        model = CutModel(n, p, d)
        bundle = moments_exact(model)
        for got, want in ((bundle.mean, expected_regions(model)),
                          (bundle.variance, variance_closed_form(model))):
            assert abs(got - want) <= 1e-15 * want, (p, got, want)


def test_closed_form_variance_keeps_its_digits_next_to_one():
    """At p = 1 - 2^-53 the expanded d = 2 polynomial cancelled to 0.0."""
    n, p = 10**6, 1.0 - 2.0**-53
    want = _variance_2d_rational(n, Fraction(p))
    got = variance_closed_form(CutModel(n, p, 2))
    assert abs(Fraction(got) - want) <= Fraction(1, 10**14) * want
    assert f"{got:.10f}" == "111.0223024625"


def test_enumeration_survives_counts_beyond_sqrt_of_float_range():
    """With d >= n every cut doubles the regions, so R = 2^X reaches 2^600
    here and (R - E(R))^2 alone would overflow; the weighted terms do not."""
    n, p = 600, 0.1
    model = CutModel(n, p, n)
    bundle = moments_exact(model)
    assert bundle.mean == pytest.approx((1 + p) ** n, rel=1e-9)
    assert bundle.second_moment == pytest.approx((1 + 3 * p) ** n, rel=1e-9)
    want_var = (1 + 3 * p) ** n - (1 + p) ** (2 * n)
    assert bundle.variance == pytest.approx(want_var, rel=1e-9)
    assert chebyshev_tail(model, 1.0) == 1.0


def test_rational_route_guards():
    with pytest.raises(TypeError):
        exact_moments_rational(5, 0.5, 2)
    with pytest.raises(ValueError):
        exact_moments_rational(5, Fraction(3, 2), 2)
    with pytest.raises(ValueError, match="outside"):
        exact_moments_rational(5, Fraction(-1, 2), 2)


def test_dimension_guards():
    with pytest.raises(UnsupportedDimensionError):
        second_moment_2d(CutModel(5, 0.5, 3))
    with pytest.raises(UnsupportedDimensionError):
        variance_closed_form(CutModel(5, 0.5, 4))
    with pytest.raises(UnsupportedDimensionError):
        concentration_window(CutModel(5, 0.5, 3))


def test_exact_route_answers_past_ten_million():
    """The enumeration refused n > 10^7; the factorial moments take any n."""
    for n in (10**7 + 1, 10**12):
        for p in (1e-9, 0.3, 0.5, 1 - 1e-9):
            for d in (2, 3):
                model = CutModel(n, p, d)
                bundle = moments_exact(model)
                assert abs(bundle.mean - expected_regions(model)) <= 1e-15 * bundle.mean
                want = variance_closed_form(model)
                assert abs(bundle.variance - want) <= 1e-15 * want, (n, p, d)
                assert chebyshev_tail(model, 1.0) == min(1.0, bundle.variance)


@pytest.mark.parametrize("n, p, d", [(10**7, 0.5, 10**7), (10**7, 1.0, 10**7), (10**400, 0.5, 3)])
def test_enumeration_refuses_counts_past_float_range(n, p, d):
    """E(R) has millions of digits at the first two, and about 1200 at
    the last; its largest term decides that in logs, in no time."""
    for route in (moments_exact, lambda m: chebyshev_tail(m, 1.0)):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="past the float range"):
            route(CutModel(n, p, d))
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n, p, d, exponent", [
    (10**400, 0.5, 3, 1198), (10**7, 0.5, 10**7, 1447645), (10**4, 0.7, 10**4, 1786),
    (2000, 1.0, 10**4, 433), (2000, 0.7, 10**4, 356), (2000, 0.7, 600, 387),
])
def test_a_mean_past_the_float_range_is_refused_with_a_lower_bound(n, p, d, exponent):
    """The message, which the command line prints, gives a lower bound of
    the largest mean term in powers of ten: E(R) is about 10^1198.3 at
    the first, and 1.5^n = 10^1760912.6 at the second.  Each term of the
    bound, and the choice of the largest term, moves the exponent at one
    of these at least."""
    want = f"the mean at d = {d} is above 10^{exponent}, past the float range"
    for route in (moments_exact, expected_regions):
        with pytest.raises(OverflowError, match=re.escape(want)):
            route(CutModel(n, p, d))


def test_a_2d_mean_at_the_edge_of_the_float_range():
    """E(R) = 1 + n/2 + n(n - 1)/8 at p = 1/2, d = 2.  The largest term's
    log bound sits 0.04 nats under log E(R), so a mean 1.6e-4 nats under
    the float maximum is answered, correctly rounded, and one 0.11 nats
    over it is refused by that bound before any sum."""
    n = 3792 * 10**151
    want = 1 + Fraction(n, 2) + Fraction(n * (n - 1), 8)
    assert float(want) == 1.797408e308
    assert moments_exact(CutModel(n, 0.5, 2)).mean == expected_regions(CutModel(n, 0.5, 2))
    assert expected_regions(CutModel(n, 0.5, 2)) == float(want)
    for route in (moments_exact, expected_regions):
        with pytest.raises(OverflowError, match=re.escape("d = 2 is above 10^308, past")):
            route(CutModel(4 * 10**154, 0.5, 2))


def test_a_2d_variance_at_the_edge_of_the_float_range():
    """V(R) is about n^3 / 16 at p = 1/2, d = 2, and its log lower bound
    sits about 0.08 nats under it, so a variance 3.1e-4 nats under the
    float maximum is summed and one just over it is inf."""
    bundle = moments_exact(CutModel(1422 * 10**100, 0.5, 2))
    assert bundle.variance == 1.797127155e308
    assert bundle.variance == variance_closed_form(CutModel(1422 * 10**100, 0.5, 2))
    assert moments_exact(CutModel(1423 * 10**100, 0.5, 2)).variance == math.inf


def test_enumeration_keeps_counts_within_float_range():
    # X = 0 for certain, so R = 1 whatever the dimension
    assert moments_exact(CutModel(10**7, 0.0, 10**7)).mean == 1.0
    # R(1000, 10^5) = 2^1000 is a float, so the route runs; its squares are not
    bundle = moments_exact(CutModel(1000, 0.5, 10**5))
    assert bundle.mean == pytest.approx(1.5**1000, rel=1e-12)
    assert bundle.variance == math.inf
    # R(1028, 600) > 2^1027 at X = 1028, but E(R) < 1.5^1028 is a float
    bundle = moments_exact(CutModel(1028, 0.5, 600))
    assert bundle.mean == float(sum(Fraction(math.comb(1028, k), 2**k) for k in range(601)))
    assert bundle.second_moment == bundle.variance == math.inf


def test_exact_route_cuts_the_tail_of_a_huge_dimension():
    """p = 2^-1074 makes every term past k = 1 negligible, so the sum
    stops at k = 2 of 2 * 10^9."""
    start = time.perf_counter()
    bundle = moments_exact(CutModel(10**52, 5e-324, 10**9))
    assert time.perf_counter() - start < 0.1
    assert bundle.mean == bundle.second_moment == 1.0
    assert bundle.variance == float(Fraction(10**52) * Fraction(5e-324) * (1 - Fraction(5e-324)))


def test_exact_route_keeps_within_a_second_up_to_n_2000():
    """The slowest cases of n <= 2000, d <= n found take about 0.2 s: at
    p = 0.1 every E(R^2) term up to k = 1450 is kept."""
    for d in (600, 900, 1500, 2000):
        for p in (0.1, 0.5, 0.9):
            start = time.perf_counter()
            try:
                moments_exact(CutModel(2000, p, d))
            except OverflowError:
                pass
            assert time.perf_counter() - start < 1.0, (d, p)


def test_moment_sums_past_float_range_are_inf():
    """R(1000, 180) < 2^676 is a float, but the second moment and the
    variance pass the float range: they are inf, and the Chebyshev bound
    is 1."""
    model = CutModel(1000, 0.5, 180)
    bundle = moments_exact(model)
    assert math.isfinite(bundle.mean)
    assert bundle.second_moment == bundle.variance == math.inf
    assert chebyshev_tail(model, 1.0) == 1.0


def test_asymptotic_ratio_monotone_toward_one():
    ratios = []
    for n in (100, 300, 1000, 3000):
        model = CutModel(n, 0.5, 2)
        ratios.append(moments_exact(model).variance / variance_asymptotic(model))
    assert abs(ratios[2] - 1.0) <= 0.01
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))


def test_asymptotic_ratio_3d():
    model = CutModel(1000, 0.5, 3)
    ratio = moments_exact(model).variance / variance_asymptotic(model)
    assert abs(ratio - 1.0) <= 0.05


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("n", [10**4, 10**5, 10**6, 10**8, 10**9])
def test_asymptotic_ratio_past_3d(n, d):
    """The ratio to the exact variance is 1 + O(1/n): n |ratio - 1| reads
    4.5 at d = 4 and 4.0 at d = 5.  With (d-1)! in place of its square,
    the asymptotic variance would be 6 and 24 times too large."""
    model = CutModel(n, 0.5, d)
    ratio = moments_exact(model).variance / variance_asymptotic(model)
    assert n * abs(ratio - 1.0) <= 10.0


def _asymptotic_by_fractions(n: int, p: float, d: int) -> float:
    """float() of n^(2d-1) p^(2d-1) q / ((d-1)!)^2, evaluated as a Fraction."""
    p = Fraction(p)
    return float((n * p) ** (2 * d - 1) * (1 - p) / math.factorial(d - 1) ** 2)


@pytest.mark.parametrize("n", [1, 20, 10**4, 10**7, MAX_CUTS])
def test_asymptotic_keeps_the_bits_of_the_2d_and_3d_forms(n):
    """The form is rounded once, correctly, and refused exactly where
    d > 1 and d^2 > n p.  The float products n**3 * p**3 * (1.0 - p) and
    0.25 * n**5 * p**5 * (1.0 - p) miss it in the last bits at 38 of the
    points answered here."""
    for p in [5e-324, 1e-300, 1e-62, 1e-20, 1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 2**-53, *P_GRID]:
        for d in (1, 2, 3):
            model = CutModel(n, p, d)
            if 0.0 < p < 1.0 and d > 1 and d * d > n * Fraction(p):
                with pytest.raises(UnsupportedDimensionError, match=re.escape(f"d^2 <= n p, got d = {d}")):
                    variance_asymptotic(model)
            else:
                assert variance_asymptotic(model) == _asymptotic_by_fractions(n, p, d), model


def test_asymptotic_is_refused_or_within_a_factor_of_3():
    """The form's corrections are of relative order d^2 / (n p).  On this
    grid it is refused exactly where d > 1 and d^2 > n p, and elsewhere it
    stays within 2.52 of the exact variance (at n = 3000, p = 1 - 1e-6,
    d = 54).  Under d <= n p alone it would be off by 354 times at
    (100, 0.5, 50)."""
    for n in (1, 2, 3, 5, 8, 20, 50, 100, 300, 1000, 3000):
        for p in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6):
            for d in range(1, 60):
                model = CutModel(n, p, d)
                if d > 1 and d * d > n * Fraction(p):
                    with pytest.raises(UnsupportedDimensionError):
                        variance_asymptotic(model)
                    continue
                exact = moments_exact(model).variance
                assert exact / 3 <= variance_asymptotic(model) <= 3 * exact, model
    assert variance_asymptotic(CutModel(8, 0.5, 2)) == 32.0  # d^2 = n p is inside


def test_asymptotic_is_0_at_p_0_and_1_in_any_dimension():
    for n in (1, 1000, 10**400):
        for d in (1, 2, 10**9):
            assert variance_asymptotic(CutModel(n, 0.0, d)) == variance_asymptotic(CutModel(n, 1.0, d)) == 0.0


def test_asymptotic_is_the_exact_variance_at_1d():
    for n in (1, 7, 1000):
        for p in P_GRID:
            model = CutModel(n, p, 1)
            assert close(variance_asymptotic(model), moments_exact(model).variance, rel=1e-14)


_PAST_THE_FORM = "asymptotic variance needs d = 1 or d^2 <= n p, got d = {}"


@pytest.mark.parametrize("n, p, d, want", [
    (10**72, 0.5, 3, OverflowError("d = 3 is about 10^358")),
    (10**9, 0.5, 22360, OverflowError("d = 22360 is about 10^213926")),
    (10**9, 0.5, 10**9, UnsupportedDimensionError(_PAST_THE_FORM.format(10**9))),
    (1000, 0.5, 10**9, UnsupportedDimensionError(_PAST_THE_FORM.format(10**9))),
    (2, 1e-300, 200, UnsupportedDimensionError(_PAST_THE_FORM.format(200))),
    (10**72, 1e-70, 3, 0.25e10),  # n^5 is past the float range, V is not
    (2**997, 4.1e-297, 64, 2.218691575514727e300),  # the slowest accepted call found
])
def test_asymptotic_decides_the_range_in_logs(n, p, d, want):
    """Outside its form it is refused and past the float range it raises,
    both before n^(2d-1) or (d-1)! is built; inside both, the integers it
    divides stay small enough to take well under 0.1 s."""
    start = time.perf_counter()
    if isinstance(want, float):
        assert variance_asymptotic(CutModel(n, p, d)) == want
    else:
        with pytest.raises(type(want), match=re.escape(str(want))):
            variance_asymptotic(CutModel(n, p, d))
    assert time.perf_counter() - start < 0.1


def test_expected_regions_monotone():
    base = expected_regions(CutModel(10, 0.4, 2))
    assert expected_regions(CutModel(11, 0.4, 2)) > base
    assert expected_regions(CutModel(10, 0.5, 2)) > base
    assert expected_regions(CutModel(10, 0.4, 3)) > base


def test_chebyshev_tail_values():
    model = CutModel(100, 0.5, 2)
    sigma = math.sqrt(moments_exact(model).variance)
    assert chebyshev_tail(model, sigma) == pytest.approx(1.0, abs=1e-12)
    assert chebyshev_tail(model, 10 * sigma) == pytest.approx(0.01, abs=1e-12)
    assert chebyshev_tail(model, 1e-6) == 1.0


def test_chebyshev_tail_bounds_empirical_tail():
    """Monte Carlo tail frequencies must sit below the Chebyshev bound."""
    import numpy as np

    model = CutModel(50, 0.5, 2)
    mean = expected_regions(model)
    sigma = math.sqrt(moments_exact(model).variance)
    rng = np.random.default_rng(2024)
    x = rng.binomial(model.n, model.p, size=200_000)
    r = 1 + x + x * (x - 1) // 2
    for lam in (2 * sigma, 3 * sigma, 5 * sigma):
        empirical = float(np.mean(np.abs(r - mean) >= lam))
        assert empirical <= chebyshev_tail(model, lam) + 1e-12


def test_chebyshev_tail_rejects_bad_lambda():
    for lam in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="deviation must be positive"):
            chebyshev_tail(CutModel(10, 0.5, 2), lam)


def test_chebyshev_tail_uses_enumerated_variance_in_every_dimension():
    model = CutModel(5000, 0.5, 2)
    lam = 10 * math.sqrt(variance_closed_form(model))
    assert chebyshev_tail(model, lam) == pytest.approx(0.01, abs=1e-12)
    # no closed form covers d = 4; V(R) ~ n^7 p^7 q / (3!)^2 to leading order
    model = CutModel(5000, 0.5, 4)
    variance = moments_exact(model).variance
    assert variance / (5000**7 * 0.5**8 / 36) == pytest.approx(1.0, abs=0.01)
    assert chebyshev_tail(model, 10 * math.sqrt(variance)) == pytest.approx(0.01, abs=1e-12)


def test_concentration_window_regimes():
    n = 10**4
    mean, window = concentration_window(CutModel(n, 0.5, 2))
    assert 0.99 <= mean / (n * n / 8) <= 1.01
    _, window = concentration_window(CutModel(n, n**-0.5, 2))
    assert 0.8 <= window / n**0.75 <= 1.2
    _, window = concentration_window(CutModel(n, 1 - n**-0.5, 2))
    assert 0.8 <= window / n**1.25 <= 1.2


def test_closed_form_second_moment_at_2d_is_the_polynomial():
    """At d = 2 the closed route's E(R^2) is second_moment_2d's, bit for
    bit; V(R) + E(R)^2 differs from it in the last bits at 182 of these 300."""
    rng = random.Random(2)
    for _ in range(300):
        model = CutModel(rng.randrange(1, 10**6), rng.random(), 2)
        assert moments_closed_form(model).second_moment == second_moment_2d(model), model


def test_moment_bundles_agree():
    model = CutModel(20, 0.3, 3)
    exact = moments_exact(model)
    closed = moments_closed_form(model)
    assert exact.method == "exact"
    assert closed.method == "closed_form"
    assert close(exact.mean, closed.mean)
    assert close(exact.variance, closed.variance)
    assert close(exact.second_moment, closed.second_moment)
    assert close(exact.variance, exact.second_moment - exact.mean**2, rel=1e-9)


def test_moments_asymptotic_bundle():
    model = CutModel(1000, 0.5, 2)
    bundle = moments_asymptotic(model)
    assert bundle.method == "asymptotic"
    assert bundle.second_moment is None
    assert bundle.mean == expected_regions(model)
    assert bundle.variance == variance_asymptotic(model)


def test_variance_never_negative():
    for n in (1, 2, 5, 17, 30):
        for p in P_GRID:
            for d in (2, 3):
                assert variance_closed_form(CutModel(n, p, d)) >= 0.0
                assert moments_exact(CutModel(n, p, d)).variance >= 0.0
