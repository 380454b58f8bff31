"""Moments of the region count when each of n cuts succeeds with probability p.

With X ~ Bin(n, p) successful cuts in general position, the region
count is R = sum_{i<=d} C(X, i).  Everything here is a route to E(R)
and V(R): exact polynomial forms (derived through factorial moments of
the binomial), enumeration of the window of outcomes with float64 mass
(clt samples it too), the large-n asymptotics, and the Chebyshev tail.

The closed forms and the enumeration are deliberately independent code
paths; the test suite holds them against each other and against an
exact rational-arithmetic evaluation.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest n the enumeration route accepts.  Its window then holds at
#: most 123 545 outcomes, and `moments --n 10000000 --p 0.5 --dim 2
#: --method exact` takes 0.21-0.33 s wall on a 2-vCPU Xeon VM.
ENUMERATION_BOUND = 10**7

# Hoeffding: P(|X - np| >= t) <= 2 exp(-2 t^2 / n), which is below
# 2^-1100 once t > sqrt(1101 ln(2) / 2) * sqrt(n).
_WINDOW_SCALE = math.sqrt(1101 * math.log(2) / 2)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class UnsupportedDimensionError(ValueError):
    """No closed form is implemented for this dimension."""


class EnumerationBoundError(ValueError):
    """n exceeds the enumeration limit, or a region count the float range."""


class CutModel(NamedTuple("CutModel", [("n", int), ("p", float), ("d", int)])):
    """n attempted cuts, each kept with probability p, in dimension d."""

    __slots__ = ()

    def __new__(cls, n: int, p: float, d: int):
        if n < 1:
            raise ValueError(f"cut count must be positive, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        if d < 1:
            raise ValueError(f"dimension must be at least 1, got {d}")
        return super().__new__(cls, n, p, d)


class RegionMoments(NamedTuple):
    """Moments of the region count plus the route that produced them.

    second_moment is None when the route does not define one (the
    asymptotic route only approximates the variance).  method is one of
    "exact_enumeration", "closed_form", "asymptotic".
    """

    mean: float
    variance: float
    second_moment: float | None
    method: str


def expected_regions(model: CutModel) -> float:
    """E(R) = 1 + sum_{i=1}^{d} C(n, i) p^i, exactly, for any dimension.

    Each i-way intersection of cuts survives with probability p^i and
    contributes one region; the leading 1 is the uncut volume.  Terms
    past i = n are zero, so the sum stops at min(n, d).
    """
    n, p, d = model.n, model.p, model.d
    return 1.0 + math.fsum(math.comb(n, i) * p**i for i in range(1, min(n, d) + 1))


def second_moment_2d(model: CutModel) -> float:
    """E(R^2) for a disk (d = 2), as an exact polynomial in n and p."""
    if model.d != 2:
        raise UnsupportedDimensionError(
            f"second-moment polynomial covers d = 2 only, got d = {model.d}"
        )
    n, p = model.n, model.p
    return (
        1.0
        + 3.0 * n * p
        + 4.5 * (n * (n - 1)) * p**2
        + 2.0 * (n * (n - 1) * (n - 2)) * p**3
        + 0.25 * (n * (n - 1) * (n - 2) * (n - 3)) * p**4
    )


def variance_closed_form(model: CutModel) -> float:
    """V(R) as an exact polynomial in n and p, for d = 2 and d = 3.

    V(R) vanishes at p = 0 and at p = 1, so the polynomial has the
    factor n p q with q = 1 - p.  The bracket below is 1 at n = 1 and
    has nonnegative coefficients in p for every n >= 2, so no term is
    negative and nothing cancels, even for p within a rounding unit of
    1, where the expanded form in powers of p loses every digit:

        d = 2:  n p q [1 + (n-1) p (5 + (2n-3) p) / 2]
        d = 3:  n p q [1 + (n-1) p (5/2 + p ((19n-35)/6
                    + p ((n-2)(9n-20)/6 + p (n-2)(3n^2-15n+20)/12)))]
    """
    n, p = model.n, model.p
    q = 1.0 - p
    if model.d == 2:
        inner = (n - 1) * p * (5 + (2 * n - 3) * p) / 2
    elif model.d == 3:
        inner = (n - 1) * p * (
            2.5
            + p * ((19 * n - 35) / 6
                   + p * ((n - 2) * (9 * n - 20) / 6
                          + p * ((n - 2) * (3 * n * n - 15 * n + 20) / 12)))
        )
    else:
        raise UnsupportedDimensionError(
            f"variance polynomial covers d in {{2, 3}}, got d = {model.d}"
        )
    return n * p * q * (1 + inner)


def variance_asymptotic(model: CutModel) -> float:
    """Leading-order variance as n grows at fixed d, for any d >= 1.

    R ~ X^d / d!, so V(R) ~ n^(2d-1) p^(2d-1) q / ((d-1)!)^2 with
    q = 1 - p: n p q (the exact variance) at d = 1, n^3 p^3 q at d = 2
    and n^5 p^5 q / 4 at d = 3.  The form does not hold once d nears n,
    where R = 2^X.

    The size is decided in logs before any power or factorial is built,
    so a huge d costs no time.  Past the float range this raises
    OverflowError.  Where n^(2d-1) and ((d-1)!)^2 are floats, the
    products run as written; elsewhere the result is exp of the log,
    which is 0.0 below the smallest subnormal.
    """
    n, p, d = model
    q = 1.0 - p
    if p == 0.0 or q == 0.0:
        return 0.0
    k = 2 * d - 1
    log_v = k * (math.log(n) + math.log(p)) + math.log(q) - 2 * math.lgamma(d)
    if log_v > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"the variance at d = {d} is about 10^{log_v / math.log(10):.0f}, past the float range"
        )
    if k * math.log(n) < _LOG_FLOAT_MAX and 2 * math.lgamma(d) < _LOG_FLOAT_MAX:
        # int / int rounds once, so n**5 / 4 has the bits of 0.25 * n**5
        return n**k / math.factorial(d - 1) ** 2 * p**k * q
    return math.exp(log_v)


def _binomial_window(n: int, p: float) -> tuple[int, int]:
    """Outcomes [lo, hi] of Bin(n, p) that can carry float64 mass.

    Every outcome outside is farther than t = _WINDOW_SCALE * sqrt(n)
    from the mean np, so by Hoeffding's inequality its probability is
    below 2^-1100, which rounds to 0.0 in float64.  The bounds are
    rounded outward.
    """
    t = _WINDOW_SCALE * math.sqrt(n)
    return max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))


def _fsum(terms: Iterable[float]) -> float:
    """math.fsum of nonnegative terms, largest first: it rounds correctly
    in any order, but the tiny terms of a window's tails slow it down
    several times.  A sum past the float range is inf; fsum raises there.
    """
    try:
        return math.fsum(sorted(terms, reverse=True))
    except OverflowError:
        return math.inf


def _binomial_weights(n: int, p: float, lo: int, hi: int) -> list[float]:
    """Probabilities of the outcomes lo..hi of Bin(n, p), for 0 < p < 1.

    The weights start at 1 at the mode and multiply outward by the ratio
    f(x+1) / f(x) = (n - x) / (x + 1) * odds, odds = p / q, or divide by
    it going down, a few rounding units a step; their fsum normalises
    them.  Both directions use the one rounded odds, so the weights are
    those of Bin(n, p') with p' within two rounding units of p.  A
    separately rounded q / p going down would bend them at the mode:
    V(R) was then 8e-14 off at n = 10^7, p = 0.3.
    """
    odds = p / (1.0 - p)
    mode = min(max(math.floor((n + 1) * p), lo), hi)
    down = ((x + 1) / (n - x) / odds for x in range(mode - 1, lo - 1, -1))
    up = ((n - x) / (x + 1) * odds for x in range(mode, hi))
    weights = [*accumulate(down, mul, initial=1.0)][::-1] + [*accumulate(up, mul)]
    total = _fsum(weights)
    return [w / total for w in weights]


def _region_counts(lo: int, hi: int, d: int) -> list[int]:
    """[geometry.max_regions(x, d) for x in lo..hi] in exact integer steps.

    S(lo, d) = sum_{i<=d} C(lo, i) is summed directly.  Above it,
    Pascal's rule gives S(x+1, d) = 2 S(x, d) - C(x, d), and C(x+1, d)
    follows from C(x, d) by one multiply and one exact divide.
    """
    total = sum(math.comb(lo, i) for i in range(min(lo, d) + 1))
    top = math.comb(lo, d)  # C(x, d), here at x = lo
    counts = [total]
    for x in range(lo + 1, hi + 1):
        total = 2 * total - top
        counts.append(total)
        if x == d:
            top = 1
        elif x > d:
            top = top * x // (x - d)
    return counts


def exact_moments_rational(n: int, p: Fraction, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(E(R), E(R^2), V(R)) in exact rational arithmetic.

    Slow but indisputable; meant for holding the floating-point routes
    to account at small n.
    """
    from fractions import Fraction

    if not isinstance(p, Fraction):
        raise TypeError("p must be a Fraction for the rational route")
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    # weight x is C(n, x) a^x (b - a)^(n - x) / b^n: integer sums, one division
    a, b = p.numerator, p.denominator
    mean = second = 0
    for x, r in enumerate(_region_counts(0, n, d)):
        weight = math.comb(n, x) * a**x * (b - a) ** (n - x)
        mean += weight * r
        second += weight * r * r
    mean, second = Fraction(mean, b**n), Fraction(second, b**n)
    return mean, second, second - mean * mean


def moments_exact(model: CutModel) -> RegionMoments:
    """Moments by enumerating _binomial_window, or the one outcome of X
    when p is 0 or 1, packaged with their route tag.

    n above ENUMERATION_BOUND is refused, and so are counts past the
    float range: by an lgamma lower bound before any count is built, or
    by the largest count.  The variance sums the centred counts, not
    E(R^2) - E(R)^2, which cancels when V(R) is small next to E(R)^2 (p
    near 0 or 1).  Every sum has nonnegative terms, so each moment is off
    by at most a few window-size rounding units.
    """
    n, p, d = model
    if n > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"enumeration supports n <= {ENUMERATION_BOUND}, got n = {n}")
    if 0.0 < p < 1.0:
        lo, hi = _binomial_window(n, p)
    else:  # X is n or 0 for certain
        lo = hi = n if p == 1.0 else 0
    too_large = EnumerationBoundError(f"region count R({hi}, {d}) at n = {n} passes the float range")
    k = min(d, hi // 2)  # C(hi, k), the largest term of R(hi, d), bounds it below
    if math.lgamma(hi + 1) - math.lgamma(k + 1) - math.lgamma(hi - k + 1) > 1024 * math.log(2):
        raise too_large  # before a huge integer is built
    counts = _region_counts(lo, hi, d)
    if counts[-1] > sys.float_info.max:  # past the lower bound above, within a few bits
        raise too_large
    weights = _binomial_weights(n, p, lo, hi) if lo < hi else [1.0]
    mean = _fsum(w * r for w, r in zip(weights, counts))
    second = _fsum(w * r * r for w, r in zip(weights, counts))
    centre = int(mean)  # r - mean would round a count past 2^53; r - centre is exact
    deviations = (r - centre - (mean - centre) for r in counts)
    # weight first: a squared deviation alone may pass the float range.  One
    # outcome is exact: a count past 2^53 is not its own float mean.
    variance = _fsum(w * e * e for w, e in zip(weights, deviations)) if lo < hi else 0.0
    return RegionMoments(
        mean=mean,
        variance=variance,
        second_moment=second,
        method="exact_enumeration",
    )


def moments_closed_form(model: CutModel) -> RegionMoments:
    """Moments from the explicit polynomials (d = 2 or 3)."""
    mean = expected_regions(model)
    variance = variance_closed_form(model)
    second = second_moment_2d(model) if model.d == 2 else variance + mean * mean
    return RegionMoments(
        mean=mean,
        variance=variance,
        second_moment=second,
        method="closed_form",
    )


def moments_asymptotic(model: CutModel) -> RegionMoments:
    """Exact mean with the leading-order variance; no second moment."""
    return RegionMoments(
        mean=expected_regions(model),
        variance=variance_asymptotic(model),
        second_moment=None,
        method="asymptotic",
    )


def chebyshev_tail(model: CutModel, lam: float) -> float:
    """Chebyshev bound on P(|R - E(R)| >= lam), capped at 1, from the enumerated variance."""
    if not lam > 0.0:
        raise ValueError(f"deviation must be positive, got {lam!r}")
    return min(1.0, moments_exact(model).variance / (lam * lam))


def concentration_window(model: CutModel) -> tuple[float, float]:
    """Center and scale (E(R), sqrt(V(R))) of the region count, d = 2 only."""
    if model.d != 2:
        raise UnsupportedDimensionError(
            f"concentration window is defined for d = 2 only, got d = {model.d}"
        )
    return expected_regions(model), math.sqrt(variance_closed_form(model))
