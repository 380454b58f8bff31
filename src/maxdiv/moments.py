"""Moments of the region count when each of n cuts succeeds with probability p.

With X ~ Bin(n, p) successful cuts in general position, the region
count is R = sum_{i<=d} C(X, i).  Everything here is a route to E(R)
and V(R): exact polynomial forms (derived through factorial moments of
the binomial), full-distribution enumeration, the large-n asymptotics,
and the Chebyshev tail bound they feed.

The closed forms and the enumeration are deliberately independent code
paths; the test suite holds them against each other and against an
exact rational-arithmetic evaluation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from maxdiv.geometry import max_regions as region_count

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest n the enumeration route accepts.
ENUMERATION_BOUND = 1000


class UnsupportedDimensionError(ValueError):
    """No closed form is implemented for this dimension."""


class EnumerationBoundError(ValueError):
    """The requested n exceeds the enumeration limit."""


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
    """Leading-order variance: n^3 p^3 (1-p) for d = 2, n^5 p^5 (1-p)/4 for d = 3."""
    n, p = model.n, model.p
    if model.d == 2:
        return n**3 * p**3 * (1.0 - p)
    if model.d == 3:
        return 0.25 * n**5 * p**5 * (1.0 - p)
    raise UnsupportedDimensionError(
        f"asymptotic variance covers d in {{2, 3}}, got d = {model.d}"
    )


def _region_counts(n: int, d: int) -> list[int]:
    """[region_count(x, d) for x in 0..n] in O(n) exact integer steps.

    Pascal's rule on the partial row sums S(x, d) = sum_{i<=d} C(x, i)
    gives S(x+1, d) = 2 S(x, d) - C(x, d), and C(x+1, d) follows from
    C(x, d) by one multiply and one exact divide.
    """
    counts = [1]
    total, top = 1, 0  # S(x, d) and C(x, d), here at x = 0
    for x in range(1, n + 1):
        total = 2 * total - top
        counts.append(total)
        if x == d:
            top = 1
        elif x > d:
            top = top * x // (x - d)
    return counts


def _enumerated_moments(n: int, p: float, d: int) -> tuple[float, float, float]:
    """(E(R), E(R^2), V(R)) by summing the full binomial distribution.

    The variance is a second pass over the centred counts, not
    E(R^2) - E(R)^2, which cancels catastrophically when V(R) is small
    next to E(R)^2 (p near 0 or 1).  Its terms are all nonnegative, so
    a plain sum cannot cancel: its relative error stays below n + 1
    rounding units, and it costs a fraction of an fsum.
    """
    if p == 0.0 or p == 1.0:
        # a float product overflows to inf where ** would raise
        fixed = float(region_count(n if p == 1.0 else 0, d))
        return fixed, fixed * fixed, 0.0
    log_n_factorial, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)
    weights = [
        math.exp(
            log_n_factorial
            - math.lgamma(x + 1)
            - math.lgamma(n - x + 1)
            + x * log_p
            + (n - x) * log_q
        )
        for x in range(n + 1)
    ]
    counts = _region_counts(n, d)
    mean = math.fsum(w * r for w, r in zip(weights, counts))
    second = math.fsum(w * r * r for w, r in zip(weights, counts))
    # weight first: a squared deviation alone may pass the float range
    variance = sum(w * (r - mean) * (r - mean) for w, r in zip(weights, counts))
    return mean, second, variance


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
    q = 1 - p
    mean = Fraction(0)
    second = Fraction(0)
    for x, r in enumerate(_region_counts(n, d)):
        weight = math.comb(n, x) * p**x * q ** (n - x)
        mean += weight * r
        second += weight * r * r
    return mean, second, second - mean * mean


def moments_exact(model: CutModel) -> RegionMoments:
    """Moments by full enumeration, packaged with their route tag."""
    if model.n > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"enumeration supports n <= {ENUMERATION_BOUND}, got n = {model.n}"
        )
    mean, second, variance = _enumerated_moments(model.n, model.p, model.d)
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
    """Chebyshev bound on P(|R - E(R)| >= lam), capped at 1.

    Uses the enumerated variance when n is within the enumeration limit
    and the closed form beyond it.
    """
    if not lam > 0.0:
        raise ValueError(f"deviation must be positive, got {lam!r}")
    if model.n <= ENUMERATION_BOUND:
        var = moments_exact(model).variance
    else:
        var = variance_closed_form(model)
    return min(1.0, var / (lam * lam))


def concentration_window(model: CutModel) -> tuple[float, float]:
    """Center and scale (E(R), sqrt(V(R))) of the region count, d = 2 only."""
    if model.d != 2:
        raise UnsupportedDimensionError(
            f"concentration window is defined for d = 2 only, got d = {model.d}"
        )
    return expected_regions(model), math.sqrt(variance_closed_form(model))
