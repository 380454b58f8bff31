"""Moments of the region count when each of n cuts succeeds with probability p.

With X ~ Bin(n, p) successful cuts in general position, the region
count is R = sum_{i<=d} C(X, i).  Everything here is a route to E(R)
and V(R): exact polynomial forms for d = 2 and 3, the binomial factorial
moments E C(X, k) = C(n, k) p^k summed in integers for any n and d, the
large-n asymptotics, and the Chebyshev tail.

E(R) is one sum, which every route shares.  The closed-form and the
factorial-moment variances are deliberately independent code paths; the
tests hold them against each other, and every moment against
exact_moments_rational, a rational evaluation over the binomial pmf.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class UnsupportedDimensionError(ValueError):
    """No closed form is implemented for this dimension."""


class CutModel(NamedTuple("CutModel", [("n", int), ("p", float), ("d", int)])):
    """n attempted cuts, each kept with probability p, in dimension d.

    p is stored as p + 0.0: -0.0 becomes 0.0, so no moment is -0.0.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: float, d: int):
        if n < 1:
            raise ValueError(f"cut count must be positive, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        if d < 1:
            raise ValueError(f"dimension must be at least 1, got {d}")
        return super().__new__(cls, n, p + 0.0, d)


class RegionMoments(NamedTuple):
    """Moments of the region count plus the route that produced them.

    second_moment is None when the route does not define one (the
    asymptotic route only approximates the variance).  method is one of
    "exact", "closed_form", "asymptotic".
    """

    mean: float
    variance: float
    second_moment: float | None
    method: str


def expected_regions(model: CutModel) -> float:
    """E(R) = sum_{i=0}^{d} C(n, i) p^i, correctly rounded, for any dimension.

    Each i-way intersection of cuts survives with probability p^i and
    contributes one region; i = 0 is the uncut volume.  This is the mean
    of moments_exact summed alone, with its stop rule and OverflowError.
    """
    return _factorial_moments(model, mean_only=True).mean


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
    """Leading-order variance as n grows at fixed d, where its form holds.

    R ~ X^d / d!, so V(R) ~ n^(2d-1) p^(2d-1) q / ((d-1)!)^2 with
    q = 1 - p: n p q (the exact variance) at d = 1, n^3 p^3 q at d = 2
    and n^5 p^5 q / 4 at d = 3.  It is 0.0 at p = 0 and p = 1.

    The form's corrections are of relative order d^2 / (n p), so it is
    answered only at d = 1 or where d^2 <= n p, decided exactly from
    p = u / v; elsewhere, as near d = n, where R = 2^X, it raises
    UnsupportedDimensionError.  Inside that domain it stays within a
    factor of 3 of moments_exact's variance on the tests' grid of
    n <= 3000 and d < 60 (2.52 at worst).

    The size is decided in logs before any power or factorial is built,
    and past the float range this raises OverflowError.  Otherwise the
    form is one integer, (n u)^(2d-1) (v - u), over another,
    v^(2d) ((d-1)!)^2, rounded once, correctly.
    """
    n, p, d = model
    if p == 0.0 or p == 1.0:
        return 0.0
    u, v = p.as_integer_ratio()
    if d > 1 and d * d * v > n * u:
        raise UnsupportedDimensionError(f"asymptotic variance needs d = 1 or d^2 <= n p, got d = {d}")
    k = 2 * d - 1
    log_v = k * (math.log(n) + math.log(p)) + math.log1p(-p) - 2 * math.lgamma(d)
    if log_v > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"the variance at d = {d} is about 10^{log_v / math.log(10):.0f}, past the float range"
        )
    return _over((n * u) ** k * (v - u), v ** (k + 1) * math.factorial(d - 1) ** 2)


def exact_moments_rational(n: int, p: Fraction, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(E(R), E(R^2), V(R)) in exact rational arithmetic, over the pmf.

    Slow but indisputable; meant for holding the floating-point routes
    to account at small n.
    """
    from fractions import Fraction

    from maxdiv.geometry import max_regions

    if not isinstance(p, Fraction):
        raise TypeError("p must be a Fraction for the rational route")
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    a, b = p.numerator, p.denominator
    if a == b:  # p = 1: all the mass sits at x = n
        r = Fraction(max_regions(n, d))
        return r, r * r, Fraction(0)
    # weight x is C(n, x) a^x (b - a)^(n - x) / b^n: integer sums, one division;
    # weight x + 1 is weight x times (n - x) a / ((x + 1)(b - a)), exactly
    weight, mean, second = (b - a) ** n, 0, 0
    for x in range(n + 1):
        r = max_regions(x, d)
        mean += weight * r
        second += weight * r * r
        weight = weight * (n - x) * a // ((x + 1) * (b - a))
    mean, second = Fraction(mean, b**n), Fraction(second, b**n)
    return mean, second, second - mean * mean


def _over(numerator: int, denominator: int) -> float:
    """numerator / denominator, correctly rounded, or inf past the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


def moments_exact(model: CutModel) -> RegionMoments:
    """Moments from the factorial moments E C(X, k) = C(n, k) p^k, for any n.

    E(R) = sum_{k<=d} C(n, k) p^k and E(R^2) = sum_{k<=2d} N_k C(n, k) p^k,
    with N_k the pairs (A, B) of subsets of a k-set that cover it with
    |A|, |B| <= d: 3^k up to k = d, then N_{k+1} = 3 N_k - C(k, d)
    (4 S(d, 2d - k) - C(d, 2d - k)), S(d, s) = sum_{j<=s} C(d, j), as an
    added element joins A, B or both, which only a side of d refuses.
    With p = u / v the sums and V(R) = E(R^2) - E(R)^2 are integers over
    one power of v, each rounded once, correctly; V(R) is 0.0 at p = 1.

    The sum stops once the rest, below 3^k C(n, k) p^k when the ratio
    3 (n - k) p / (k + 1) of that bound is under 1/2, is below 2^-1100 of
    E(R).  A mean past the float range raises OverflowError, decided in
    logs from its largest term before any big integer is built; a second
    moment or variance past it is inf, and its sum is skipped where a
    lower bound of V(R) in logs is past it already.
    """
    return _factorial_moments(model, mean_only=False)


def _factorial_moments(model: CutModel, mean_only: bool) -> RegionMoments:
    """moments_exact's moments; with mean_only, the mean alone and inf for the rest."""
    n, p, d = model
    if p == 0.0:  # X = 0 for certain
        return RegionMoments(mean=1.0, variance=0.0, second_moment=1.0, method="exact")
    u, v = p.as_integer_ratio()
    k = min(d, (n + 1) * u // (u + v))  # the largest mean term, unless d is smaller
    if k:
        # C(n, k) >= (n - k + 1)^k / k! and k! <= e k^(k + 1/2) e^-k
        log_term = k * (math.log(n - k + 1) - math.log(k) + math.log(p) + 1) - math.log(k) / 2 - 1
        if log_term > _LOG_FLOAT_MAX:
            raise OverflowError(
                f"the mean at d = {d} is above 10^{log_term / math.log(10):.0f}, past the float range"
            )
        # V(R) >= Cov(R, X)^2 / V(X) = (1 - p) (sum_{i<=d} i C(n, i) p^i)^2 / (n p)
        mean_only = mean_only or (p < 1.0 and (math.log1p(-p) + 2 * (math.log(k) + log_term)
                                               - math.log(n) - math.log(p) > _LOG_FLOAT_MAX))
    f, top = (1, min(n, d)) if mean_only else (3, min(n, 2 * d))
    shift = v.bit_length() - 1  # v = 2^shift
    c = count = term = 1  # C(n, k) u^k, N_k and N_k C(n, k) u^k
    mean = second = 0  # over v^k
    for k in range(top + 1):
        mean = (mean << shift) + (c if k <= d else 0)
        if not mean_only:
            second = (second << shift) + term
        # the ratio is below 1/2, and f^k c < 2^-1100 mean by their bits
        if k == top or (2 * f * (n - k) * u < (k + 1) * v
                        and (f**k).bit_length() + c.bit_length() + 1100 < mean.bit_length()):
            break
        step = (n - k) * u
        c = c * step // (k + 1)
        if mean_only:
            continue
        if k < d:  # N_{k+1} = 3 N_k
            count, term = 3 * count, term * (3 * step) // (k + 1)
            continue
        # N_{k+1} from C(k, d), C(d, s) and S(d, s) at s = 2d - k
        if k == d:
            binom, row, head = 1, 1, 1 << d
        else:
            binom, row, head = binom * k // (k - d), row * (2 * d - k + 1) // (k - d), head - row
        count = 3 * count - binom * (4 * head - row)
        term = count * c
    scale = 1 << shift * k
    if mean_only:
        second = variance = math.inf
    else:
        second, variance = _over(second, scale), _over(second * scale - mean * mean, scale * scale)
    mean = _over(mean, scale)
    if mean == math.inf:
        raise OverflowError(f"the mean at d = {d} is past the float range")
    return RegionMoments(mean=mean, variance=variance, second_moment=second, method="exact")


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
    """Exact mean with the leading-order variance; no second moment.

    The variance is variance_asymptotic's: correctly rounded, answered
    only at d = 1 or d^2 <= n p, where the form's corrections of relative
    order d^2 / (n p) are small (within a factor of 3 of the exact
    variance on the tests' grid), and refused elsewhere.
    """
    return RegionMoments(
        mean=expected_regions(model),
        variance=variance_asymptotic(model),
        second_moment=None,
        method="asymptotic",
    )


def chebyshev_tail(model: CutModel, lam: float) -> float:
    """Chebyshev bound on P(|R - E(R)| >= lam), capped at 1, from the exact route's variance."""
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
