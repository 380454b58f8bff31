"""Normal-limit diagnostics for the region count of random maximal cuts.

Writing the d = 2 region count as R = 1 + X + sum_{i<j} I_i I_j exposes
a sum of n^2 + 1 indicator-style summands whose dependency graph is
sparse: each product I_i I_j shares an index with fewer than 4n others.
Stein's method in Rinott's form then bounds the distance to normality
by three terms built from the graph size N, the degree bound D, the
summand bound B, and the exact standard deviation sigma.  The universal
constant in front is unknown, so the terms are reported raw, never as
an absolute bound.

The empirical side draws region-count samples from exact binomial
inversion on a counter-based stream and measures the Kolmogorov-Smirnov
distance between the exactly standardized samples and the standard
normal CDF.  Inversion runs over a window of O(sqrt(n)) outcomes around
the mean, sized by Hoeffding's inequality so that every outcome left
out has probability below 2^-1100, under the smallest positive float64
(2^-1074).  The windowed CDF is therefore the full CDF as float64 holds
it, and sampling m values costs O(sqrt(n) + m) time and memory instead
of O(n + m).

numpy is imported on first use, so importing this module, and with it
the command line, does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from maxdiv import MAX_CUTS, MAX_SAMPLES
from maxdiv.moments import CutModel, expected_regions, variance_closed_form

if TYPE_CHECKING:
    import numpy as np

# Hoeffding: P(|X - np| >= t) <= 2 exp(-2 t^2 / n), which is below
# 2^-1100 once t > sqrt(1101 ln(2) / 2) * sqrt(n).
_WINDOW_SCALE = math.sqrt(1101 * math.log(2) / 2)


@dataclass(frozen=True)
class RinottTerms:
    """The three Stein/Rinott error terms for the d = 2 region count.

    Attributes:
        term1: N * D^2 * B^3 / sigma^3.
        term2: sqrt(N * D^3 * B^4) / sigma^2.
        term3: D * B / sigma.
        n_summands: N = n^2 + 1.
        max_degree: D = 4n, the dependency-graph degree bound.
        summand_bound: B = 1.
        sigma: exact standard deviation of the region count.
    """

    term1: float
    term2: float
    term3: float
    n_summands: int
    max_degree: int
    summand_bound: float
    sigma: float

    @property
    def max_term(self) -> float:
        """The reported bound; no universal constant is applied."""
        return max(self.term1, self.term2, self.term3)


class ThresholdCheck(NamedTuple):
    in_clt_regime: bool
    margin: float


@dataclass(frozen=True)
class NormalitySample:
    """Result of one empirical normality experiment."""

    n: int
    p: float
    sample_count: int
    seed: int | None
    ks_distance: float
    mean: float
    sigma: float


def _require_nondegenerate(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p!r} is degenerate (sigma = 0 at p = 0 or 1)")


def _exact_sigma(n: int, p: float) -> float:
    """Exact standard deviation of the d = 2 region count, refused when p
    is degenerate or when sigma^3 (and so possibly sigma) underflows to 0."""
    _require_nondegenerate(p)
    sigma = math.sqrt(variance_closed_form(CutModel(n, p, 2)))
    if sigma**3 == 0.0:
        raise ValueError(
            f"sigma = {sigma!r} at n = {n}, p = {p!r} is too small: sigma^3 underflows to 0"
        )
    return sigma


def rinott_terms(n: int, p: float) -> RinottTerms:
    """Stein/Rinott error terms for n cuts kept with probability p.

    All three decay like n^{-1/2} at fixed p; the first dominates for
    p <= 1/2.
    """
    if n < 2:
        raise ValueError(f"need at least two cuts, got {n}")
    sigma = _exact_sigma(n, p)
    n_summands = n * n + 1
    max_degree = 4 * n
    bound = 1.0
    return RinottTerms(
        term1=n_summands * max_degree**2 * bound**3 / sigma**3,
        term2=math.sqrt(n_summands * max_degree**3 * bound**4) / sigma**2,
        term3=max_degree * bound / sigma,
        n_summands=n_summands,
        max_degree=max_degree,
        summand_bound=bound,
        sigma=sigma,
    )


def threshold_check(n: int, p: float) -> ThresholdCheck:
    """Margin p(1-p)^{1/3} n^{1/9} deciding the CLT regime.

    Normality kicks in when the margin is large against 1; the boolean
    is the blunt margin > 1 reading of that condition.
    """
    if n < 1:
        raise ValueError(f"cut count must be positive, got {n}")
    _require_nondegenerate(p)
    margin = p * (1.0 - p) ** (1.0 / 3.0) * n ** (1.0 / 9.0)
    return ThresholdCheck(in_clt_regime=margin > 1.0, margin=margin)


def _binomial_window(n: int, p: float) -> tuple[int, int]:
    """Outcomes [lo, hi] of Bin(n, p) that can carry float64 mass.

    Every outcome outside is farther than t = _WINDOW_SCALE * sqrt(n)
    from the mean np, so by Hoeffding's inequality its probability is
    below 2^-1100, which rounds to 0.0 in float64.  The bounds are
    rounded outward.
    """
    t = _WINDOW_SCALE * math.sqrt(n)
    return max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))


def _binomial_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, CDF of Bin(n, p) on lo..hi) over the window of _binomial_window.

    The log-pmf relative to the mode follows the ratio recurrence
    log f(x+1) - log f(x) = log((n - x) / (x + 1)) + log(p / q), summed
    outward from the mode in each direction.  Normalizing by the
    window's sum makes the absolute constant log f(mode) unnecessary.
    """
    import numpy as np

    lo, hi = _binomial_window(n, p)
    mode = min(max(math.floor((n + 1) * p), lo), hi)
    log_odds = math.log(p) - math.log1p(-p)
    up = np.arange(mode, hi, dtype=np.float64)
    down = np.arange(mode - 1, lo - 1, -1, dtype=np.float64)
    log_up = np.cumsum(np.log((n - up) / (up + 1)) + log_odds)
    log_down = np.cumsum(np.log((down + 1) / (n - down)) - log_odds)
    cdf = np.cumsum(np.exp(np.concatenate((log_down[::-1], [0.0], log_up))))
    return lo, cdf / cdf[-1]


def _invert(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, uniforms, side="left"), through a guide table.

    The guide table (Chen and Asau, 1974) holds the answer for each
    bucket edge j / g.  With g a power of two, u * g and j / g are exact,
    so a uniform in bucket j has its answer between the answers at j / g
    and (j + 1) / g; where those agree, no search is needed.  Only the
    few uniforms in buckets that contain a CDF step are binary-searched.
    """
    import numpy as np

    g = 1 << min(cdf.size, uniforms.size).bit_length()
    guide = np.searchsorted(cdf, np.arange(g + 1) / g, side="left")
    bucket = (uniforms * g).astype(np.intp)
    index = guide[bucket]
    hard = np.flatnonzero((guide[1:] != guide[:-1])[bucket])
    index[hard] = np.searchsorted(cdf, uniforms[hard], side="left")
    return index


def sample_region_counts(n: int, p: float, m: int, seed: int) -> np.ndarray:
    """Draw m region counts for n cuts kept with probability p.

    Sample i is a pure function of (n, p, seed, i): uniform number i of
    a counter-based stream keyed by the seed feeds an inverse-CDF
    binomial draw, which then maps through the d = 2 region count.  Any
    partition of the index range therefore reproduces the same values,
    which is what makes parallel execution harmless.

    The inverse CDF covers only the O(sqrt(n)) outcomes within
    Hoeffding's window around np; the outcomes left out each have
    probability below 2^-1100, so the draws are those of the full
    float64 CDF.  n is capped at MAX_CUTS, beyond which region counts
    overflow int64, and m at MAX_SAMPLES, which bounds the memory.
    """
    if n < 1:
        raise ValueError(f"cut count must be positive, got {n}")
    if n > MAX_CUTS:
        raise ValueError(
            f"cut count {n} exceeds {MAX_CUTS}, the largest whose region counts fit in int64"
        )
    if not 1 <= m <= MAX_SAMPLES:
        raise ValueError(f"sample count must be in [1, {MAX_SAMPLES}], got {m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    import numpy as np

    if p == 0.0 or p == 1.0:
        x = np.full(m, n if p == 1.0 else 0, dtype=np.int64)
    else:
        stream = np.random.Generator(np.random.Philox(key=seed & (2**128 - 1)))
        lo, cdf = _binomial_cdf(n, p)
        x = lo + _invert(cdf, stream.random(m))
    return 1 + x + x * (x - 1) // 2


def ks_distance(samples, n: int, p: float, seed: int | None = None) -> NormalitySample:
    """Kolmogorov-Smirnov distance of exactly standardized samples to normal.

    Standardization uses the exact mean and standard deviation of the
    region count, never sample estimates.  The sup is taken over both
    one-sided gaps at every jump of the empirical CDF, which is exact
    for step functions; the normal CDF is evaluated once per distinct
    sample value.

    Args:
        samples: region counts, as from ``sample_region_counts``.
        n, p: the model that produced them.
        seed: recorded for provenance only; samples carry no seed.
    """
    import numpy as np

    sigma = _exact_sigma(n, p)
    values, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
    if values.size == 0:
        raise ValueError("need at least one sample")
    mean = expected_regions(CutModel(n, p, 2))
    z = (values - mean) / sigma
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    cumulative = np.cumsum(counts)
    m = int(cumulative[-1])
    upper = float(np.max(cumulative / m - phi))
    lower = float(np.max(phi - (cumulative - counts) / m))
    return NormalitySample(
        n=n,
        p=p,
        sample_count=m,
        seed=seed,
        ks_distance=max(upper, lower),
        mean=mean,
        sigma=sigma,
    )
