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
normal CDF.  Inversion runs over moments._binomial_window, the window
of O(sqrt(n)) outcomes that the exact moments route enumerates.  It is
sized by Hoeffding's inequality so that every outcome left out has
probability below 2^-1100, under the smallest positive float64
(2^-1074), so the windowed CDF is the full CDF as float64 holds it.
The uniforms are drawn in chunks of CHUNK_DRAWS, and the KS run keeps
only how often each window outcome was drawn, so it costs
O(sqrt(n) + m) time and O(sqrt(n)) memory for m samples.

numpy is imported on first use, so importing this module, and with it
the command line, does not load numpy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from maxdiv import MAX_CUTS, MAX_SAMPLES, MAX_SEED
from maxdiv.moments import CutModel, _binomial_window, expected_regions, variance_closed_form

if TYPE_CHECKING:
    import numpy as np

#: Uniforms drawn and inverted at a time; bounds the sampler's working
#: memory at a few MiB whatever the sample count.
CHUNK_DRAWS = 1 << 16


class RinottTerms(NamedTuple):
    """The three Stein/Rinott error terms for the d = 2 region count.

    Attributes:
        term1: N * D^2 * B^3 / sigma^3.
        term2: sqrt(N * D^3 * B^4) / sigma^2.
        term3: D * B / sigma.

    N = n^2 + 1 summands, D = 4n bounds the dependency-graph degree,
    B = 1 bounds each summand, and sigma is the exact standard deviation
    of the region count.
    """

    term1: float
    term2: float
    term3: float

    @property
    def max_term(self) -> float:
        """The reported bound; no universal constant is applied."""
        return max(self.term1, self.term2, self.term3)


class ThresholdCheck(NamedTuple):
    in_clt_regime: bool
    margin: float


class NormalitySample(NamedTuple):
    """Result of one empirical normality experiment."""

    ks_distance: float
    mean: float
    sigma: float


def _require_nondegenerate(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} is not a number in [0, 1]")
    if p == 0.0 or p == 1.0:
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


def _refuse_overflow(fn):
    """fn, with a float64 overflow on a huge cut count n raised as a ValueError naming n."""

    @functools.wraps(fn)
    def checked(n, *args, **kwargs):
        try:
            return fn(n, *args, **kwargs)
        except OverflowError:
            raise ValueError(f"cut count {n} is too large for float64 arithmetic") from None

    return checked


@_refuse_overflow
def rinott_terms(n: int, p: float) -> RinottTerms:
    """Stein/Rinott error terms for n cuts kept with probability p.

    All three decay like n^{-1/2} at fixed p; the first dominates for
    p <= 1/2.
    """
    if n < 2:
        raise ValueError(f"need at least two cuts, got {n}")
    sigma = _exact_sigma(n, p)
    summands, degree, bound = n * n + 1, 4 * n, 1.0
    return RinottTerms(
        term1=summands * degree**2 * bound**3 / sigma**3,
        term2=math.sqrt(summands * degree**3 * bound**4) / sigma**2,
        term3=degree * bound / sigma,
    )


@_refuse_overflow
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


def _window_draws(n: int, p: float, m: int, seed: int) -> tuple[int, int, Iterator[np.ndarray]]:
    """(lo, size, chunks): draw i of n cuts kept with probability p is
    lo + index i of the concatenated chunks, an index into the size
    outcomes lo..lo + size - 1 of the window.

    Uniform number i of a counter-based stream keyed by the seed is
    inverted through the windowed CDF.  The chunks hold at most
    CHUNK_DRAWS indices.  The caller has checked n >= 1 and p strictly
    inside (0, 1); n <= MAX_CUTS, m and the seed are checked before
    anything is built.
    """
    if n > MAX_CUTS:
        raise ValueError(
            f"cut count {n} exceeds {MAX_CUTS}, the largest whose region counts fit in int64"
        )
    if not 1 <= m <= MAX_SAMPLES:
        raise ValueError(f"sample count must be in [1, {MAX_SAMPLES}], got {m}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^128 - 1], got {seed}")
    import numpy as np

    lo, cdf = _binomial_cdf(n, p)
    invert = _inverter(cdf, m)
    stream = np.random.Generator(np.random.Philox(key=seed))
    chunks = (invert(stream.random(min(CHUNK_DRAWS, m - start)))
              for start in range(0, m, CHUNK_DRAWS))
    return lo, cdf.size, chunks


def _inverter(cdf: np.ndarray, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """u -> np.searchsorted(cdf, u, side="left"), through a guide table
    sized for m uniforms in all.

    The guide table (Chen and Asau, 1974) holds the answer for each
    bucket edge j / g.  With g a power of two, u * g and j / g are exact,
    so a uniform u in bucket j has its answer between the answers
    guide[j] at j / g and guide[j + 1] at (j + 1) / g; where those agree,
    no search is needed, and where they differ by one, the answer is
    guide[j] + (u > cdf[guide[j]]).  Only the few uniforms in wider
    buckets are binary-searched.
    """
    import numpy as np

    g = 1 << min(cdf.size, m).bit_length()
    guide = np.searchsorted(cdf, np.arange(g + 1) / g, side="left")
    steps = guide[1:] != guide[:-1]

    def invert(uniforms: np.ndarray) -> np.ndarray:
        bucket = (uniforms * g).astype(np.intp)
        index = guide[bucket]
        hard = np.flatnonzero(steps[bucket])
        low, high = index[hard], guide[bucket[hard] + 1]
        index[hard] = low + (uniforms[hard] > cdf[low])
        wide = hard[high - low > 1]
        index[wide] = np.searchsorted(cdf, uniforms[wide], side="left")
        return index

    return invert


@_refuse_overflow
def sample_normality(n: int, p: float, m: int, seed: int) -> NormalitySample:
    """KS distance to the standard normal of m region counts for n cuts
    kept with probability p, in O(sqrt(n)) memory.

    Draw i is a pure function of (n, p, seed, i): uniform number i of a
    counter-based stream keyed by the seed, one of [0, 2^128 - 1],
    inverted through the binomial CDF.  Standardization uses the exact
    mean and standard deviation, never sample estimates.  The draws go
    into a histogram over the window, chunk by chunk, and the region
    count is computed only for the outcomes drawn; it increases with the
    outcome, so the histogram is already sorted.
    """
    sigma = _exact_sigma(n, p)
    lo, size, chunks = _window_draws(n, p, m, seed)
    import numpy as np

    counts = np.zeros(size, dtype=np.int64)
    for index in chunks:
        # counts over the chunk's own range, a small part of the window
        low = int(index.min())
        part = np.bincount(index - low)
        counts[low:low + part.size] += part
    x = lo + np.flatnonzero(counts)
    values = (1 + x + x * (x - 1) // 2).astype(np.float64)
    return _ks(values, counts[counts > 0], n, p, sigma)


def _ks(values: np.ndarray, counts: np.ndarray, n: int, p: float, sigma: float) -> NormalitySample:
    """KS distance of the sample holding counts[k] copies of values[k],
    for increasing values: the larger one-sided gap at each jump of the
    empirical CDF, exact for a step function."""
    import numpy as np

    mean = expected_regions(CutModel(n, p, 2))
    z = (values - mean) / sigma
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    cumulative = np.cumsum(counts)
    m = int(cumulative[-1])
    upper = float(np.max(cumulative / m - phi))
    lower = float(np.max(phi - (cumulative - counts) / m))
    return NormalitySample(
        ks_distance=max(upper, lower),
        mean=mean,
        sigma=sigma,
    )
