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
normal CDF.  Inversion runs over _binomial_window, a window of
O(sqrt(n)) outcomes sized by Hoeffding's inequality so that every
outcome left out has probability below 2^-1100, under the smallest
positive float64 (2^-1074), so the windowed CDF is the full CDF as
float64 holds it.
The uniforms are multiples of 2^-53, so the sampler keeps only the
outcomes a draw can reach (25 045 of 123 545 at n = 10^7, p = 1/2) and
frees the window before the first draw.  They are drawn in chunks of
CHUNK_DRAWS, each counted in place into a histogram over the kept
entries, and the KS run keeps only how often each outcome was drawn, so
it costs O(sqrt(n) + m) time and O(sqrt(n)) memory for m samples.  The
traced peak, 1.4 MiB at n = 10^7 and 25 MiB at MAX_CUTS, is set while the
window is built; at n = 10^7 with 10^6 samples the draws peak at 0.93 MiB
and the KS run at 0.34 MiB.

numpy is imported on first use, so importing this module, and with it
the command line, does not load numpy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from maxdiv import MAX_CUTS, MAX_SAMPLES, MAX_SEED
from maxdiv.moments import CutModel, expected_regions, variance_closed_form

if TYPE_CHECKING:
    import numpy as np

#: Uniforms drawn and inverted at a time; bounds the memory each chunk
#: takes beside the histogram at about 0.26 MiB whatever the sample count.
CHUNK_DRAWS = 1 << 13

#: Values whose normal CDF _ks evaluates at a time: a batch's z list and
#: its erfc list are small beside the arrays alive in the KS run.
_KS_BATCH = 1 << 10

# Hoeffding: P(|X - np| >= t) <= 2 exp(-2 t^2 / n), which is below
# 2^-1100 once t > sqrt(1101 ln(2) / 2) * sqrt(n).
_WINDOW_SCALE = math.sqrt(1101 * math.log(2) / 2)
_SQRT2 = math.sqrt(2.0)


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

    All three decay like n^{-1/2} at fixed p, and term1 > term2 > term3
    for every n and p answered: term2 / term1 = term3 / term2 =
    sigma / sqrt(N * D), and sigma^2 <= n^3 / 4 < N * D = 4n(n^2 + 1).
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


def _binomial_window(n: int, p: float) -> tuple[int, int]:
    """Outcomes [lo, hi] of Bin(n, p) that can carry float64 mass: every
    outcome outside is farther than _WINDOW_SCALE * sqrt(n) from np, so
    its probability is below 2^-1100.  The bounds are rounded outward.
    """
    t = _WINDOW_SCALE * math.sqrt(n)
    return max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))


def _binomial_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, CDF of Bin(n, p) on lo..hi) over the window of _binomial_window.

    The log-pmf relative to the mode follows the ratio recurrence
    log f(x+1) - log f(x) = log((n - x) / (x + 1)) + log(p / q), summed
    outward from the mode in each direction.  Normalizing by the
    window's sum makes the absolute constant log f(mode) unnecessary.
    All steps run in place, beside at most one half-window temporary.

    Every log and exp reads a contiguous array.  Read through a reversed
    view, they may round differently: with numpy 2.4.6 on an AVX-512
    x86-64 CPU, np.exp of a reversed view differed in the last bit from
    np.exp of the same values in order for 4683 of 10^5 arguments in
    [-700, 0], and np.log for 112 of 10^5 in (0, 10].  The bit-for-bit
    test of this function against the concatenated formula catches either.
    """
    import numpy as np

    lo, hi = _binomial_window(n, p)
    mode = math.floor((n + 1) * p)  # within 1 of np, so inside the window
    log_odds = math.log(p) - math.log1p(-p)
    cdf = np.zeros(hi - lo + 1)
    up, down = cdf[mode - lo + 1:], cdf[:mode - lo]
    x = np.arange(mode, hi, dtype=np.float64)
    np.divide(np.subtract(n, x, out=up), np.add(x, 1, out=x), out=up)
    del x
    np.log(up, out=up)
    up += log_odds
    np.cumsum(up, out=up)
    # the outcomes below the mode in increasing order, summed downward
    x = np.arange(lo, mode, dtype=np.float64)
    np.divide(np.add(x, 1, out=down), np.subtract(n, x, out=x), out=down)
    np.log(down, out=down)
    down -= log_odds
    np.cumsum(down[::-1], out=down[::-1])
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return lo, cdf


def _inverter(n: int, p: float, m: int) -> tuple[int, int, int, Callable[[np.ndarray], np.ndarray]]:
    """(lo, first, size, invert): invert(u) is an index in [0, size) for
    every u Generator.random returns, through a guide table sized for m
    uniforms.  Index 0 stands for outcome lo and index i >= 1 for outcome
    lo + first - 1 + i, and that outcome is lo + np.searchsorted(cdf, u)
    for (lo, cdf) = _binomial_cdf(n, p).

    Those u are multiples of 2^-53 in [0, 1 - 2^-53], so the entries
    kept run from first - 1 to the first of at least 1 - 2^-53, where
    first is the first entry of at least 2^-53, or 1 if that is entry 0,
    and the window is freed.  Only u = 0 falls at or below an entry under
    2^-53, so kept entry 0 takes what window entry 0 takes.

    The guide table (Chen and Asau, 1974) holds the answer for each
    bucket edge j / g, the number of entries below it.  g is the power
    of two above the number of kept entries, or above m if m is less,
    so the table is at most twice the kept CDF.  With g a power of two,
    u * g and j / g are exact, so a uniform u in bucket j has its answer
    between guide[j] and guide[j + 1], and guide[j] is a kept entry, as
    the last one is at least 1 - 2^-53 >= j / g.  Every uniform takes
    guide[j] + (u > cdf[guide[j]]), its answer wherever the two differ
    by at most one; only the uniforms in wider buckets are then
    binary-searched.  At n = 10^7, p = 1/2 (1.31 buckets per entry)
    those are 2.6 % of the uniforms; four times the buckets would cut
    that to 0.54 %, for a table of 1 MiB instead of 0.25 MiB.
    """
    import numpy as np

    lo, cdf = _binomial_cdf(n, p)
    first, last = np.searchsorted(cdf, (2.0**-53, 1.0 - 2.0**-53), side="left").tolist()
    first = max(first, 1)
    cdf = cdf[first - 1:last + 1].copy()
    g = 1 << min(cdf.size, m).bit_length()
    # entry i is below j / g for each j above its bucket floor(cdf[i] * g);
    # the last entry, at least 1 - 2^-53, fills the guide up to j = g or more
    guide = np.bincount((cdf * g).astype(np.intp) + 1)
    wide = guide[1:] > 1  # bucket j holds guide[j + 1] entries until the cumsum
    np.cumsum(guide, out=guide)

    def invert(uniforms: np.ndarray) -> np.ndarray:
        bucket = (uniforms * g).astype(np.intp)
        index = guide[bucket]
        index += uniforms > cdf[index]
        searched = np.flatnonzero(wide[bucket])
        index[searched] = np.searchsorted(cdf, uniforms[searched], side="left")
        return index

    return lo, first, cdf.size, invert


@_refuse_overflow
def sample_normality(n: int, p: float, m: int, seed: int) -> NormalitySample:
    """KS distance to the standard normal of m region counts for n cuts
    kept with probability p, in O(sqrt(n)) memory.

    Draw i is a pure function of (n, p, seed, i): uniform number i of a
    counter-based stream keyed by the seed, one of [0, 2^128 - 1],
    inverted through the binomial CDF.  Standardization uses the exact
    mean and standard deviation, never sample estimates.  The draws go
    into a histogram over the outcomes a draw can reach, chunk by chunk,
    and the region count is computed only for the outcomes drawn; it
    increases with the outcome, so the histogram is already sorted.
    """
    sigma = _exact_sigma(n, p)
    if n > MAX_CUTS:
        raise ValueError(
            f"cut count {n} exceeds {MAX_CUTS}, the largest whose region counts fit in int64"
        )
    if not 1 <= m <= MAX_SAMPLES:
        raise ValueError(f"sample count must be in [1, {MAX_SAMPLES}], got {m}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^128 - 1], got {seed}")
    import numpy as np

    lo, first, size, invert = _inverter(n, p, m)
    stream = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, m, CHUNK_DRAWS):
        np.add.at(counts, invert(stream.random(min(CHUNK_DRAWS, m - start))), 1)
    del invert  # its guide table and CDF would otherwise stay alive through the KS run
    x = np.flatnonzero(counts)
    counts = counts[x]
    # index 0 is outcome lo, index i >= 1 outcome lo + first - 1 + i
    x[int(x[0] == 0):] += first - 1
    x += lo
    values = (1 + x + x * (x - 1) // 2).astype(np.float64)
    del x  # nor the drawn outcomes
    return _ks(values, counts, n, p, sigma)


def _ks(values: np.ndarray, counts: np.ndarray, n: int, p: float, sigma: float) -> NormalitySample:
    """KS distance of the sample holding counts[k] copies of values[k],
    for increasing float64 values: the larger one-sided gap at each jump
    of the empirical CDF, exact for a step function.  values is consumed:
    the normal CDF of each value is written over it."""
    import numpy as np

    mean = expected_regions(CutModel(n, p, 2))
    phi = values
    phi -= mean
    phi /= sigma
    for start in range(0, phi.size, _KS_BATCH):  # not one float object per value at once
        phi[start:start + _KS_BATCH] = [0.5 * math.erfc(-v / _SQRT2)
                                        for v in phi[start:start + _KS_BATCH].tolist()]
    # exact: every partial sum is an integer below 2^53
    empirical = np.cumsum(counts, dtype=np.float64)
    empirical /= empirical[-1]
    # below value k the empirical CDF is that at value k - 1, or 0
    lower = float(np.max(phi[1:] - empirical[:-1], initial=phi[0]))
    empirical -= phi
    upper = float(np.max(empirical))
    return NormalitySample(
        ks_distance=max(upper, lower),
        mean=mean,
        sigma=sigma,
    )
