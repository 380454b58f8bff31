"""Maximal division of a disk: piece areas, fairness optima, and the
moments and normal limit of the random region count.

The package root imports none of its modules, so that a command needing
only part of the package loads only that part.
"""

import math

__version__ = "0.1.0"

#: Largest cut count n with n(n - 1) <= 2^63 - 1, so that the region
#: count 1 + x + x(x - 1)/2 of any draw x <= n is computed in int64
#: without overflow.  Defined here, not in ``maxdiv.clt``, so that the
#: command line can bound ``clt --n`` without loading the sampler.
MAX_CUTS = (1 + math.isqrt(4 * (2**63 - 1) + 1)) // 2

#: Most samples ``clt`` draws in one run.  ``clt`` keeps only a
#: histogram of the draws, so its memory does not grow with the sample
#: count and the bound limits time: ``clt --n 10^7`` with this many
#: samples took 0.6-0.9 s on a 2-vCPU x86-64 VM, with a peak RSS of
#: 31.7-31.9 MiB.  Defined here for the same reason as MAX_CUTS.
MAX_SAMPLES = 30_000_000

#: Largest stream seed: ``clt`` keys a 128-bit counter-based stream with
#: the seed itself, so every seed in [0, MAX_SEED] names its own stream.
#: Defined here for the same reason as MAX_CUTS.
MAX_SEED = 2**128 - 1
