"""Maximal division of a disk: piece areas, fairness optima, and the
moments and normal limit of the random region count.

The names in ``__all__`` come from ``maxdiv.geometry``, which is
imported on first access, so that a command needing only part of the
package loads only that part.
"""

import math

__all__ = [
    "ARC_MAX",
    "AreaProfile",
    "Chord",
    "ChordSet",
    "area_circular_trapezoid",
    "area_circular_triangle",
    "area_profile",
    "area_triangle",
    "count_regions_geometric",
    "max_regions",
    "random_chord_set",
]

__version__ = "0.1.0"

#: Largest cut count n with n(n - 1) <= 2^63 - 1, so that the region
#: count 1 + x + x(x - 1)/2 of any draw x <= n is computed in int64
#: without overflow.  Defined here, not in ``maxdiv.clt``, so that the
#: command line can bound ``clt --n`` without loading the sampler.
MAX_CUTS = (1 + math.isqrt(4 * (2**63 - 1) + 1)) // 2

#: Most samples ``clt`` draws in one run.  A run's peak RSS grew by
#: 25.8 bytes per sample above about 38 MiB (measured at 10^6 and 10^7
#: samples, n = 10^7), so the bound keeps it near 0.8 GiB.  Defined
#: here for the same reason as MAX_CUTS.
MAX_SAMPLES = 30_000_000


def __getattr__(name: str):
    if name in __all__:
        from maxdiv import geometry

        value = globals()[name] = getattr(geometry, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
