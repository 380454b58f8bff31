"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output
is correct.  The references are independent of the package: formulas
are evaluated here in exact rational arithmetic where the paper gives
them, and the fixed values come from the acceptance suite.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

ARC_MAX = math.pi / 3
FAIR_SHARE = math.pi / 7

FAIRNESS_HEADER = "x,alpha1,alpha2,alpha3,sd,mad,min_piece"
CLT_HEADER = "n,p,samples,seed,term1,term2,term3,max_term,margin,in_clt_regime,ks_distance,mean,sigma"

# Acceptance-suite optima (tests/test_acceptance.py, criteria 02-04).
MAD_GLOBAL = (0.96976, (0.00779, 0.44880, 0.59581))
MAD_LOCAL = (0.45061, (0.44880, 0.09399, 0.80361))

# Kolmogorov-Smirnov acceptance: the DKW inequality puts the empirical
# CDF of m draws within sqrt(ln(2/alpha) / (2m)) of the true CDF with
# probability 1 - alpha.  The normal approximation error at n = 10^7 is
# far below that, so a larger distance means the sampler is broken.
KS_ALPHA = 1e-6

# Relative tolerance between the enumeration and closed-form routes.
MOMENTS_RTOL = 1e-9

# Rounding of one float operation, for the cancellation bound below.
EPS = sys.float_info.epsilon


def _rel(got: float, want: float) -> float:
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


def _printed_close(got: float, want: float, rel: float = 1e-9) -> bool:
    """True if a value printed with ten decimals matches `want` to `rel`."""
    return abs(got - want) <= max(rel * abs(want), 1e-10)


def region_count(x: int, d: int) -> int:
    return sum(math.comb(x, i) for i in range(d + 1))


def dkw_bound(samples: int, alpha: float = KS_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


# --- cli-cold -------------------------------------------------------------

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def load_reference(name: str) -> tuple[bytes, bytes]:
    with open(os.path.join(REF_DIR, f"{name}.out"), "rb") as out, open(
        os.path.join(REF_DIR, f"{name}.err"), "rb"
    ) as err:
        return out.read(), err.read()


def check_reference(stdout: bytes, stderr: bytes, reference: tuple[bytes, bytes]) -> list[str]:
    problems = []
    if stdout != reference[0]:
        problems.append("stdout differs from the recorded reference")
    if stderr != reference[1]:
        problems.append("stderr differs from the recorded reference")
    return problems


# --- fairness-fine --------------------------------------------------------

_FLAGS = {"true": 1.0, "false": 0.0}


def _summary(stderr: str) -> dict[str, list[dict[str, float]]]:
    entries: dict[str, list[dict[str, float]]] = {}
    for line in stderr.splitlines():
        name, _, rest = line.partition(": ")
        fields = {}
        for token in rest.split():
            key, _, value = token.partition("=")
            fields[key] = _FLAGS[value] if value in _FLAGS else float(value)
        entries.setdefault(name, []).append(fields)
    return entries


def check_fairness(stdout: bytes, stderr: bytes, grid: int) -> list[str]:
    problems: list[str] = []
    lines = stdout.decode("utf-8").split("\n")
    if lines[-1] != "":
        problems.append("stdout does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != FAIRNESS_HEADER:
        return problems + ["missing or wrong CSV header"]
    rows = lines[1:]
    if len(rows) != grid:
        problems.append(f"{len(rows)} rows, expected {grid}")
    for i, line in enumerate(rows):
        try:
            x, a1, a2, a3, sd, mad, smallest = (float(v) for v in line.split(","))
        except ValueError:
            problems.append(f"row {i} is not seven numbers")
            break
        bad = []
        if abs(x - ARC_MAX * i / (grid - 1)) > 1e-10:
            bad.append("x")
        if abs(a1 + 3 * a2 + 3 * a3 - math.pi) > 1e-9:
            bad.append("conservation")
        areas = (a1, a2, a2, a2, a3, a3, a3)
        if abs(sd - math.sqrt(sum((a - FAIR_SHARE) ** 2 for a in areas) / 7)) > 1e-9:
            bad.append("sd")
        if abs(mad - sum(abs(a - FAIR_SHARE) for a in areas) / 7) > 1e-9:
            bad.append("mad")
        if smallest != min(a1, a2, a3):
            bad.append("min_piece")
        if bad:
            problems.append(f"row {i}: {', '.join(bad)} wrong")
            break

    try:
        summary = _summary(stderr.decode("utf-8"))
        sd_min, = summary["sd_min"]
        mad_global, = summary["mad_global"]
        mad_local, = summary["mad_local"]
        maximin, = summary["maximin"]
    except (KeyError, ValueError):
        return problems + ["optimum summary lacks one of sd_min, mad_global, one mad_local, maximin"]

    if not (
        abs(sd_min["x_star"] - ARC_MAX) <= 1e-9
        and sd_min["at_boundary"] == 1.0
        and abs(sd_min["objective"] - math.pi / math.sqrt(294)) <= 1e-9
        and abs(sd_min["alpha1"]) <= 1e-9
        and abs(sd_min["alpha2"] - math.pi / 6) <= 1e-9
        and abs(sd_min["alpha3"] - math.pi / 6) <= 1e-9
    ):
        problems.append("sd minimum is not pi/sqrt(294) at x = pi/3")
    for label, entry, (x_ref, areas_ref) in (
        ("mad global", mad_global, MAD_GLOBAL),
        ("mad local", mad_local, MAD_LOCAL),
    ):
        areas = (entry["alpha1"], entry["alpha2"], entry["alpha3"])
        if abs(entry["x_star"] - x_ref) > 1e-3 or any(
            abs(got - want) > 5e-4 for got, want in zip(areas, areas_ref)
        ):
            problems.append(f"{label} minimum is not at x = {x_ref}")
    if not (
        abs(maximin["alpha1"] - maximin["alpha2"]) <= 1e-8
        and abs(maximin["objective"] - 0.20) <= 0.01
        and abs(maximin["alpha3"] - 0.78) <= 0.01
    ):
        problems.append("maximin is not at the equal-smallest-piece crossing")
    return problems


# --- clt-wide -------------------------------------------------------------

def exact_moments(n: int, p: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """(E(R), V(R)) for R = sum_{i<=d} C(X, i), X ~ Bin(n, p), exactly.

    Uses E[C(X, k)] = C(n, k) p^k and the product rule
    C(x, i) C(x, j) = sum_k C(k, i) C(i, k - j) C(x, k).
    """
    factorial_moment = [math.comb(n, k) * p**k for k in range(2 * d + 1)]
    mean = sum(factorial_moment[: d + 1])
    second = Fraction(0)
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(max(i, j), i + j + 1):
                second += math.comb(k, i) * math.comb(i, k - j) * factorial_moment[k]
    return mean, second - mean * mean


def check_clt(stdout: bytes, n: int, p: float, samples: int, seed: int) -> list[str]:
    lines = stdout.decode("utf-8").split("\n")
    if len(lines) != 3 or lines[0] != CLT_HEADER or lines[2] != "":
        return ["output is not one CSV header and one row"]
    fields = dict(zip(CLT_HEADER.split(","), lines[1].split(",")))
    problems: list[str] = []
    if (fields["n"], fields["samples"], fields["seed"]) != (str(n), str(samples), str(seed)) or float(
        fields["p"]
    ) != p:
        problems.append("echoed parameters differ from the request")
    try:
        values = {k: float(v) for k, v in fields.items() if k != "in_clt_regime"}
    except ValueError:
        return problems + ["a numeric field does not parse"]

    mean, variance = exact_moments(n, Fraction(p), 2)
    if Fraction(fields["mean"]) != mean:
        problems.append(f"mean {fields['mean']} is not the exact {mean}")
    sigma = math.sqrt(variance)
    if not _printed_close(values["sigma"], sigma):
        problems.append(f"sigma {values['sigma']!r} differs from exact {sigma!r}")
    ks, bound = values["ks_distance"], dkw_bound(samples)
    if not 0.0 < ks < bound:
        problems.append(f"ks_distance {ks!r} outside (0, {bound!r})")

    degree = 4 * n
    terms = (
        (n * n + 1) * degree**2 / sigma**3,
        math.sqrt((n * n + 1) * degree**3) / sigma**2,
        degree / sigma,
    )
    for name, want in zip(("term1", "term2", "term3"), terms):
        if not _printed_close(values[name], want):
            problems.append(f"{name} {values[name]!r} differs from {want!r}")
    if not _printed_close(values["max_term"], max(terms)):
        problems.append("max_term is not the largest term")
    margin = p * (1 - p) ** (1 / 3) * n ** (1 / 9)
    if not _printed_close(values["margin"], margin):
        problems.append(f"margin {values['margin']!r} differs from {margin!r}")
    if fields["in_clt_regime"] != ("true" if margin > 1 else "false"):
        problems.append("in_clt_regime disagrees with the margin")
    return problems


# --- exact-checks ---------------------------------------------------------

def cancellation_bound(enumerated: list[float], mean: Fraction, second: Fraction) -> Fraction:
    """Twice the largest error that computing the variance as
    second - mean^2 from the enumerated mean and second moment can leave.

    The subtraction passes on the errors of both moments and adds a few
    roundings of the second moment's size.  When the variance is small
    against the second moment this is far above MOMENTS_RTOL of the
    variance, which is the known defect; a variance that is wrong in
    any other way lies outside it.
    """
    got_mean, _, got_second = (Fraction(v) for v in enumerated)
    propagated = abs(got_second - second) + abs(got_mean * got_mean - mean * mean)
    return 2 * (propagated + 4 * EPS * second)


def check_exact_job(job: dict) -> tuple[list[str], bool]:
    """Problems with one exact-checks job, and whether they are all the
    known cancellation in the enumeration route's variance.

    The enumeration route must agree with the closed form to
    MOMENTS_RTOL.  A disagreement is attributed to the enumeration route's
    cancellation only if the closed form matches the exact rational
    value, the enumerated mean and second moment agree, and the
    enumerated variance is off by no more than cancellation_bound.
    Anything else is unexpected.
    """
    if job.get("error"):
        return [f"job raised {job['error']}"], False
    problems: list[str] = []
    known = True
    names = ("mean", "variance", "second_moment")
    mean, variance = exact_moments(job["n"], Fraction(job["p"]), job["d"])
    second = variance + mean * mean
    for name, enumerated, closed, exact in zip(names, job["exact"], job["closed"], (mean, variance, second)):
        if _rel(closed, float(exact)) > MOMENTS_RTOL:
            problems.append(f"closed-form {name} {closed!r} differs from exact {float(exact)!r}")
            known = False
        if _rel(enumerated, closed) > MOMENTS_RTOL:
            problems.append(f"enumerated {name} {enumerated!r} differs from closed form {closed!r}")
            known = known and name == "variance"
    if known and problems:
        error = abs(Fraction(job["exact"][1]) - variance)
        if error > cancellation_bound(job["exact"], mean, second):
            problems.append(
                f"enumerated variance is off by {float(error / variance):.3g} relative,"
                " more than second - mean^2 cancellation can leave"
            )
            known = False
    expected = region_count(job["chords"], 2)
    if job["regions"] != expected:
        problems.append(f"{job['regions']} regions for {job['chords']} chords, expected {expected}")
        known = False
    return problems, known and bool(problems)
