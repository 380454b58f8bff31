"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the maxdiv modules from the
outside: the program itself holds no tracing code.  A wrapped function
records one span per call (name, start, end, parent span, job id) and,
for a few names, a count computed from its inputs or result.  Spans
stay in memory and are written out once, when the traced process ends.

A listed name the program no longer has is reported as missing, so the
traced run keeps working across refactors of the package.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc

# Public functions wrapped, per module.  Each one is replaced in its own
# module and in every maxdiv module that imported it by name, so calls
# from `cli` into `geometry` are recorded just like calls from
# `fairness` into `geometry`.  Helpers called once per enumeration term
# (region_count, ...) are left alone: a span per call would cost more
# than the work.  area_profile is wrapped although `fairness.scan` calls
# it once per grid row, because its time and call count are layer
# metrics; so the traced `fairness.scan` time includes one span per row.
TRACED = {
    "geometry": (
        "area_profile",
        "max_regions",
        "random_chord_set",
        "validate_chord_set",
        "count_regions_geometric",
    ),
    "fairness": ("scan", "minimize_sd", "minimize_mad", "maximize_min_piece"),
    "moments": (
        "moments_exact",
        "moments_closed_form",
        "moments_asymptotic",
        "variance_exact",
        "expected_regions",
        "variance_closed_form",
    ),
    "clt": ("rinott_terms", "threshold_check", "sample_region_counts", "ks_distance"),
}

# Calls whose tracemalloc peak is recorded.
PEAK_BYTES = {"clt.sample_region_counts", "clt.ks_distance"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _cdf_entries(args, kwargs, result):
    # sample_region_counts(n, p, m, seed) builds a CDF over 0..n unless p is 0 or 1
    n, p = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "p")
    return n + 1 if 0.0 < p < 1.0 else 0


def _enum_terms(args, kwargs, result):
    # moments_exact(model) sums n + 1 binomial terms unless p is 0 or 1
    model = _arg(args, kwargs, 0, "model")
    return model.n + 1 if 0.0 < model.p < 1.0 else 0


# Counts computed from a call's inputs or result, recorded with its span.
COUNTS = {
    "fairness.scan": lambda args, kwargs, result: len(result),
    "clt.sample_region_counts": _cdf_entries,
    "moments.moments_exact": _enum_terms,
}


class Recorder:
    """Holds the spans of one traced process."""

    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent_index, job, count, peak_bytes]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.job = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.job, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def wrap(self, name: str, fn):
        stack = self._stack
        count = COUNTS.get(name)
        peak = name in PEAK_BYTES
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            own_trace = peak and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if own_trace:
                    record[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        record = self._open(name)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, traced=TRACED) -> None:
        """Wrap every listed public function of the loaded maxdiv modules.

        Modules the process has not imported are skipped; a listed name
        that a loaded module lacks is recorded as missing.
        """
        loaded = {
            key: module
            for key, module in sys.modules.items()
            if key == "maxdiv" or key.startswith("maxdiv.")
        }
        for short, names in traced.items():
            module = loaded.get(f"maxdiv.{short}")
            for attr in names:
                if attr.startswith("_"):
                    raise ValueError(f"refusing to trace private name {short}.{attr}")
                if module is None:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{short}.{attr}")
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for holder in loaded.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": self.spans, "missing": self.missing}))


def load(paths) -> tuple[list[list], list[str]]:
    """Concatenate the spans of several dump files, fixing parent indices."""
    spans: list[list] = []
    missing: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        base = len(spans)
        for record in data["spans"]:
            record[3] = record[3] + base if record[3] >= 0 else -1
            spans.append(record)
        missing.update(data["missing"])
    return spans, sorted(missing)


OPTIMIZERS = {"fairness.minimize_sd", "fairness.minimize_mad", "fairness.maximize_min_piece"}


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-job layer figures from the spans of `jobs` traced jobs.

    Times are seconds per job, counts are per job, peaks are the largest
    seen.  A layer the workload never calls reads 0.
    """
    duration = [(s[2] - s[1]) / 1e9 for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]

    def under(i: int, names) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    peaks: dict[str, int] = {}
    self_time: dict[str, float] = {}
    optimize_evals = 0
    sampling_validations = 0
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + duration[i]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
        if s[5] is not None:
            counted[name] = counted.get(name, 0) + s[5]
        if s[6] is not None:
            peaks[name] = max(peaks.get(name, 0), s[6])
        if name == "geometry.area_profile" and under(i, OPTIMIZERS):
            optimize_evals += 1
        if name == "geometry.validate_chord_set" and s[3] >= 0 and spans[s[3]][0] == "geometry.random_chord_set":
            sampling_validations += 1

    per_job = max(jobs, 1)
    arrangements = calls.get("geometry.random_chord_set", 0)
    return {
        "cli.self_s": self_time.get("cli.main", 0.0) / per_job,
        "fairness.scan_s": total.get("fairness.scan", 0.0) / per_job,
        "fairness.scan_rows": counted.get("fairness.scan", 0) / per_job,
        "geometry.area_profile_s": total.get("geometry.area_profile", 0.0) / per_job,
        "geometry.area_profile_calls": calls.get("geometry.area_profile", 0) / per_job,
        "fairness.optimize_s": sum(total.get(n, 0.0) for n in OPTIMIZERS) / per_job,
        "fairness.optimize_evals": optimize_evals / per_job,
        "clt.sample_s": total.get("clt.sample_region_counts", 0.0) / per_job,
        "clt.cdf_entries": counted.get("clt.sample_region_counts", 0) / per_job,
        "clt.sample_peak_bytes": peaks.get("clt.sample_region_counts", 0),
        "clt.ks_s": total.get("clt.ks_distance", 0.0) / per_job,
        "clt.ks_peak_bytes": peaks.get("clt.ks_distance", 0),
        "clt.terms_s": (total.get("clt.rinott_terms", 0.0) + total.get("clt.threshold_check", 0.0)) / per_job,
        "moments.exact_s": total.get("moments.moments_exact", 0.0) / per_job,
        "moments.enum_terms": counted.get("moments.moments_exact", 0) / per_job,
        "moments.closed_s": total.get("moments.moments_closed_form", 0.0) / per_job,
        "geometry.chord_sampling_s": self_time.get("geometry.random_chord_set", 0.0) / per_job,
        "geometry.validate_calls": calls.get("geometry.validate_chord_set", 0) / per_job,
        "geometry.sample_accept_ratio": arrangements / sampling_validations if sampling_validations else 0.0,
        "geometry.count_regions_s": total.get("geometry.count_regions_geometric", 0.0) / per_job,
    }
