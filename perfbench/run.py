"""The maxdiv benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it imports the package from ./src
and writes scratch files to ./.bench_out.  Every workload is a closed
loop with one client: each job starts after the previous one ended.

Workloads (why each was chosen is in BENCHMARK.json):

    cli-cold       the four README commands, round-robin, each a fresh
                   `python -m maxdiv` child; output must match the
                   references in perfbench/refs byte for byte.
    fairness-fine  `fairness --grid 100000 --tol 1e-10` as a child.
    clt-wide       `clt --n 10000000 --p 0.5 --samples 1000000 --seed S`
                   as a child, S drawn from the workload seed.
    exact-checks   moments_exact against moments_closed_form, then
                   count_regions_geometric(random_chord_set(10, s)), in
                   one fresh worker process; inputs drawn from the seed.

With --trace 0 the run measures for --seconds (exact-checks for at
least EXACT_MIN_SECONDS), and for at least the workload's min_jobs
jobs, and reports the end-to-end metrics.  With
--trace 1 it runs a fixed job list twice, once plain and once with the
span recorder of perfbench/spans.py wrapping the package's public
functions, and reports the per-layer metrics.  The fixed list makes the
counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job fails on a non-zero
exit, a traceback, a timeout or a failed output check, and one failed
job makes `correct` false.  The one exception is the known cancellation
in the enumeration route's variance (see checks.check_exact_job): such
an exact-checks job is counted apart, as `known_defect` in the metadata
and as the per-layer count moments.cancelled_jobs, and not as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

# The tail is the highest sample with TAIL_BEYOND samples above it.
TAIL_BEYOND = 10
# Cold starts for setup_s.  A run measures one batch before its jobs,
# after one unmeasured start that writes the bytecode cache, and one
# batch after them, so that the median sees the same drift in CPU speed
# as the jobs do.
SETUP_STARTS = 3
# `python -X importtime` runs per traced run.
IMPORT_RUNS = 3

README_COMMANDS = {
    "fairness": ["fairness", "--grid", "1000", "--tol", "1e-10"],
    "moments": ["moments", "--n", "20", "--p", "0.3", "--dim", "3", "--method", "closed"],
    "clt": ["clt", "--n", "10000", "--p", "0.5", "--samples", "100000", "--seed", "1"],
    "oracle": ["oracle", "--n", "7", "--seeds", "0,1,2,3,4"],
}
FAIRNESS_GRID = 100000
CLT_N, CLT_P, CLT_SAMPLES = 10**7, 0.5, 10**6

# min_jobs is the least number of jobs in a timed run, which may make
# the run outlast --seconds.  Thirty-two 0.6-0.7 s cli-cold jobs put its
# tail at p68.75 in about 25 s; forty would reach p75 but make every
# cli-cold run about 6 s longer.  The 2 s jobs of fairness-fine and
# clt-wide fit only about ten into 15 s; sixteen keep their tail at p37.5
# or above, a central order statistic, instead of the run's fastest job,
# and make those runs last 30-50 s.  On a shared 2-vCPU VM the speed of
# the CPU drifted by 20-30 % within seconds, so exact-checks, whose jobs
# take 4-6 ms, measures for at least EXACT_MIN_SECONDS to get a window
# as long as the others and a steady median.
EXACT_MIN_SECONDS = 25
WORKLOADS = {
    "cli-cold": {"setup": "maxdiv.cli", "timeout": 20.0, "trace_jobs": 8, "min_jobs": 32},
    "fairness-fine": {"setup": "maxdiv.cli", "timeout": 40.0, "trace_jobs": 3, "min_jobs": 16},
    "clt-wide": {"setup": "maxdiv.cli", "timeout": 40.0, "trace_jobs": 3, "min_jobs": 16},
    "exact-checks": {"setup": "maxdiv.moments, maxdiv.geometry", "timeout": 5.0, "trace_jobs": 400,
                     "min_jobs": 16},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# --- child processes -------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAXDIV_")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], timeout: float) -> dict:
    """Run one child to completion; wall time, CPU and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "argv": argv,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "timed_out": timed_out,
            "stdout": out.read(),
            "stderr": err.read(),
        }


def measure_setup(modules: str, warm_up: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter until `modules` are imported."""
    code = f"import time\nimport {modules}\nprint(time.monotonic_ns())"
    starts = []
    for attempt in range(SETUP_STARTS + warm_up):
        spawned = time.monotonic_ns()
        result = run_child([sys.executable, "-c", code], timeout=60.0)
        if result["code"] != 0:
            raise BenchError(f"cannot import {modules}: {result['stderr'].decode(errors='replace')}")
        if attempt or not warm_up:
            starts.append((int(result["stdout"]) - spawned) / 1e9)
    return starts


# --- jobs ------------------------------------------------------------------

class Checker:
    """Checks child outputs, remembering verdicts on identical bytes."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple, list[str]] = {}

    def __call__(self, result: dict, argv: list[str], check) -> list[str]:
        if result["timed_out"]:
            return ["timed out"]
        if b"Traceback (most recent call last)" in result["stderr"]:
            return ["traceback on stderr"]
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        key = (
            tuple(argv),
            hashlib.sha256(result["stdout"]).digest(),
            hashlib.sha256(result["stderr"]).digest(),
        )
        if key not in self.verdicts:
            self.verdicts[key] = check(result["stdout"], result["stderr"])
        return self.verdicts[key]


def cli_jobs(workload: str, seed: int):
    """Endless (maxdiv argv, output check) stream for a CLI workload."""
    if workload == "cli-cold":
        references = {name: checks.load_reference(name) for name in README_COMMANDS}
        while True:
            for name, argv in README_COMMANDS.items():
                yield argv, (lambda out, err, ref=references[name]: checks.check_reference(out, err, ref))
    elif workload == "fairness-fine":
        argv = ["fairness", "--grid", str(FAIRNESS_GRID), "--tol", "1e-10"]
        while True:
            yield argv, (lambda out, err: checks.check_fairness(out, err, FAIRNESS_GRID))
    else:
        rng = random.Random(seed)
        while True:
            clt_seed = rng.randrange(2**32)
            argv = ["clt", "--n", str(CLT_N), "--p", str(CLT_P), "--samples", str(CLT_SAMPLES),
                    "--seed", str(clt_seed)]
            yield argv, (lambda out, err, s=clt_seed: checks.check_clt(out, CLT_N, CLT_P, CLT_SAMPLES, s))


def run_cli_job(argv: list[str], check, checker: Checker, timeout: float,
                spans_path: str | None = None, job: int = 0) -> dict:
    if spans_path is None:
        command = [sys.executable, "-m", "maxdiv", *argv]
    else:
        command = [sys.executable, WORKER, "cli", "--spans", spans_path, "--job", str(job), "--", *argv]
    result = run_child(command, timeout)
    result["problems"] = checker(result, argv, check)
    result["known"] = False
    result["output_bytes"] = len(result["stdout"]) + len(result["stderr"])
    del result["stdout"], result["stderr"]
    return result


def run_exact_worker(seed: int, timeout: float, *, seconds: float = 0.0, min_jobs: int = 1,
                     jobs: int | None = None, spans_path: str | None = None) -> tuple[list[dict], dict]:
    """Run exact-checks jobs in one fresh worker; returns (jobs, worker process)."""
    out_path = os.path.join(OUT_DIR, f"exact-{os.getpid()}.json")
    command = [sys.executable, WORKER, "exact", "--seed", str(seed), "--out", out_path,
               "--timeout", str(timeout)]
    if jobs is None:
        command += ["--seconds", str(seconds), "--min-jobs", str(min_jobs)]
        budget = seconds + 60.0
    else:
        command += ["--jobs", str(jobs)]
        budget = jobs * timeout + 60.0
    if spans_path:
        command += ["--spans", spans_path]
    process = run_child(command, budget)
    if process["code"] != 0:
        raise BenchError(f"exact-checks worker failed: {process['stderr'].decode(errors='replace')}")
    with open(out_path, encoding="utf-8") as handle:
        results = json.load(handle)
    os.remove(out_path)
    for job in results:
        job["problems"], job["known"] = checks.check_exact_job(job)
    return results, process


# --- statistics ------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise BenchError(f"{count} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def summarize(jobs: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, known defect, notes on the failures)."""
    failed = [job for job in jobs if job["problems"] and not job["known"]]
    notes = sorted({problem for job in failed for problem in job["problems"]})[:10]
    return len(jobs), len(failed), sum(job["known"] for job in jobs), notes


# --- metadata --------------------------------------------------------------

def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "maxdiv")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
    }


# --- the two kinds of run --------------------------------------------------

def timed_run(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict, dict]:
    spec = WORKLOADS[workload]
    setup = measure_setup(spec["setup"], warm_up=True)
    if workload == "exact-checks":
        jobs, process = run_exact_worker(seed, spec["timeout"], seconds=max(seconds, EXACT_MIN_SECONDS),
                                         min_jobs=spec["min_jobs"])
        rss = [process["rss_mb"]]
    else:
        checker = Checker()
        jobs = []
        start = time.perf_counter()
        for argv, check in cli_jobs(workload, seed):
            if len(jobs) >= spec["min_jobs"] and time.perf_counter() - start >= seconds:
                break
            jobs.append(run_cli_job(argv, check, checker, spec["timeout"]))
        rss = [job["rss_mb"] for job in jobs]
    setup += measure_setup(spec["setup"], warm_up=False)

    walls = [job["wall_s"] for job in jobs]
    tail_value, tail_pct = tail(walls)
    attempted, failed, _, _ = summarize(jobs)
    values = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "job_cpu_s.p50": statistics.median(job["cpu_s"] for job in jobs),
        "peak_rss_mb": max(rss),
    }
    samples = {
        "setup_s": {"samples": len(setup), "statistic": "median of cold starts"},
        "job_s.p50": {"samples": len(walls)},
        "job_s.tail": {"samples": len(walls), "percentile": tail_pct},
        "job_cpu_s.p50": {"samples": len(walls)},
        "peak_rss_mb": {"samples": len(rss), "statistic": "max of ru_maxrss"},
        "failed_ratio": {"value": failed / attempted, "unit": "1", "samples": attempted},
    }
    return jobs, values, samples


def import_metrics() -> dict[str, float]:
    """Layer `import`, from `python -X importtime -c "import maxdiv.cli"`."""
    runs = []
    for _ in range(IMPORT_RUNS):
        result = run_child([sys.executable, "-X", "importtime", "-c", "import maxdiv.cli"], 60.0)
        if result["code"] != 0:
            raise BenchError("python -X importtime -c 'import maxdiv.cli' failed")
        self_us: dict[str, int] = {}
        for line in result["stderr"].decode().splitlines()[1:]:
            if not line.startswith("import time:"):
                continue
            own, _, name = line[len("import time:"):].split("|")
            self_us[name.strip()] = self_us.get(name.strip(), 0) + int(own)

        def share(prefix: str) -> float:
            return sum(us for name, us in self_us.items()
                       if name == prefix or name.startswith(prefix + ".")) / 1e6

        runs.append({
            "import.total_s": sum(self_us.values()) / 1e6,
            "import.scipy_s": share("scipy"),
            "import.numpy_s": share("numpy"),
            "import.click_s": share("click"),
            "import.maxdiv_s": share("maxdiv"),
            "import.modules": len(self_us),
        })
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def traced_run(workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    spec = WORKLOADS[workload]
    count = spec["trace_jobs"]
    layer = import_metrics()
    span_paths = []
    if workload == "exact-checks":
        plain, _ = run_exact_worker(seed, spec["timeout"], jobs=count)
        span_paths.append(os.path.join(OUT_DIR, f"spans-{os.getpid()}-exact.json"))
        traced, _ = run_exact_worker(seed, spec["timeout"], jobs=count, spans_path=span_paths[0])
        output_bytes = 0.0
    else:
        checker = Checker()
        plain, traced = [], []
        for index, (argv, check) in zip(range(count), cli_jobs(workload, seed)):
            plain.append(run_cli_job(argv, check, checker, spec["timeout"]))
            span_paths.append(os.path.join(OUT_DIR, f"spans-{os.getpid()}-{index}.json"))
            traced.append(run_cli_job(argv, check, checker, spec["timeout"], span_paths[-1], index))
        output_bytes = statistics.fmean(job["output_bytes"] for job in traced)

    recorded, missing = spans.load(path for path in span_paths if os.path.exists(path))
    for path in span_paths:
        if os.path.exists(path):
            os.remove(path)
    layer.update(spans.layer_metrics(recorded, len(traced)))
    layer["cli.output_bytes"] = output_bytes
    layer["moments.cancelled_jobs"] = sum(job["known"] for job in plain)
    plain_p50 = statistics.median(job["wall_s"] for job in plain)
    traced_p50 = statistics.median(job["wall_s"] for job in traced)
    layer["trace.overhead_s"] = traced_p50 - plain_p50

    samples = {
        "jobs": count,
        "spans": len(recorded),
        "missing_spans": missing,
        "import_runs": IMPORT_RUNS,
        "tracing_overhead_s": layer["trace.overhead_s"],
        "job_s.p50_untraced": plain_p50,
        "job_s.p50_traced": traced_p50,
    }
    return plain + traced, layer, samples


# --- self-test -------------------------------------------------------------

# Job 47 of exact-checks seed 0, recorded when the benchmark was written:
# only the enumerated variance is off, by 3.8e-8, from the
# cancellation in second - mean^2 at p near 1.
CANCELLED_JOB = {
    "n": 780, "p": 0.9994203594553304, "d": 2, "chords": 10, "regions": 56, "error": None,
    "exact": [304238.4487676329, 274592.0532684326, 92561308300.58885],
    "closed": [304238.44876766717, 274592.0428211093, 92561308300.59924],
}


def _replace_field(text: bytes, line: int, field: int, value: str) -> bytes:
    lines = text.split(b"\n")
    cells = lines[line].split(b",")
    cells[field] = value.encode()
    lines[line] = b",".join(cells)
    return b"\n".join(lines)


def self_test() -> bool:
    """Show that every output check accepts real output and rejects corruptions."""
    outcomes = []

    def expect(label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        outcomes.append(ok)
        verdict = "rejects" if should_fail else "accepts"
        print(f"[{'PASS' if ok else 'FAIL'}] {verdict}: {label}" + (f" ({problems[0]})" if problems else ""))

    references = {name: checks.load_reference(name) for name in README_COMMANDS}
    for name, (out, err) in references.items():
        expect(f"cli-cold {name} reference", checks.check_reference(out, err, (out, err)), False)
        expect(f"cli-cold {name} stdout with one byte changed",
               checks.check_reference(out[:-2] + bytes([out[-2] ^ 1]) + out[-1:], err, (out, err)), True)
    fout, ferr = references["fairness"]
    expect("cli-cold fairness summary with a line dropped",
           checks.check_reference(fout, b"\n".join(ferr.split(b"\n")[1:]), (fout, ferr)), True)

    grid = 1000
    expect("fairness output", checks.check_fairness(fout, ferr, grid), False)
    corrupted = {
        "the final newline dropped": (fout[:-1], ferr),
        "a wrong header": (fout.replace(b"min_piece", b"smallest", 1), ferr),
        "a row dropped": (b"\n".join(fout.split(b"\n")[:5] + fout.split(b"\n")[6:]), ferr),
        "x moved": (_replace_field(fout, 7, 0, "0.0070000000"), ferr),
        "alpha1 breaking conservation": (_replace_field(fout, 300, 1, "0.5000000000"), ferr),
        "sd changed": (_replace_field(fout, 400, 4, "0.2500000000"), ferr),
        "mad changed": (_replace_field(fout, 500, 5, "0.2500000000"), ferr),
        "min_piece changed": (_replace_field(fout, 600, 6, "0.1000000000"), ferr),
        "sd minimum moved": (fout, ferr.replace(b"objective=0.1832214043", b"objective=0.1832214143")),
        "mad global moved": (fout, ferr.replace(b"x_star=0.9697640209", b"x_star=0.9597640209")),
        "mad local missing": (fout, b"\n".join(l for l in ferr.split(b"\n") if not l.startswith(b"mad_local"))),
        "maximin off the crossing": (fout, ferr.replace(b"alpha2=0.2002578392", b"alpha2=0.2002579392")),
    }
    for label, (out, err) in corrupted.items():
        expect(f"fairness output with {label}", checks.check_fairness(out, err, grid), True)

    cout, _ = references["clt"]
    clt_args = (10000, 0.5, 100000, 1)
    expect("clt output", checks.check_clt(cout, *clt_args), False)
    corrupted = {
        "mean off by one": _replace_field(cout, 1, 11, "12503752.0000000000"),
        "sigma off by 1e-6": _replace_field(cout, 1, 12, "250031.4986720410"),
        "ks above the DKW bound": _replace_field(cout, 1, 10, "0.0090000000"),
        "term1 changed": _replace_field(cout, 1, 4, "10.2361712253"),
        "term2 changed": _replace_field(cout, 1, 5, "1.2796900800"),
        "term3 changed": _replace_field(cout, 1, 6, "0.1599900033"),
        "max_term set to term2": _replace_field(cout, 1, 7, "1.2796800800"),
        "margin changed": _replace_field(cout, 1, 8, "1.1042694306"),
        "regime flipped": _replace_field(cout, 1, 9, "false"),
        "seed not echoed": _replace_field(cout, 1, 3, "2"),
    }
    for label, out in corrupted.items():
        expect(f"clt output with {label}", checks.check_clt(out, *clt_args), True)

    jobs, _ = run_exact_worker(0, 5.0, jobs=20)
    good = [job for job in jobs if not job["problems"]]
    expect("exact-checks jobs with no unexpected failure",
           [p for job in jobs if not job["known"] for p in job["problems"]], False)

    def mutate(job: dict, field: str, index: int, value: float) -> dict:
        copy = json.loads(json.dumps(job))
        copy[field][index] = value
        return copy

    job, cancelled = good[0], CANCELLED_JOB
    for label, bad, known in (
        ("the recorded cancellation (the known defect)", cancelled, True),
        ("that variance off by a further 1e-3", mutate(cancelled, "exact", 1, cancelled["exact"][1] * (1 + 1e-3)), False),
        ("that variance set to 0", mutate(cancelled, "exact", 1, 0.0), False),
        ("that variance set to the second moment", mutate(cancelled, "exact", 1, cancelled["exact"][2]), False),
        ("a well-conditioned variance off by 1e-8", mutate(job, "exact", 1, job["exact"][1] * (1 + 1e-8)), False),
        ("enumerated mean off by 1e-8", mutate(job, "exact", 0, job["exact"][0] * (1 + 1e-8)), False),
        ("closed-form variance off by 1e-8", mutate(job, "closed", 1, job["closed"][1] * (1 + 1e-8)), False),
        ("one region missing", dict(job, regions=job["regions"] - 1), False),
        ("an error raised", dict(job, error="ZeroDivisionError('float division by zero')"), False),
    ):
        problems, is_known = checks.check_exact_job(bad)
        expect(f"exact-checks job with {label}", problems, True)
        ok = is_known == known
        outcomes.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] counts it as {'known' if known else 'unexpected'}")

    checker = Checker()
    hung = run_child([sys.executable, "-c", "while True: pass"], timeout=1.0)
    expect("a job that hangs past its timeout", checker(hung, ["hang"], lambda out, err: []), True)
    crashed = dict(hung, timed_out=False, code=1, stderr=b"Traceback (most recent call last):\n")
    expect("a job that ends in a traceback", checker(crashed, ["crash"], lambda out, err: []), True)
    expect("a job that exits non-zero", checker(dict(crashed, stderr=b""), ["exit"], lambda out, err: []), True)

    recorder = spans.Recorder()
    sys.path.insert(0, SRC)
    import maxdiv.moments  # noqa: F401  (the tracer wraps loaded modules only)

    recorder.install({"moments": ("no_such_function", "moments_exact")})
    ok = recorder.missing == ["moments.no_such_function"]
    outcomes.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] tracer reports vanished names as missing spans: {recorder.missing}")
    try:
        spans.Recorder().install({"clt": ("_binomial_cdf",)})
        ok = False
    except ValueError:
        ok = True
    outcomes.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] tracer refuses private names")

    value, percentile = tail([float(v) for v in range(25)])
    ok = value == 14.0 and percentile == 60.0
    outcomes.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] tail of 25 samples is p60 with ten beyond it")
    return all(outcomes)


# --- main ------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "maxdiv", "__init__.py")):
        print(f"error: no maxdiv package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            jobs, values, samples = traced_run(args.workload, args.seed)
        else:
            jobs, values, samples = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed, known, notes = summarize(jobs)
    correct = failed == 0
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    meta["samples"] = samples
    meta["failed_ratio"] = failed / attempted
    meta["known_defect"] = known
    meta["known_defect_ratio"] = known / attempted
    meta["failure_notes"] = notes
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']!r} {metric['unit']}")
    print(f"{'failed_ratio':30s} {failed / attempted!r} 1 ({failed} of {attempted} jobs)")
    print(f"{'known_defect_ratio':30s} {known / attempted!r} 1 ({known} of {attempted} jobs)")
    for note in notes:
        print(f"failed: {note}")
    print("meta " + json.dumps(meta, sort_keys=True))
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
