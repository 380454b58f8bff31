"""Child process of the benchmark.  Not a command for users.

    worker.py exact --seed S --out PATH (--seconds T --min-jobs K | --jobs N)
                    [--timeout SEC] [--spans PATH]
        Runs exact-checks jobs in this fresh process and writes each job's
        inputs, outputs and timings to PATH as JSON.

    worker.py cli --spans PATH --job J -- ARGS...
        Runs one maxdiv command in-process with every traced public
        function wrapped, and writes the spans to PATH at exit.

The package is found through PYTHONPATH, which the benchmark points at
the checkout's src directory.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time

import spans

CHORDS = 10


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def exact_inputs(seed: int):
    """Endless (n, p, d, chord_seed) stream for exact-checks; a pure function of seed."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(500, 1000)
        p = rng.random()
        d = rng.choice((2, 3))
        chord_seed = rng.randrange(2**32)
        if p > 0.0:
            yield n, p, d, chord_seed


def run_exact(args) -> None:
    from maxdiv import geometry, moments

    recorder = None
    if args.spans:
        recorder = spans.Recorder()
        recorder.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    jobs = []
    start = time.perf_counter()
    for index, (n, p, d, chord_seed) in enumerate(exact_inputs(args.seed)):
        if args.jobs is not None:
            if index >= args.jobs:
                break
        elif index >= args.min_jobs and time.perf_counter() - start >= args.seconds:
            break
        if recorder is not None:
            recorder.job = index
        job = {"n": n, "p": p, "d": d, "chord_seed": chord_seed, "chords": CHORDS, "error": None}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
        try:
            model = moments.CutModel(n, p, d)
            enumerated = moments.moments_exact(model)
            closed = moments.moments_closed_form(model)
            regions = geometry.count_regions_geometric(geometry.random_chord_set(CHORDS, chord_seed))
        except JobTimeout:
            job["error"] = f"timeout after {args.timeout} s"
        except Exception as exc:  # a failing job is recorded, the run goes on
            job["error"] = repr(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        job["wall_s"] = time.perf_counter() - wall0
        job["cpu_s"] = time.process_time() - cpu0
        if job["error"] is None:
            job["exact"] = [enumerated.mean, enumerated.variance, enumerated.second_moment]
            job["closed"] = [closed.mean, closed.variance, closed.second_moment]
            job["regions"] = regions
        jobs.append(job)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(jobs, handle)
    if recorder is not None:
        recorder.dump(args.spans)


def run_cli(args) -> int:
    import click

    import maxdiv.cli

    recorder = spans.Recorder()
    recorder.job = args.job
    recorder.install()
    code = 0
    try:
        with recorder.span("cli.main"):
            maxdiv.cli.cli.main(args.argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except click.exceptions.Abort:
        code = 1
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(args.spans)
    sys.stdout.flush()
    return code


def main() -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    exact = sub.add_parser("exact")
    exact.add_argument("--seed", type=int, required=True)
    exact.add_argument("--out", required=True)
    exact.add_argument("--seconds", type=float, default=0.0)
    exact.add_argument("--min-jobs", type=int, default=1)
    exact.add_argument("--jobs", type=int)
    exact.add_argument("--timeout", type=float, default=5.0)
    exact.add_argument("--spans")
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("--job", type=int, default=0)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "exact":
        run_exact(args)
        return 0
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
