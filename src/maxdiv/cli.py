"""Command-line front end: plot-ready CSV or JSON for every analysis.

Four subcommands cover the analyses end to end:

* ``fairness``  scan of the fairness measures plus all optima,
* ``moments``   mean/variance of the region count by a chosen route,
* ``clt``       Rinott terms, threshold margin, and an empirical KS run,
* ``oracle``    geometric region counts checked against the formula.

Every subcommand takes ``--format csv|json``, ``--out PATH`` and
``--precision K``.  CSV uses '.' decimals, ',' separators, one header
row and LF line endings; JSON is a single object with "params",
"results" and "warnings" entries whose field names match the CSV
headers.  Output is byte-identical across runs for fixed inputs.

Each subcommand imports the analysis module it calls, and json is
imported only for JSON output, so a run loads only what it uses.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain

import click

from maxdiv import MAX_CUTS, MAX_SAMPLES

MOMENTS_HEADER = (
    "n", "p", "dim", "method", "mean", "variance", "second_moment",
    "window_center", "window_scale",
)
CLT_HEADER = (
    "n", "p", "samples", "seed", "term1", "term2", "term3", "max_term",
    "margin", "in_clt_regime", "ks_distance", "mean", "sigma",
)
ORACLE_HEADER = ("n", "seed", "geometric", "formula", "result")

#: Table rows per output chunk.  Each chunk is formatted by one
#: %-template and written at once, so memory stays flat at any --grid.
CHUNK_ROWS = 2048


def _csv_text(value):
    """A non-float cell as the row template's "%s" should show it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value


def _csv_template(kinds: tuple, precision: int) -> tuple[str, bool]:
    """The %-template for a row whose cells have these types.

    Floats take "%.Kf", which prints the same bytes as f"{v:.Kf}";
    every other cell takes "%s".  The flag says whether some cell is a
    bool or None and so must go through _csv_text first.
    """
    float_spec = f"%.{precision}f"
    template = ",".join(
        float_spec if issubclass(kind, float) else "%s" for kind in kinds
    )
    needs_text = any(issubclass(kind, bool) or kind is type(None) for kind in kinds)
    return template, needs_text


def _json_cell(value, precision: int):
    if isinstance(value, float):
        return round(value, precision)
    return value


def _json_member(key: str, value) -> str:
    """One top-level entry as json.dumps(payload, indent=2) lays it out."""
    import json

    return json.dumps({key: value}, indent=2)[2:-2]


def _workers() -> int:
    """How many processes may build a table: one per CPU this process may
    run on, or 1 where the platform has no os.fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(build, count: int):
    """Yield build(start, stop) for each run of CHUNK_ROWS of count rows, in order.

    With W = min(_workers(), chunks) >= 2, chunk k is built by worker
    k % W: worker 0 is this process, the others are forked children that
    send their chunks through a pipe each.  A child blocks on its pipe
    until its chunk is read, so every process holds at most one chunk.
    Children are killed and reaped when this generator ends or is closed.
    """
    starts = range(0, count, CHUNK_ROWS)

    def chunk(start: int) -> str:
        return build(start, min(start + CHUNK_ROWS, count))

    workers = min(_workers(), len(starts))
    if workers < 2:
        yield from map(chunk, starts)
        return
    import signal

    pids, readers = [], []
    try:
        for worker in range(1, workers):
            try:
                read_fd, write_fd = os.pipe()
                readers.append(open(read_fd, "rb"))
                # the parent closes its write end on leaving this block;
                # the child never leaves _serve
                with open(write_fd, "wb") as writer:
                    pid = os.fork()
                    if pid == 0:
                        _serve(chunk, starts[worker::workers], readers, writer)
            except OSError as exc:
                raise click.ClickException(f"cannot start a worker process: {exc}")
            pids.append(pid)
        for k, start in enumerate(starts):
            worker = k % workers
            yield chunk(start) if worker == 0 else _receive(readers[worker - 1], start, count)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _serve(chunk, starts, readers, writer) -> None:
    """A forked worker: send chunk(start) for each start to the parent, then exit.

    Each chunk goes as its UTF-8 byte count (8 bytes, little-endian,
    signed) and its bytes; an exception goes as minus the byte count of
    its message and the message, and ends the worker.  Never returns:
    os._exit skips the parent's exit handlers and the flush of its
    inherited buffers (standard output, an --out file), which the
    parent owns.
    """
    try:
        for reader in readers:
            reader.close()
        for start in starts:
            try:
                data = chunk(start).encode()
                size = len(data)
            except Exception as exc:  # the parent reports it as one Error: line
                data = f"{type(exc).__name__}: {exc}".encode()
                size = -len(data)
            writer.write(size.to_bytes(8, "little", signed=True) + data)
            writer.flush()
            if size < 0:
                break
    finally:
        os._exit(0)


def _receive(reader, start: int, count: int) -> str:
    """The chunk of rows from start that a worker sent through reader."""
    head = reader.read(8)
    size = int.from_bytes(head, "little", signed=True)
    data = reader.read(abs(size))
    if len(head) == 8 and len(data) == abs(size):
        if size >= 0:
            return data.decode()
        reason = data.decode(errors="replace")
    else:
        reason = "it ended before sending them"
    stop = min(start + CHUNK_ROWS, count)
    raise click.ClickException(
        f"the worker process building table rows {start}..{stop - 1} failed: {reason}"
    )


def _render(header, count, rows, params, warnings, fmt, precision, summary=None):
    """Yield the output text of a table of count rows, chunk by chunk.

    rows(start, stop) gives rows start..stop-1; each chunk of CHUNK_ROWS
    rows is computed and formatted in one piece by _map_chunks, so memory
    does not grow with the table.  Every row must have the cell types of
    the first, which fix the CSV template.  The JSON chunks join up to
    exactly json.dumps(payload, indent=2) + "\n".
    """
    width = len(header)
    if fmt == "csv":

        def build(start: int, stop: int) -> str:
            cells = tuple(chain.from_iterable(rows(start, stop)))
            spec, needs_text = _csv_template(tuple(map(type, cells[:width])), precision)
            return (spec + "\n") * (stop - start) % (
                tuple(map(_csv_text, cells)) if needs_text else cells
            )

        yield ",".join(header) + "\n"
        yield from _map_chunks(build, count)
        return
    import json

    params = {k: _json_cell(v, precision) for k, v in params.items()}
    yield "{\n" + _json_member("params", params) + ',\n  "results": ['
    spec = "\n    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in header) + "\n    }"

    def build(start: int, stop: int) -> str:
        # one C-encoder call per chunk; json escapes every control character
        # inside a string, so each "\n" separates two encoded cells
        cells = chain.from_iterable(rows(start, stop))
        encoded = json.dumps([_json_cell(v, precision) for v in cells], separators=("\n", ": "))
        return ",".join([spec] * (stop - start)) % tuple(encoded[1:-1].split("\n"))

    separator = ""
    for text in _map_chunks(build, count):
        yield separator + text
        separator = ","
    tail = ["\n  ]" if separator else "]", _json_member("warnings", list(warnings))]
    if summary is not None:
        tail.append(_json_member("summary", summary))
    yield ",\n".join(tail) + "\n}\n"


def _write(chunks, out: str) -> None:
    """Write the chunks to out, or to standard output for "-", as they come.

    A failed write ends the run with one Error: line and exit status 1,
    and so do a closed pipe and a standard output closed before the run.
    The chunks generator is closed either way, which ends its workers.
    """
    try:
        if out == "-":
            if sys.stdout is None:  # the interpreter started with file descriptor 1 closed
                raise click.ClickException("cannot write to standard output: it is closed")
            try:
                for chunk in chunks:
                    click.echo(chunk, nl=False)
            except OSError as exc:
                # send what is still buffered to devnull, or the interpreter's
                # final flush of stdout fails again and prints a traceback
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise click.ClickException(f"cannot write to standard output: {exc}")
            return
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out!r}: {exc}")
    finally:
        chunks.close()


def _output_options(fn):
    fn = click.option(
        "--precision", type=click.IntRange(1, 17), default=10, show_default=True,
        help="Decimal digits for numeric output.",
    )(fn)
    fn = click.option(
        "--out", default="-", show_default=True,
        help="Output path, or - for standard output.",
    )(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
        show_default=True, help="Output format.",
    )(fn)
    return fn


@click.group()
def cli() -> None:
    """Maximal disk division: fairness scans, region-count moments,
    normality diagnostics, and a geometric counting oracle."""


def _optimum_entry(opt, precision: int) -> dict:
    from maxdiv.geometry import area_profile

    profile = area_profile(opt.x_star)
    return {
        "x_star": round(opt.x_star, precision),
        "objective": round(opt.objective_value, precision),
        "at_boundary": opt.at_boundary,
        "alpha1": round(profile.triangle, precision),
        "alpha2": round(profile.circular_triangle, precision),
        "alpha3": round(profile.circular_trapezoid, precision),
    }


def _summary_lines(summary: dict, precision: int) -> list[str]:
    lines = []
    flat = [("sd_min", summary["sd_min"]), ("mad_global", summary["mad_global"])]
    flat += [("mad_local", entry) for entry in summary["mad_locals"]]
    flat.append(("maximin", summary["maximin"]))
    for name, entry in flat:
        parts = [f"{name}:"]
        for key in ("x_star", "objective", "at_boundary", "alpha1", "alpha2", "alpha3"):
            value = entry[key]
            if isinstance(value, bool):
                parts.append(f"{key}={'true' if value else 'false'}")
            else:
                parts.append(f"{key}={value:.{precision}f}")
        lines.append(" ".join(parts))
    return lines


@cli.command("fairness")
@click.option("--grid", type=click.IntRange(2), default=1000, show_default=True,
              help="Number of uniformly spaced arc lengths to tabulate.")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Optimizer tolerance on the arc length.")
@_output_options
def cmd_fairness(grid: int, tol: float, fmt: str, out: str, precision: int) -> None:
    """Tabulate the fairness measures and locate all optima.

    The table holds one row per grid point; the optimum summary goes to
    standard error for CSV output and into a "summary" entry for JSON.
    """
    from maxdiv import fairness as fairness_mod

    if not 0.0 < tol < math.inf:
        raise click.ClickException(f"--tol must be positive and finite, got {tol}")
    try:
        sd_min = fairness_mod.minimize_sd(tol)
        mad_global, mad_locals = fairness_mod.minimize_mad(tol)
        maximin = fairness_mod.maximize_min_piece(tol)
    except (ValueError, fairness_mod.ConsistencyError) as exc:
        raise click.ClickException(str(exc))
    summary = {
        "sd_min": _optimum_entry(sd_min, precision),
        "mad_global": _optimum_entry(mad_global, precision),
        "mad_locals": [_optimum_entry(opt, precision) for opt in mad_locals],
        "maximin": _optimum_entry(maximin, precision),
    }
    params = {"grid": grid, "tol": tol, "precision": precision}
    # fairness_mod._rows, not scan: a list of reports would hold the table
    _write(_render(fairness_mod.FairnessReport._fields, grid,
                   lambda start, stop: fairness_mod._rows(grid, start, stop), params, [],
                   fmt, precision, summary=summary if fmt == "json" else None), out)
    if fmt == "csv":
        for line in _summary_lines(summary, precision):
            click.echo(line, err=True)


@cli.command("moments")
@click.option("--n", type=click.IntRange(1), required=True, help="Number of attempted cuts.")
@click.option("--p", type=click.FloatRange(0.0, 1.0), required=True,
              help="Probability each cut succeeds.")
@click.option("--dim", type=click.IntRange(1), default=2, show_default=True,
              help="Ambient dimension.")
@click.option("--method", type=click.Choice(["exact", "closed", "asymptotic"]),
              default="exact", show_default=True, help="Computation route.")
@_output_options
def cmd_moments(n: int, p: float, dim: int, method: str,
                fmt: str, out: str, precision: int) -> None:
    """Mean, variance and second moment of the region count."""
    from maxdiv import moments as moments_mod

    route = {
        "exact": moments_mod.moments_exact,
        "closed": moments_mod.moments_closed_form,
        "asymptotic": moments_mod.moments_asymptotic,
    }[method]
    try:
        bundle = route(moments_mod.CutModel(n, p, dim))
    except ValueError as exc:  # a bad p, or a route that cannot take this model
        raise click.ClickException(str(exc))
    except OverflowError as exc:
        raise click.ClickException(f"--n {n} is too large for the {method} route: {exc}")
    for name in ("mean", "variance", "second_moment"):
        value = getattr(bundle, name)
        if value is not None and not math.isfinite(value):
            raise click.ClickException(
                f"the {method} route's {name} is {value}, not a finite number,"
                f" at --n {n} --p {p} --dim {dim}"
            )
    window = math.sqrt(bundle.variance)
    row = (n, float(p), dim, bundle.method, bundle.mean, bundle.variance,
           bundle.second_moment, bundle.mean, window)
    params = {"n": n, "p": float(p), "dim": dim, "method": method, "precision": precision}
    _write(_render(MOMENTS_HEADER, 1, lambda start, stop: [row], params, [], fmt, precision), out)


@cli.command("clt")
@click.option("--n", type=click.IntRange(2, MAX_CUTS), required=True,
              help="Number of attempted cuts.")
@click.option("--p", type=float, required=True,
              help="Probability each cut succeeds; must be strictly inside (0, 1).")
@click.option("--samples", type=click.IntRange(1, MAX_SAMPLES), default=10**5, show_default=True,
              help="Monte Carlo sample count for the KS experiment.")
@click.option("--seed", type=int, default=1, show_default=True, help="Stream seed.")
@_output_options
def cmd_clt(n: int, p: float, samples: int, seed: int,
            fmt: str, out: str, precision: int) -> None:
    """Rinott terms, CLT threshold margin, and an empirical KS distance."""
    # numpy's import starts one OpenBLAS worker thread per core, which
    # costs CPU time although clt does no linear algebra; one thread
    # unless the caller chose otherwise.  Must precede numpy's import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from maxdiv import clt as clt_mod

    try:
        terms = clt_mod.rinott_terms(n, p)
        check = clt_mod.threshold_check(n, p)
        draws = clt_mod.sample_region_counts(n, p, samples, seed)
        normality = clt_mod.ks_distance(draws, n, p, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    row = (
        n, float(p), samples, seed,
        terms.term1, terms.term2, terms.term3, terms.max_term,
        check.margin, check.in_clt_regime,
        normality.ks_distance, normality.mean, normality.sigma,
    )
    params = {"n": n, "p": float(p), "samples": samples, "seed": seed,
              "precision": precision}
    _write(_render(CLT_HEADER, 1, lambda start, stop: [row], params, [], fmt, precision), out)


@cli.command("oracle")
@click.option("--n", type=click.IntRange(1, 10), required=True,
              help="Chords per arrangement (at most 10).")
@click.option("--seeds", default="0,1,2,3,4", show_default=True,
              help="Comma-separated seeds, one arrangement each.")
@_output_options
def cmd_oracle(n: int, seeds: str, fmt: str, out: str, precision: int) -> None:
    """Geometric region counts for random arrangements vs the formula.

    Exits nonzero if any arrangement cannot be sampled or any count
    disagrees with the formula.
    """
    from maxdiv import geometry

    try:
        seed_list = [int(token) for token in seeds.split(",") if token.strip()]
    except ValueError:
        raise click.ClickException(f"--seeds must be comma-separated integers, got {seeds!r}")
    if not seed_list:
        raise click.ClickException("--seeds produced an empty list")
    expected = geometry.max_regions(n, 2)
    rows = []
    all_pass = True
    for seed in seed_list:
        try:
            counted = geometry.count_regions_geometric(geometry.random_chord_set(n, seed))
        except geometry.RetryBudgetError as exc:
            raise click.ClickException(str(exc))
        ok = counted == expected
        all_pass &= ok
        rows.append((n, seed, counted, expected, "pass" if ok else "fail"))
    params = {"n": n, "seeds": seed_list, "precision": precision}
    _write(_render(ORACLE_HEADER, len(rows), lambda start, stop: rows[start:stop], params, [],
                   fmt, precision), out)
    if not all_pass:
        sys.exit(1)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
