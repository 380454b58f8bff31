"""Maximal disk division on the command line: CSV or JSON for every analysis.

Four subcommands cover the analyses end to end:

* ``fairness``  table of the fairness measures plus all optima,
* ``moments``   mean/variance of the region count by a chosen route,
* ``clt``       Rinott terms, threshold margin, and an empirical KS run,
* ``oracle``    geometric region counts checked against the formula.

Every subcommand takes ``--format csv|json`` and ``--out PATH``, and all
but ``oracle`` take ``--precision K``.  CSV uses '.' decimals, ','
separators, one header row and LF line endings; JSON is the object with
"params", "results" and "warnings" entries that json.dumps(indent=2) lays
out, its results fields named as the CSV headers.  Both stream the rows
in chunks.  Output is byte-identical across runs for fixed inputs.

The options of each subcommand are one table in COMMANDS, read by a
small parser on the standard library alone; an option with no default
is required, and ``--help`` prints them.  The exit status is 0 for
success, 1 for a failed run and 2 for a usage error, and each failure
writes one "Error:" line to standard error.  main alone writes it: a
subcommand raises CliError, and a ValueError that an analysis module
raises is reported as it is, with status 1.
Results go out through _write, diagnostics through _say.  A diagnostic
that cannot be written never changes the status of an error, and a
success whose fairness summary cannot be written ends with status 1.
Each subcommand imports the analysis module it calls, and json is
imported only for JSON output, so a run loads only what it uses; ``clt``
also keeps OpenSSL unloaded where CPython's own hash modules exist,
which leaves the process the built-in hashlib.

A standalone run (the ``maxdiv`` command, ``python -m maxdiv``) ends as
soon as its output is written: main flushes standard output (_say has
flushed each diagnostic) and calls os._exit.  That skips the interpreter's
teardown, which frees every object and unloads every module, numpy's
too, and writes nothing.  From the end of main to the parent's wait4,
the teardown took 11.6 ms of an 81 ms ``moments`` README command and
29 ms of a 203 ms ``clt`` one, and os._exit takes 1.4 and 2.7 ms
(medians of 15 runs on a 2-vCPU x86-64 VM).  So a standalone main raises
no SystemExit and runs no atexit handler; in-process callers pass
standalone_mode=False and get the exit status back.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

from maxdiv import MAX_CUTS, MAX_SAMPLES, MAX_SEED

FAIRNESS_HEADER = ("x", "alpha1", "alpha2", "alpha3", "sd", "mad", "min_piece")
MOMENTS_HEADER = (
    "n", "p", "dim", "method", "mean", "variance", "second_moment",
    "window_center", "window_scale",
)
CLT_HEADER = (
    "n", "p", "samples", "seed", "term1", "term2", "term3", "max_term",
    "margin", "in_clt_regime", "ks_distance", "mean", "sigma",
)
ORACLE_HEADER = ("n", "seed", "geometric", "formula", "result")
#: The fields of each fairness optimum, in the order both outputs show them.
_OPTIMUM_KEYS = ("x_star", "objective", "at_boundary", "alpha1", "alpha2", "alpha3")

#: Most grid points ``fairness`` tabulates.  The table takes about 2.2 s
#: per 10^6 rows on two CPUs of a 2-vCPU x86-64 VM and 2.7 s on one, in a
#: phase of that VM in which ``--grid 100000`` takes 0.3 s; phases about
#: half as fast occur, so the bound keeps a run under a minute.
MAX_GRID = 10**7

#: Table rows per output chunk.  Each chunk is formatted by one
#: %-template and written at once, so memory stays flat at any --grid.
CHUNK_ROWS = 2048


class CliError(ValueError):
    """A refused run: one "Error:" line on standard error and exit status
    1, or 2 for a usage error."""

    def __init__(self, message: str, status: int = 1):
        super().__init__(message)
        self.status = status


def _csv_text(value):
    """A cell as the bytes row template shows it: a bool as true or false,
    None as nothing and a str as its UTF-8 bytes; a number is unchanged."""
    if isinstance(value, bool):
        return b"true" if value else b"false"
    return value.encode() if isinstance(value, str) else b"" if value is None else value


def _csv_template(kinds: tuple, precision: int) -> tuple[bytes, bool]:
    """The bytes %-template for a row whose cells have these types.

    Floats take "%.Kf", which prints the same digits as f"{v:.Kf}", and
    ints "%d"; a bool, None or str takes "%s".  The flag says whether
    some cell takes "%s" and so the cells must go through _csv_text.
    """
    float_spec = f"%.{precision}f".encode()
    specs = [float_spec if issubclass(kind, float)  # a bool is an int, and takes "%s"
             else b"%d" if issubclass(kind, int) and kind is not bool else b"%s" for kind in kinds]
    return b",".join(specs), b"%s" in specs


def _json_cell(value, precision: int):
    if isinstance(value, float):
        return round(value, precision)
    return value


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

    With W = min(_workers(), chunks), chunk k is built by worker k % W:
    worker 0 is this process, the others (none if W = 1) forked children
    that send their chunks through a pipe each.  A child blocks on its
    pipe until its chunk is read, so every process holds at most one
    chunk.  Children are killed and reaped when this generator ends or is closed.
    """
    starts = range(0, count, CHUNK_ROWS)

    def chunk(start: int) -> bytes:
        return build(start, min(start + CHUNK_ROWS, count))

    workers = min(_workers(), len(starts))
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
                raise CliError(f"cannot start a worker process: {exc}")
            pids.append(pid)
        for k, start in enumerate(starts):
            worker = k % workers
            yield chunk(start) if worker == 0 else _receive(readers[worker - 1], start, count)
    finally:
        if pids:  # a run that forks nothing does not load signal
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _serve(chunk, starts, readers, writer) -> None:
    """A forked worker: send the bytes chunk(start) for each start to the
    parent, then exit.

    Each chunk goes as its byte count (8 bytes, little-endian, signed),
    then the chunk as it is; an exception goes as minus the byte count of
    its UTF-8 message and the message, and ends the worker.  Never returns:
    os._exit skips the parent's exit handlers and the flush of its
    inherited buffers (standard output, an --out file), which the
    parent owns.
    """
    try:
        for reader in readers:
            reader.close()
        for start in starts:
            try:
                data = chunk(start)
                size = len(data)
            except Exception as exc:  # the parent reports it as one Error: line
                data = f"{type(exc).__name__}: {exc}".encode()
                size = -len(data)
            # two writes: joining them would copy the chunk
            writer.write(size.to_bytes(8, "little", signed=True))
            writer.write(data)
            writer.flush()
            if size < 0:
                break
    finally:
        os._exit(0)


def _receive(reader, start: int, count: int) -> bytes:
    """The bytes of the chunk of rows from start that a worker sent
    through reader, as the worker built them."""
    head = reader.read(8)
    size = int.from_bytes(head, "little", signed=True)
    data = reader.read(abs(size))
    if len(head) == 8 and len(data) == abs(size):
        if size >= 0:
            return data
        reason = data.decode(errors="replace")
    else:
        reason = "it ended before sending them"
    stop = min(start + CHUNK_ROWS, count)
    raise CliError(
        f"the worker process building table rows {start}..{stop - 1} failed: {reason}"
    )


def _render(header, count, cells, params, fmt, precision, summary=None):
    """Yield the output bytes of a table of count >= 1 rows, chunk by chunk.

    cells(start, stop) gives rows start..stop-1 as one flat sequence of
    len(header) cells per row; each chunk of CHUNK_ROWS rows is computed
    and formatted in one piece by _map_chunks, so memory does not grow
    with the table.  Every row must have the cell types of the first,
    which fix the CSV template.  The JSON chunks join up to exactly
    json.dumps(payload, indent=2) + "\n", UTF-8 encoded: that call lays
    out the object with an empty "results" list, and the rows go in its place.
    """
    width = len(header)
    if fmt == "csv":

        def build(start: int, stop: int) -> bytes:
            row_cells = cells(start, stop)
            spec, needs_text = _csv_template(tuple(map(type, row_cells[:width])), precision)
            return (spec + b"\n") * (stop - start) % tuple(
                map(_csv_text, row_cells) if needs_text else row_cells
            )

        yield (",".join(header) + "\n").encode()
        yield from _map_chunks(build, count)
        return
    import json

    payload = {"params": {k: _json_cell(v, precision) for k, v in params.items()},
               "results": [], "warnings": []}
    if summary is not None:
        payload["summary"] = summary
    # the top-level member: a nested one is indented further, and json
    # escapes every quote and newline inside a string
    head, _, tail = json.dumps(payload, indent=2).partition('\n  "results": []')
    yield (head + '\n  "results": [').encode()
    members = ",\n".join(f"      {json.dumps(k)}: %s" for k in header)
    spec = ("\n    {\n" + members + "\n    }").encode()

    def build(start: int, stop: int) -> bytes:
        # one C-encoder call per chunk; json escapes every control character
        # inside a string, so each "\n" separates two encoded cells
        encoded = json.dumps([_json_cell(v, precision) for v in cells(start, stop)],
                             separators=("\n", ": ")).encode()
        return b",".join([spec] * (stop - start)) % tuple(encoded[1:-1].split(b"\n"))

    separator = b""
    for data in _map_chunks(build, count):
        yield separator + data
        separator = b","
    yield ("\n  ]" + tail + "\n").encode()


def _say(text: str) -> bool:
    """Write text and a newline to standard error in one call and flush
    it; False, and nothing raised, if the stream is None or fails."""
    try:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()
        return True
    except (AttributeError, OSError, ValueError):  # None, a failed write, a closed stream
        return False


def _write(chunks, out: str) -> None:
    """Write the byte chunks to out, or to standard output for "-", as they come.

    Standard output is written through its binary buffer, after any text
    already written to it.  A failed write ends the run with one Error:
    line and exit status 1, and so do a closed pipe and a standard output
    closed before the run.  The chunks generator is closed either way,
    which ends its workers.
    """
    try:
        if out == "-":
            if sys.stdout is None:  # the interpreter started with file descriptor 1 closed
                raise CliError("cannot write to standard output: it is closed")
            try:
                sys.stdout.flush()
                for chunk in chunks:
                    sys.stdout.buffer.write(chunk)
                sys.stdout.flush()
            except OSError as exc:
                # send what is still buffered to devnull, or the interpreter's
                # final flush of stdout fails again and prints a traceback
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise CliError(f"cannot write to standard output: {exc}")
            return
        try:
            with open(out, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        except OSError as exc:
            raise CliError(f"cannot write {out!r}: {exc}")
    finally:
        chunks.close()


def _optimum_entry(opt, precision: int) -> dict:
    from maxdiv.fairness import _areas

    values = (opt.x_star, opt.objective_value, opt.at_boundary, *_areas(opt.x_star))
    return {key: _json_cell(value, precision) for key, value in zip(_OPTIMUM_KEYS, values)}


def _summary_lines(summary: dict, precision: int) -> list[str]:
    lines = []
    flat = [("sd_min", summary["sd_min"]), ("mad_global", summary["mad_global"])]
    flat += [("mad_local", entry) for entry in summary["mad_locals"]]
    flat.append(("maximin", summary["maximin"]))
    for name, entry in flat:
        parts = [f"{name}:"]
        for key in _OPTIMUM_KEYS:
            value = entry[key]
            if isinstance(value, bool):
                parts.append(f"{key}={'true' if value else 'false'}")
            else:
                parts.append(f"{key}={value:.{precision}f}")
        lines.append(" ".join(parts))
    return lines


def cmd_fairness(grid: int, tol: float, format: str, out: str, precision: int) -> int:
    """Tabulate the fairness measures and locate all optima.

    The table holds one row per grid point; the optimum summary goes to
    standard error for CSV output and into a "summary" entry for JSON.
    """
    from maxdiv import fairness as fairness_mod

    mad_global, mad_local = fairness_mod.minimize_mad(tol)
    summary = {
        "sd_min": _optimum_entry(fairness_mod.minimize_sd(), precision),
        "mad_global": _optimum_entry(mad_global, precision),
        "mad_locals": [_optimum_entry(mad_local, precision)],
        "maximin": _optimum_entry(fairness_mod.maximize_min_piece(tol), precision),
    }
    params = {"grid": grid, "tol": tol, "precision": precision}
    _write(_render(FAIRNESS_HEADER, grid,
                   lambda lo, hi: fairness_mod._measures(fairness_mod._grid(grid, lo, hi)),
                   params, format, precision, summary=summary if format == "json" else None), out)
    return 0 if format == "json" or _say("\n".join(_summary_lines(summary, precision))) else 1


def cmd_moments(n: int, p: float, dim: int, method: str,
                format: str, out: str, precision: int) -> None:
    """Mean, variance and second moment of the region count."""
    from maxdiv import moments as moments_mod

    route = {
        "exact": moments_mod.moments_exact,
        "closed": moments_mod.moments_closed_form,
        "asymptotic": moments_mod.moments_asymptotic,
    }[method]
    try:
        bundle = route(moments_mod.CutModel(n, p, dim))
    except OverflowError as exc:
        raise CliError(f"at --n {n} --p {p} --dim {dim}, the {method} route overflows: {exc}")
    _require_finite(bundle._asdict(), f"the {method} route's ", f"--n {n} --p {p} --dim {dim}")
    window = math.sqrt(bundle.variance)
    row = (n, p, dim, bundle.method, bundle.mean, bundle.variance,
           bundle.second_moment, bundle.mean, window)
    params = {"n": n, "p": p, "dim": dim, "method": method, "precision": precision}
    _write(_render(MOMENTS_HEADER, 1, lambda start, stop: row, params, format, precision), out)


def _require_finite(cells: dict, owner: str, where: str) -> None:
    """Refuse the first float cell that is inf or nan, by its name."""
    for name, value in cells.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"{owner}{name} is {value}, not a finite number, at {where}")


def _leave_openssl_unloaded() -> None:
    """Make a later ``import _hashlib`` fail, unless it already ran, so
    that hashlib and hmac use CPython's own hash modules, as on a build
    without OpenSSL, and libcrypto (3.5 MiB of peak RSS) stays unmapped.

    Only where all of those modules exist: for a missing one, hashlib's
    import would log an error and a traceback to standard error.
    """
    from importlib.util import find_spec

    sha2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
    if all(find_spec(name) for name in ("_md5", "_sha1", "_sha3", "_blake2", *sha2)):
        sys.modules.setdefault("_hashlib", None)


def cmd_clt(n: int, p: float, samples: int, seed: int,
            format: str, out: str, precision: int) -> None:
    """Rinott terms, CLT threshold margin, and an empirical KS distance."""
    # numpy's import starts one OpenBLAS worker thread per core, which
    # costs CPU time although clt does no linear algebra; one thread
    # unless the caller chose otherwise.  numpy.random loads OpenSSL
    # through secrets and hmac although the keyed stream hashes nothing;
    # see _leave_openssl_unloaded.  Both must precede numpy's import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _leave_openssl_unloaded()
    from maxdiv import clt as clt_mod

    terms = clt_mod.rinott_terms(n, p)
    check = clt_mod.threshold_check(n, p)
    normality = clt_mod.sample_normality(n, p, samples, seed)
    row = (
        n, p, samples, seed,
        terms.term1, terms.term2, terms.term3, terms.term1,  # max_term: term1 > term2 > term3
        check.margin, check.in_clt_regime,
        normality.ks_distance, normality.mean, normality.sigma,
    )
    _require_finite(dict(zip(CLT_HEADER, row)), "", f"--n {n} --p {p}")
    params = {"n": n, "p": p, "samples": samples, "seed": seed, "precision": precision}
    _write(_render(CLT_HEADER, 1, lambda start, stop: row, params, format, precision), out)


def cmd_oracle(n: int, seeds: list[int], format: str, out: str) -> int:
    """Geometric region counts for random arrangements vs the formula.

    Exits nonzero if any arrangement cannot be sampled or any count
    disagrees with the formula.
    """
    from maxdiv import geometry

    expected = geometry.max_regions(n, 2)
    cells = []
    all_pass = True
    for seed in seeds:
        counted = geometry.count_regions_geometric(geometry.random_chord_set(n, seed))
        ok = counted == expected
        all_pass &= ok
        cells += (n, seed, counted, expected, "pass" if ok else "fail")
    params = {"n": n, "seeds": seeds}
    width = len(ORACLE_HEADER)
    _write(_render(ORACLE_HEADER, len(seeds),
                   lambda start, stop: cells[start * width:stop * width], params,
                   format, precision=None), out)
    return 0 if all_pass else 1


def _number(kind, lo=None, hi=None):
    """An option converter to kind, int or float, that refuses a value
    outside [lo, hi]; nan compares false, so it reaches the command."""
    name = "integer" if kind is int else "float"
    bounds = "" if lo is None else f" x>={lo}" if hi is None else f" {lo}<=x<={hi}"

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid {name}.") from None
        if bounds and (value < lo or hi is not None and value > hi):
            raise ValueError(f"{value} is not in the range{bounds}.")
        return value

    convert.metavar = name.upper() + bounds
    return convert


def _choice(*choices: str):
    def convert(text: str) -> str:
        if text in choices:
            return text
        raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")

    convert.metavar = f"[{'|'.join(choices)}]"
    return convert


def _seeds(text: str) -> list[int]:
    """An option converter to the integers >= 0 that text lists between
    commas, empty items skipped; it refuses an empty list.  random.Random
    seeds with |s|, so a negative seed would repeat an arrangement."""
    seed = _number(int, 0)
    seeds = [seed(token) for token in text.split(",") if token.strip()]
    if not seeds:
        raise ValueError(f"{text!r} lists no seed.")
    return seeds


# Each subcommand's options: name -> (converter, default, help).  An option
# whose default is None is required, and a default goes through the
# converter as a given value does.  A converter raises ValueError for a
# value it refuses; str takes any text.
_OUTPUT = {"--format": (_choice("csv", "json"), "csv", "Output format."),
           "--out": (str, "-", "Output path, or - for standard output.")}
_PRECISION = {"--precision": (_number(int, 1, 17), 10, "Decimal digits for numeric output.")}
COMMANDS = {
    "fairness": (cmd_fairness, {
        "--grid": (_number(int, 2, MAX_GRID), 1000,
                   "Number of uniformly spaced arc lengths to tabulate."),
        "--tol": (_number(float), 1e-10, "Optimizer tolerance on the arc length."),
        **_OUTPUT, **_PRECISION}),
    "moments": (cmd_moments, {
        "--n": (_number(int, 1), None, "Number of attempted cuts."),
        "--p": (_number(float, 0.0, 1.0), None, "Probability each cut succeeds."),
        "--dim": (_number(int, 1), 2, "Ambient dimension."),
        "--method": (_choice("exact", "closed", "asymptotic"), "exact", "Computation route."),
        **_OUTPUT, **_PRECISION}),
    "clt": (cmd_clt, {
        "--n": (_number(int, 2, MAX_CUTS), None, "Number of attempted cuts."),
        "--p": (_number(float), None,
                "Probability each cut succeeds; must be strictly inside (0, 1)."),
        "--samples": (_number(int, 1, MAX_SAMPLES), 10**5,
                      "Monte Carlo sample count for the KS experiment."),
        "--seed": (_number(int, 0, MAX_SEED), 1, "Stream seed."),
        **_OUTPUT, **_PRECISION}),
    "oracle": (cmd_oracle, {
        "--n": (_number(int, 1, 10), None, "Chords per arrangement (at most 10)."),
        "--seeds": (_seeds, "0,1,2,3,4", "Comma-separated seeds, one arrangement each."),
        **_OUTPUT}),
}


def _help(command: str | None) -> str:
    """The --help text of a subcommand, or of the program for None, from
    the docstrings and the option tables; its first line is the usage."""
    lines = [f"Usage: maxdiv {command or 'COMMAND'} [OPTIONS]", ""]
    if command is None:
        return "\n".join([*lines, __doc__.splitlines()[0], "", "Commands:"] + [
            f"  {name:<9} {run.__doc__.splitlines()[0]}" for name, (run, _) in COMMANDS.items()])
    run, options = COMMANDS[command]
    lines += [f"  {line.strip()}".rstrip() for line in run.__doc__.strip().splitlines()]
    return "\n".join([*lines, "", "Options:", "  --help  Show this message and exit."] + [
        f"  {name} {getattr(convert, 'metavar', 'TEXT')}  {text}"
        f"  [{'required' if default is None else f'default: {default}'}]"
        for name, (convert, default, text) in options.items()])


def _parse(options: dict, args: list[str]) -> dict | None:
    """The keyword arguments of a subcommand from its tokens, or None for
    --help.  An option takes the rest of its token after "=", or else the
    next token verbatim; the last value given wins; no name is abbreviated."""
    given, tokens = {}, iter(args)
    for token in tokens:
        if token == "--help":
            return None
        if token == "--" and next(tokens, None) is None:
            break  # a last "--" ends the options
        name, has_value, value = token.partition("=")
        if name not in options:
            raise CliError(f"No such option '{name}'." if name.startswith("-")
                           else f"Got unexpected extra argument ({token})", 2)
        given[name] = value if has_value else next(tokens, None)
        if given[name] is None:
            raise CliError(f"Option '{name}' requires an argument.", 2)
    values = {}
    for name, (convert, default, _) in options.items():
        if default is None and name not in given:
            raise CliError(f"Missing option '{name}'.", 2)
        try:
            values[name[2:]] = convert(given.get(name, default))
        except ValueError as exc:
            raise CliError(f"Invalid value for '{name}': {exc}", 2)
    return values


def main(argv=None, standalone_mode: bool = True) -> int:
    """Run the subcommand that argv (by default sys.argv[1:]) names, and
    return its exit status, or in standalone_mode end the process with it
    through _exit_flushed: no SystemExit is raised and no atexit handler
    runs, so in-process callers pass standalone_mode=False."""
    args = sys.argv[1:] if argv is None else list(argv)
    command = args[0] if args and args[0] in COMMANDS else None
    try:
        if command is None and args[:1] != ["--help"]:
            raise CliError(f"No such command '{args[0]}'." if args else "Missing command.", 2)
        values = _parse(COMMANDS[command][1], args[1:]) if command else None
        if values is None:  # through _write, so a failed write is one Error: line
            _write((text.encode() for text in [_help(command) + "\n"]), "-")
        status = 0 if values is None else COMMANDS[command][0](**values) or 0
    except ValueError as exc:  # a CliError, or a refusal from an analysis module
        status = exc.status if isinstance(exc, CliError) else 1
        usage = _help(command).split("\n")[0] + "\n" if status == 2 else ""
        _say(f"{usage}Error: {exc}")
    except KeyboardInterrupt:
        _say("Aborted!")
        status = 1
    if standalone_mode:
        _exit_flushed(status)
    return status


def _exit_flushed(status: int) -> None:
    """Flush standard output and end the process with status at once,
    without the interpreter's teardown; never returns.

    A standard output that is None is skipped, and a failed flush of it is
    one Error: line and status 1.  Nothing else is lost: by the time main
    calls this, _say has flushed every diagnostic, an --out file is
    closed and forked workers are reaped.
    """
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        status = 1
        _say(f"Error: cannot write to standard output: {exc}")
    finally:
        os._exit(status)


cli = SimpleNamespace(main=main)  # only perfbench/worker.py calls it; ROADMAP item 1 deletes it
