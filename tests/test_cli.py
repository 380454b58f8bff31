import ast
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from clirun import invoke

from maxdiv import MAX_SAMPLES, MAX_SEED
from maxdiv import cli as cli_module
from maxdiv import geometry as geometry_module
from maxdiv import moments as moments_module
from maxdiv.cli import CHUNK_ROWS, FAIRNESS_HEADER, MAX_GRID, main
from maxdiv.clt import MAX_CUTS
from maxdiv.fairness import _grid, _measures
from maxdiv.geometry import DegenerateConfigurationError, RetryBudgetError
from maxdiv.moments import RegionMoments, UnsupportedDimensionError

# Some tests fork this process, which may hold the OpenBLAS threads that
# numpy started for other test modules, and Python 3.12 warns about that.
# The forked workers run only pure-Python table code, never BLAS.
pytestmark = pytest.mark.filterwarnings(
    r"ignore:.*use of fork\(\) may lead to deadlocks:DeprecationWarning"
)


def _rows(grid):
    """The rows of `fairness --grid G`, one list of 7 cells each."""
    cells = _measures(_grid(grid, 0, grid))
    return [cells[i:i + 7] for i in range(0, len(cells), 7)]


def _flat(rows):
    """cells(start, stop) for _render over these rows."""
    return lambda start, stop: [cell for row in rows[start:stop] for cell in row]


def test_fairness_csv_contract():
    res = invoke("fairness", "--grid", "128")
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "x,alpha1,alpha2,alpha3,sd,mad,min_piece"
    assert len(lines) == 129


def test_fairness_summary_contents():
    res = invoke("fairness", "--grid", "16")
    assert res.exit_code == 0
    summary = res.stderr
    pi_third = f"{math.pi / 3:.10f}"
    pi_sixth = f"{math.pi / 6:.10f}"
    assert f"sd_min: x_star={pi_third}" in summary
    assert f"alpha2={pi_sixth}" in summary
    assert f"alpha1={0.0:.10f}" in summary
    assert "mad_global: x_star=0.9697640209" in summary
    assert "mad_local: x_star=0.4506092598" in summary
    assert "maximin:" in summary


def test_fairness_json_schema():
    res = invoke("fairness", "--grid", "8", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert set(payload) == {"params", "results", "warnings", "summary"}
    assert len(payload["results"]) == 8
    assert list(payload["results"][0]) == [
        "x", "alpha1", "alpha2", "alpha3", "sd", "mad", "min_piece",
    ]
    assert payload["summary"]["sd_min"]["at_boundary"] is True
    assert payload["summary"]["mad_global"]["x_star"] == 0.9697640209
    assert payload["warnings"] == []


def test_fairness_json_output_digest():
    """`fairness --grid 20000 --format json`, digest recorded from the
    renderer that built str chunks and wrote them through click.echo."""
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "fairness", "--grid", "20000", "--format", "json"],
        capture_output=True, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "91da4cc6410044abbc81eba4a04c32003c4a268f12214595a8b201cfa5464754"
    )
    assert proc.stderr == b""


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
CONSOLE_SCRIPT = os.path.join(os.path.dirname(sys.executable), "maxdiv")


def _readme_commands() -> dict:
    """README_COMMANDS of perfbench/run.py, read from its source."""
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["README_COMMANDS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no README_COMMANDS")


README_COMMANDS = _readme_commands()


def _assert_reference(name, proc):
    with open(os.path.join(PERFBENCH, "refs", f"{name}.out"), "rb") as out:
        assert proc.stdout == out.read()
    with open(os.path.join(PERFBENCH, "refs", f"{name}.err"), "rb") as err:
        assert proc.stderr == err.read()
    assert proc.returncode == 0


# A standalone run ends in os._exit, which flushes nothing, so each test of
# pinned output names its launcher, standard output and buffering, set here.
def _environ(unbuffered: bool = False) -> dict:
    """This process's environment with PYTHONUNBUFFERED=1, or without it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def _run(launcher: str, stdout: str, buffering: str, argv: list, tmp_path=None):
    """`maxdiv ARGV` through "python-m" or the installed "console-script"
    (skipped if absent), standard output to a "pipe" or a "file" in
    tmp_path, "unbuffered" or "block-buffered"; standard error to a pipe."""
    if launcher == "console-script" and not os.path.exists(CONSOLE_SCRIPT):
        pytest.skip(f"no maxdiv console script at {CONSOLE_SCRIPT}")
    command = [CONSOLE_SCRIPT] if launcher == "console-script" else [sys.executable, "-m", "maxdiv"]
    env = _environ(buffering == "unbuffered")
    if stdout == "pipe":
        return subprocess.run([*command, *argv], capture_output=True, env=env, timeout=60)
    with open(tmp_path / "stdout", "wb") as target:
        proc = subprocess.run([*command, *argv], stdout=target, stderr=subprocess.PIPE, env=env, timeout=60)
    proc.stdout = (tmp_path / "stdout").read_bytes()
    return proc


@pytest.mark.parametrize("launcher, stdout, buffering", [
    ("python-m", "pipe", "unbuffered"),
    ("python-m", "pipe", "block-buffered"),
    ("python-m", "file", "block-buffered"),
    ("console-script", "pipe", "block-buffered"),
    ("console-script", "file", "block-buffered"),
])
@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_commands_match_the_recorded_references(name, launcher, stdout, buffering, tmp_path):
    """The README commands print exactly perfbench/refs/NAME.out and .err."""
    _assert_reference(name, _run(launcher, stdout, buffering, README_COMMANDS[name], tmp_path))


# sha256 of standard output (or of the --out file) and of standard error
FAIRNESS_FINE_SHA256 = {
    "csv": ("aac7d800d4e0ce6d505aef09845fcf0a4a381c275e51074a85103740c191927a",
            "dc3f054e113d3de2f4cad2f759ccaf166ce8404858c77455f893b4c61542a556"),
    "json": ("0add8e3c10e7e9758ef3dea1468fdde9f1056ed2920e0ac1413bd68285a7145e",
             hashlib.sha256(b"").hexdigest()),
}


@pytest.mark.parametrize("fmt, launcher, stdout, buffering", [
    ("csv", "python-m", "pipe", "unbuffered"),
    ("csv", "python-m", "pipe", "block-buffered"),
    ("csv", "python-m", "out", "unbuffered"),
    ("json", "python-m", "pipe", "block-buffered"),
])
def test_fairness_fine_output_digest(fmt, launcher, stdout, buffering, tmp_path):
    """Digests recorded from the dataclass-based table and per-cell CSV
    renderer, and for JSON from the run that ended in sys.exit.  With
    stdout "out" the table goes to --out and standard output is empty."""
    argv = ["fairness", "--grid", "100000", "--tol", "1e-10", "--format", fmt]
    target = tmp_path / "table"
    proc = _run(launcher, "pipe", buffering, [*argv, "--out", str(target)] if stdout == "out" else argv)
    assert proc.returncode == 0
    if stdout == "out":
        assert proc.stdout == b""
        proc.stdout = target.read_bytes()
    assert (hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest()) == FAIRNESS_FINE_SHA256[fmt]


def test_help_and_a_usage_error_lose_no_byte_in_a_block_buffered_pipe():
    proc = _run("python-m", "pipe", "block-buffered", ["--help"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, invoke("--help").stdout_bytes, b"")
    proc = _run("python-m", "pipe", "block-buffered", ["fairness", "--grid", "1"])
    usage = invoke("fairness", "--grid", "1")
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", usage.stderr)


def test_standalone_main_runs_no_exit_handler():
    """Standalone main() ends the process in os._exit once its output is
    flushed: an atexit handler registered before it does not run."""
    code = (
        "import atexit, sys\n"
        "from maxdiv.cli import main\n"
        "atexit.register(lambda: sys.stderr.write('exit handler ran\\n'))\n"
        f"main({README_COMMANDS['moments']!r})\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_environ(),
                          timeout=60)
    _assert_reference("moments", proc)


def _standalone(code: str, **streams) -> subprocess.CompletedProcess:
    """`python -c CODE` without PYTHONUNBUFFERED, standard error to a pipe."""
    return subprocess.run([sys.executable, "-c", "import io, sys\nfrom maxdiv.cli import main\n" + code],
                          stderr=subprocess.PIPE, env=_environ(), timeout=60, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_a_standalone_run_whose_final_flush_fails_is_one_error_line(tmp_path):
    """Only the caller's "x" is left for standard output: the run writes
    to a file, so the flush before os._exit is what fails."""
    argv = ["moments", "--n", "20", "--p", "0.3", "--out", str(tmp_path / "moments.csv")]
    with open("/dev/full", "wb") as stdout:
        proc = _standalone(f"sys.stdout.write('x')\nmain({argv!r})\n", stdout=stdout)
    assert proc.returncode == 1
    assert proc.stderr == b"Error: cannot write to standard output: [Errno 28] No space left on device\n"
    assert (tmp_path / "moments.csv").read_bytes() == invoke(*argv[:-2]).stdout_bytes


def test_a_refused_standalone_run_delivers_the_callers_pending_text():
    argv = ["clt", "--n", "10", "--p", "0"]
    proc = _standalone(f"sys.stdout.write('x')\nmain({argv!r})\n", stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (1, b"x", invoke(*argv).stderr)


def test_a_block_buffered_stderr_gets_the_error_line_before_the_exit():
    argv = ["clt", "--n", "10", "--p", "0"]
    proc = _standalone("sys.stderr = io.TextIOWrapper(open(2, 'wb', closefd=False), write_through=False)\n"
                       f"main({argv!r})\n", stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (1, b"", invoke(*argv).stderr)


def _closed_pipe() -> int:
    """The write end of a pipe whose read end is closed: each write fails."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return write_fd


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("target, reason", [
    pytest.param("/dev/full", "[Errno 28] No space left on device", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full here")),
    ("closed pipe", "[Errno 32] Broken pipe"),
])
@pytest.mark.parametrize("argv", [["--help"], ["clt", "--help"]])
def test_help_to_a_failing_stdout_is_one_error_line(argv, target, reason, unbuffered):
    stdout = _closed_pipe() if target == "closed pipe" else os.open(target, os.O_WRONLY)
    try:
        proc = subprocess.run([sys.executable, "-m", "maxdiv", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=_environ(unbuffered), timeout=60)
    finally:
        os.close(stdout)
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"Error: cannot write to standard output: {reason}\n"


class _FullStream(io.TextIOBase):
    """A standard error whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# a usage error, a run error, and a success whose CSV summary is lost
_STDERR_FAILS = [(["moments", "--n", "0", "--p", "0.5"], 2), (["clt", "--n", "10", "--p", "0"], 1),
                 (["fairness", "--grid", "3"], 1)]


@pytest.mark.parametrize("argv, status", _STDERR_FAILS)
def test_a_failing_stderr_changes_no_error_status_in_process(monkeypatch, argv, status):
    """main returns, with the same standard output as with a working
    standard error; only a success that cannot write its summary fails."""
    working = invoke(*argv)
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(argv, standalone_mode=False) == status
    stdout.flush()
    assert out.getvalue() == working.stdout_bytes
    assert working.exit_code == (0 if argv[0] == "fairness" else status)


_MOMENTS = ["moments", "--n", "2", "--p", "0.5"]


def test_a_run_to_standard_output_creates_no_file(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert invoke(*_MOMENTS).exit_code == 0
    assert list(tmp_path.iterdir()) == []


def test_text_a_caller_wrote_to_standard_output_comes_out_first(monkeypatch):
    expected = invoke(*_MOMENTS).stdout_bytes
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("caller\n")
    assert main(_MOMENTS, standalone_mode=False) == 0
    stdout.flush()
    assert out.getvalue() == b"caller\n" + expected


def test_every_byte_reaches_the_raw_stream_before_main_returns(monkeypatch):
    expected = invoke(*_MOMENTS).stdout_bytes
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
    assert main(_MOMENTS, standalone_mode=False) == 0
    assert raw.getvalue() == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors in /proc")
def test_a_failed_write_to_standard_output_leaves_no_descriptor_open(monkeypatch, capsys):
    with open(_closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = sorted(os.listdir("/proc/self/fd"))
        assert main(_MOMENTS, standalone_mode=False) == 1
        assert sorted(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == "Error: cannot write to standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("target", [
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full here")),
    pytest.param("closed", marks=pytest.mark.skipif(
        os.name != "posix", reason="closes a file descriptor between fork and exec")),
])
@pytest.mark.parametrize("argv, status", _STDERR_FAILS)
def test_a_standalone_run_with_a_failing_stderr_keeps_its_status(argv, status, target, unbuffered):
    """Standard output holds what a run with a working standard error
    writes: a diagnostic for a standard error that is None is dropped."""
    with open(os.devnull if target == "closed" else target, "wb") as stderr:
        proc = subprocess.run([sys.executable, "-m", "maxdiv", *argv], stdout=subprocess.PIPE,
                              stderr=stderr, env=_environ(unbuffered), timeout=60,
                              preexec_fn=(lambda: os.close(2)) if target == "closed" else None)
    assert proc.returncode == status
    assert proc.stdout == invoke(*argv).stdout_bytes


@pytest.mark.parametrize("grid", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_fairness_csv_stream_matches_scan(grid):
    res = invoke("fairness", "--grid", str(grid), "--precision", "12")
    assert res.exit_code == 0
    expected = ",".join(FAIRNESS_HEADER) + "\n" + "".join(
        ",".join("%.12f" % value for value in row) + "\n" for row in _rows(grid)
    )
    assert res.stdout == expected


@pytest.mark.parametrize("grid", [2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 1000])
def test_fairness_json_stream_matches_json_dumps(grid):
    res = invoke("fairness", "--grid", str(grid), "--format", "json")
    assert res.exit_code == 0
    payload = {
        "params": {"grid": grid, "tol": 1e-10, "precision": 10},
        "results": [
            {key: round(value, 10) for key, value in zip(FAIRNESS_HEADER, row)}
            for row in _rows(grid)
        ],
        "warnings": [],
        "summary": json.loads(res.stdout)["summary"],
    }
    assert res.stdout == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("rows", [
    [(1, "a\nb", True, None, 0.5)],
    [(2, 'q"%s,', False, None, math.inf), (3, "\\", True, 7, -math.inf), (4, "", False, None, math.nan)],
])
def test_json_render_matches_json_dumps_for_any_cells(rows):
    """The rows go in place of the top-level "results" member, whatever
    text params and summary hold around it."""
    header = ("i", "text", "flag", "maybe", "value")
    text = '"results": [] ends, a quote " and a backslash \\ and\n  "results": []'
    params = {"n": 3, "seeds": [0, 1], "p": 0.123456789, "text": text}
    summary = {"k": [1.5], "results": [], "nested": {"results": [text]}}
    data = b"".join(cli_module._render(header, len(rows), _flat(rows), params,
                                       "json", 4, summary=summary))
    payload = {
        "params": {"n": 3, "seeds": [0, 1], "p": 0.1235, "text": text},
        "results": [
            {key: round(v, 4) if isinstance(v, float) else v for key, v in zip(header, row)}
            for row in rows
        ],
        "warnings": [],
        "summary": summary,
    }
    assert data == (json.dumps(payload, indent=2) + "\n").encode()


def test_csv_render_maps_bool_and_none_cells():
    rows = [(1, True, None, 0.25, "pass", False, "\u00e9")] * (CHUNK_ROWS + 2)
    chunks = list(cli_module._render(("a", "b", "c", "d", "e", "f", "g"), len(rows), _flat(rows),
                                     {}, "csv", 3))
    assert len(chunks) == 3  # the header, one full chunk, one short chunk
    assert b"".join(chunks) == (
        b"a,b,c,d,e,f,g\n" + b"1,true,,0.250,pass,false,\xc3\xa9\n" * (CHUNK_ROWS + 2)
    )


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _exists(pid):
    """Whether pid names a process, running or not yet reaped; reaps nothing."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _assert_reaped(pids):
    for pid in pids:
        assert not _exists(pid), pid


def _fairness_reference(grid: int, fmt: str, summary) -> str:
    """What `fairness --grid G` prints, built row by row from _rows()."""
    if fmt == "csv":
        return ",".join(FAIRNESS_HEADER) + "\n" + "".join(
            ",".join(f"{value:.10f}" for value in row) + "\n" for row in _rows(grid)
        )
    payload = {
        "params": {"grid": grid, "tol": 1e-10, "precision": 10},
        "results": [
            {key: round(value, 10) for key, value in zip(FAIRNESS_HEADER, row)}
            for row in _rows(grid)
        ],
        "warnings": [],
        "summary": summary,
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("grid", [2, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 5 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fairness_output_is_the_same_on_any_worker_count(monkeypatch, forks, tmp_path, grid, fmt):
    chunks = -(-grid // CHUNK_ROWS)
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli_module, "_workers", lambda: workers)
        forks.clear()
        res = invoke("fairness", "--grid", str(grid), "--format", fmt)
        assert res.exit_code == 0, res.output
        assert len(forks) == min(workers, chunks) - 1
        _assert_reaped(forks)
        target = tmp_path / f"table-{workers}"
        assert invoke("fairness", "--grid", str(grid), "--format", fmt, "--out", str(target)).exit_code == 0
        _assert_reaped(forks)
        outputs += [res.stdout, target.read_text(encoding="utf-8")]
    summary = json.loads(outputs[0])["summary"] if fmt == "json" else None
    assert outputs == [_fairness_reference(grid, fmt, summary)] * 6


@pytest.mark.parametrize("failure, reason", [
    (lambda: 1 / 0, "ZeroDivisionError: division by zero"),
    (lambda: os._exit(3), "it ended before sending them"),
])
def test_fairness_worker_failure_ends_in_one_error_line(monkeypatch, forks, failure, reason):
    from maxdiv import fairness

    grid = fairness._grid

    def failing_grid(points, start, stop):
        if start == CHUNK_ROWS:
            failure()
        return grid(points, start, stop)

    monkeypatch.setattr(fairness, "_grid", failing_grid)
    monkeypatch.setattr(cli_module, "_workers", lambda: 2)
    res = invoke("fairness", "--grid", str(3 * CHUNK_ROWS))
    assert _single_error_line(res)
    assert res.exit_code == 1
    assert f"rows {CHUNK_ROWS}..{2 * CHUNK_ROWS - 1} failed: {reason}" in res.stderr
    assert "Traceback" not in res.output
    assert len(forks) == 1
    _assert_reaped(forks)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_fairness_failed_write_ends_every_worker(monkeypatch, forks, capsys):
    """Every worker is reaped before the Error: line is written, not when
    the table's generator is collected after it."""
    live = []  # whether a worker of this test is still unreaped, at each diagnostic
    say = cli_module._say

    def say_after_looking(text):
        live.append(any(_exists(pid) for pid in forks))
        return say(text)

    monkeypatch.setattr(cli_module, "_say", say_after_looking)
    monkeypatch.setattr(cli_module, "_workers", lambda: 3)
    argv = ["fairness", "--grid", str(5 * CHUNK_ROWS + 3)]
    res = invoke(*argv, "--out", "/dev/full")
    assert _single_error_line(res)
    assert "cannot write '/dev/full'" in res.stderr
    assert len(forks) == 2
    _assert_reaped(forks)
    assert live == [False]
    forks.clear()
    # a pipe nobody reads takes the header, then refuses the first chunk
    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    with open(read_fd, "rb"), open(write_fd, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv, standalone_mode=False) == 1
    assert capsys.readouterr().err.startswith("Error: cannot write to standard output")
    assert len(forks) == 2
    _assert_reaped(forks)
    assert live == [False, False]


def test_workers_fall_back_to_one_without_fork(monkeypatch):
    assert cli_module._workers() >= 1
    monkeypatch.delattr(os, "fork")
    assert cli_module._workers() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to choose from")
def test_workers_follow_the_cpus_this_process_may_run_on():
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from maxdiv.cli import _workers\n"
            "print(_workers())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout == "1\n"


def test_workers_count_the_cpus_where_affinity_is_unknown(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli_module._workers() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli_module._workers() == 1


def _traced_fairness_peak(grid, path) -> int:
    tracemalloc.start()
    try:
        main(["fairness", "--grid", str(grid), "--out", str(path)], standalone_mode=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fairness_memory_does_not_grow_with_grid(tmp_path):
    path = tmp_path / "table.csv"
    main(["fairness", "--grid", "10", "--out", str(path)], standalone_mode=False)
    small = _traced_fairness_peak(5000, path)
    large = _traced_fairness_peak(50000, path)
    assert path.read_text().count("\n") == 50001
    assert abs(large - small) < 2**20, (small, large)


def test_fairness_closed_stdout_ends_in_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "maxdiv", "fairness", "--grid", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"x,alpha1,alpha2,alpha3,sd,mad,min_piece\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=30) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in stderr
    assert stderr.startswith("Error: cannot write to standard output:")
    assert stderr.count("\n") == 1


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor between fork and exec")
def test_fairness_stdout_closed_at_start_ends_in_one_error_line():
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "fairness", "--grid", "10"],
        stderr=subprocess.PIPE, text=True, timeout=30, preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 1
    assert proc.stderr == "Error: cannot write to standard output: it is closed\n"


def test_fairness_grid_whose_last_point_rounds_past_the_domain():
    res = invoke("fairness", "--grid", "982")
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 983
    assert lines[-1].split(",")[0] == "1.0471975512"


def test_fairness_unopenable_out_ends_in_one_error_line(tmp_path):
    target = tmp_path / "no" / "table.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "fairness", "--grid", "100000", "--out", str(target)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("Error: cannot write")
    assert proc.stderr.count("\n") == 1


def test_fairness_optimizer_error_writes_nothing(tmp_path):
    target = tmp_path / "table.csv"
    for args in (["--out", str(target)], []):
        res = invoke("fairness", "--grid", "10", "--tol", "5e-324", *args)
        assert _single_error_line(res)
        assert res.stdout == ""
    assert not target.exists()


def test_fairness_tiny_tol_terminates():
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "fairness", "--grid", "4", "--tol", "1e-20"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("\n") == 4


@pytest.mark.parametrize("tol", [0.01, 1.0])
def test_fairness_coarse_tol_keeps_interior_minimum(tol):
    """Only a bracket touching an end of [0, pi/3] may snap onto it, so a
    coarse tol still finds the MAD global minimum at x = 0.96976."""
    res = invoke("fairness", "--grid", "4", "--tol", str(tol))
    assert res.exit_code == 0
    (line,) = [line for line in res.stderr.splitlines() if line.startswith("mad_global:")]
    fields = dict(part.split("=") for part in line.split()[1:])
    assert abs(float(fields["x_star"]) - 0.96976) <= tol
    assert fields["at_boundary"] == "false"


def test_fairness_rejects_underflowing_tol():
    res = invoke("fairness", "--grid", "4", "--tol", "5e-324")
    assert _single_error_line(res)
    assert "5e-324" in res.stderr
    assert "tol/2" in res.stderr


def test_fairness_accepts_the_smallest_tol_whose_half_is_positive():
    """tol/2 of 1e-323 is the smallest positive float, so the search
    runs, and at float spacing it finds what --tol 1e-20 finds."""
    res = invoke("fairness", "--grid", "4", "--tol", "1e-323")
    assert res.exit_code == 0, res.output
    assert res.stderr == invoke("fairness", "--grid", "4", "--tol", "1e-20").stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_fairness_rejects_non_finite_tol(tol):
    res = invoke("fairness", "--grid", "4", "--tol", tol)
    assert _single_error_line(res)
    assert res.stderr == f"Error: tolerance must be positive and finite, got {float(tol)!r}\n"
    assert res.stdout == ""


def test_moments_exact_anchor():
    res = invoke("moments", "--n", "2", "--p", "0.5", "--dim", "2", "--method", "exact")
    assert res.exit_code == 0
    header, row = res.stdout.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["mean"] == "2.2500000000"
    assert fields["variance"] == "1.1875000000"
    assert fields["second_moment"] == "6.2500000000"
    assert fields["method"] == "exact"


def test_moments_exact_huge_region_counts():
    res = invoke("moments", "--n", "600", "--p", "0.1", "--dim", "600")
    assert res.exit_code == 0, res.output
    header, row = res.stdout.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["mean"]) == pytest.approx(1.1**600, rel=1e-9)
    assert float(fields["second_moment"]) == pytest.approx(1.3**600, rel=1e-9)


def test_moments_all_cuts_succeed():
    res = invoke("moments", "--n", "3", "--p", "1")
    assert res.exit_code == 0
    row = res.stdout.splitlines()[1].split(",")
    header = res.stdout.splitlines()[0].split(",")
    fields = dict(zip(header, row))
    assert fields["mean"] == "7.0000000000"
    assert fields["variance"] == "0.0000000000"


@pytest.mark.parametrize("args", [
    ("--n", "20", "--p", "0.3", "--dim", "3"),
    # the closed route overflowed at these: a huge n became a float before p scaled it down
    ("--n", str(10**80), "--p", "1e-80", "--dim", "2"),
    ("--n", str(10**110), "--p", "1e-110", "--dim", "3"),
], ids=["20-0.3-3", "1e80-1e-80-2", "1e110-1e-110-3"])
def test_moments_exact_and_closed_agree_on_stdout(args):
    exact = invoke("moments", *args, "--method", "exact").stdout.splitlines()[1].split(",")
    closed = invoke("moments", *args, "--method", "closed").stdout.splitlines()[1].split(",")
    # identical printed numbers everywhere except the method tag
    for idx, name in enumerate("n,p,dim,method,mean,variance,second_moment,window_center,window_scale".split(",")):
        if name == "method":
            continue
        assert exact[idx] == closed[idx], name


def test_moments_closed_rejects_high_dimension():
    res = invoke("moments", "--n", "5", "--p", "0.5", "--dim", "4", "--method", "closed")
    assert res.exit_code != 0
    assert "d in {2, 3}" in res.stderr


def test_moments_asymptotic_omits_second_moment():
    res = invoke("moments", "--n", "100", "--p", "0.5", "--method", "asymptotic")
    assert res.exit_code == 0
    fields = dict(zip(*[line.split(",") for line in res.stdout.splitlines()]))
    assert fields["second_moment"] == ""
    assert fields["method"] == "asymptotic"


@pytest.mark.parametrize("n, p, dim", [
    ("1000", "0.5", "1000000000"), ("1000", "0.5", "1000"), ("2", "1e-300", "200"),
])
def test_moments_asymptotic_refuses_a_dimension_past_its_form(n, p, dim):
    """Each printed a variance before: 0 for a mean of 1.2e176, 5.4e248
    where V(R) is about 10^398, and 0 at d = 200 for two cuts."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "moments", "--n", n, "--p", p, "--dim", dim, "--method", "asymptotic"],
        capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"Error: asymptotic variance needs d = 1 or d^2 <= n p, got d = {dim}\n"


def test_moments_mean_is_correctly_rounded_where_binomials_pass_the_float_range():
    """C(10^300, 3) is about 1.7e899; a float sum of the terms printed 1353534.3333330357."""
    res = invoke("moments", "--n", str(10**300), "--p", "2e-298", "--dim", "3", "--method", "asymptotic")
    assert res.exit_code == 0, res.output
    fields = dict(zip(*[line.split(",") for line in res.stdout.splitlines()]))
    assert fields["mean"] == fields["window_center"] == "1353534.3333333330"


@pytest.mark.parametrize("method", ["exact", "closed", "asymptotic"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_moments_at_a_negative_zero_p_print_no_negative_zero_moment(method, dim):
    argv = ("moments", "--n", "5", "--p", "-0.0", "--dim", dim, "--method", method)
    csv = invoke(*argv)
    assert csv.exit_code == 0, csv.output
    fields = dict(zip(*[line.split(",") for line in csv.stdout.splitlines()]))
    listed = invoke(*argv, "--format", "json")
    assert listed.exit_code == 0, listed.output
    (row,) = json.loads(listed.stdout)["results"]
    for name in ("variance", "second_moment", "window_center", "window_scale"):
        assert not fields[name].startswith("-"), name
        assert row[name] is None or math.copysign(1.0, row[name]) == 1.0, name


def test_clt_margin_matches_formula():
    res = invoke("clt", "--n", "1000", "--p", "0.25", "--samples", "10", "--seed", "3")
    assert res.exit_code == 0
    header, row = [line.split(",") for line in res.stdout.splitlines()]
    fields = dict(zip(header, row))
    margin = 0.25 * 0.75 ** (1 / 3) * 1000 ** (1 / 9)
    assert fields["margin"] == f"{margin:.10f}"
    assert fields["in_clt_regime"] == "false"


def test_clt_byte_identical_runs():
    args = ("clt", "--n", "500", "--p", "0.5", "--samples", "2000", "--seed", "9")
    assert invoke(*args).stdout == invoke(*args).stdout


def test_clt_rejects_degenerate_p():
    for p in ("1.0", "0"):
        res = invoke("clt", "--n", "100", "--p", p, "--samples", "10")
        assert res.exit_code != 0
        assert "degenerate" in res.stderr


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1.5", "-0.2"])
def test_clt_names_a_probability_outside_the_unit_interval(p):
    res = invoke("clt", "--n", "100", "--p", p, "--samples", "10")
    assert _single_error_line(res)
    assert "not a number in [0, 1]" in res.stderr
    assert "degenerate" not in res.stderr


def test_clt_wide_output_digest():
    """The clt-wide command's output, recorded from the sampler that kept
    and sorted every draw."""
    res = invoke("clt", "--n", "10000000", "--p", "0.5", "--samples", "1000000", "--seed", "7",
                 "--format", "json")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
        "ed98316b94f12b405593c316eaa9f2ff2b8f29d74cd7bd697796922787bb83a5"
    )


def _traced_clt_peak(samples) -> int:
    tracemalloc.start()
    try:
        main(["clt", "--n", "10000000", "--p", "0.5", "--samples", str(samples),
              "--out", os.devnull], standalone_mode=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_clt_memory_does_not_grow_with_samples():
    # loads numpy outside the trace
    main(["clt", "--n", "100", "--p", "0.5", "--samples", "10", "--out", os.devnull],
         standalone_mode=False)
    small = _traced_clt_peak(2**16)
    large = _traced_clt_peak(2**22)
    assert abs(large - small) < 2**20, (small, large)


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            return any(line.startswith("VmHWM:") for line in handle)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_clt_peak_rss_at_the_sample_limit():
    """The child's own high-water RSS, read by the child at exit, after a
    run that succeeds."""
    code = (
        "import os, sys\n"
        "from maxdiv.cli import main\n"
        "assert main(['clt', '--n', '10000000', '--p', '0.5', '--samples', sys.argv[1],\n"
        "             '--seed', '1', '--out', os.devnull], standalone_mode=False) == 0\n"
        "with open('/proc/self/status') as handle:\n"
        "    print(next(line.split()[1] for line in handle if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(MAX_SAMPLES)], capture_output=True,
                          text=True, check=True, timeout=120)
    assert int(proc.stdout) < 100 * 1024  # kB


def _single_error_line(res) -> bool:
    """A clean refusal: non-zero exit, one Error: line, no traceback (an
    exception out of main propagates out of invoke)."""
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    return res.exit_code != 0 and len(errors) == 1 and "Traceback" not in res.stderr


def test_clt_n_limit():
    at_limit = invoke("clt", "--n", str(MAX_CUTS), "--p", "0.9", "--samples", "5")
    assert at_limit.exit_code == 0
    assert at_limit.stdout.splitlines()[1].startswith(f"{MAX_CUTS},")
    beyond = invoke("clt", "--n", str(MAX_CUTS + 1), "--p", "0.9", "--samples", "5")
    assert _single_error_line(beyond)
    assert str(MAX_CUTS) in beyond.stderr


def test_clt_samples_limit():
    res = invoke("clt", "--n", "100", "--p", "0.5", "--samples", str(MAX_SAMPLES + 1))
    assert _single_error_line(res)
    assert str(MAX_SAMPLES) in res.stderr


def test_clt_seed_limit():
    """Seeds outside [0, 2^128 - 1] would share the stream of a seed
    inside it, while the output echoes the seed given; they are refused."""
    for seed in (-1, MAX_SEED + 1):
        res = invoke("clt", "--n", "1000", "--p", "0.3", "--samples", "1000", "--seed", str(seed))
        assert _single_error_line(res) and res.exit_code == 2
        assert f"0<=x<={MAX_SEED}" in res.stderr
    top = invoke("clt", "--n", "1000", "--p", "0.3", "--samples", "1000", "--seed", str(MAX_SEED))
    zero = invoke("clt", "--n", "1000", "--p", "0.3", "--samples", "1000", "--seed", "0")
    assert top.exit_code == zero.exit_code == 0
    assert top.stdout.splitlines()[1].split(",")[10] != zero.stdout.splitlines()[1].split(",")[10]


def test_fairness_grid_limit():
    for grid in (1, MAX_GRID + 1):
        res = invoke("fairness", "--grid", str(grid))
        assert _single_error_line(res)
        assert f"2<=x<={MAX_GRID}" in res.stderr
        assert res.stdout == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_clt_refuses_a_term_past_the_float_range(fmt):
    """term1 is about 5e308 here: CSV would print inf, and JSON has no
    Infinity."""
    res = invoke("clt", "--n", "1000", "--p", "1e-200", "--samples", "3", "--format", fmt)
    assert _single_error_line(res) and res.exit_code == 1
    assert "term1 is inf, not a finite number, at --n 1000 --p 1e-200" in res.stderr
    assert res.stdout == ""


def test_clt_rejects_underflowing_sigma():
    res = invoke("clt", "--n", "2", "--p", "1e-300", "--samples", "10")
    assert _single_error_line(res)
    assert "underflows" in res.stderr


def test_moments_rejects_nan_p():
    res = invoke("moments", "--n", "5", "--p", "nan")
    assert _single_error_line(res)
    assert "nan" in res.stderr


@pytest.mark.parametrize("method, dim, n", [
    ("closed", "2", 10**200),
    ("asymptotic", "3", 10**72),
    ("exact", "1000000", 2000),  # E(R) = 1.5^2000: d overflows it, not n
])
def test_moments_reports_overflowing_n(method, dim, n):
    res = invoke("moments", "--n", str(n), "--p", "0.5", "--dim", dim, "--method", method)
    assert _single_error_line(res)
    assert f"Error: at --n {n} --p 0.5 --dim {dim}, the {method} route overflows: " in res.stderr
    assert method != "asymptotic" or f"d = {dim} is about" in res.stderr
    assert method != "exact" or "the mean at d = 1000000 is past the float range" in res.stderr


@pytest.mark.parametrize("argv, outcome", [
    (["--n", "1000", "--p", "0.5", "--dim", "100000"], "Error: the exact route's variance is inf"),
    (["--n", "10", "--p", "0.5", "--dim", "100000000", "--method", "closed"], "Error: variance polynomial"),
    (["--n", "10", "--p", "0.5", "--dim", "1000000000"], "n,p,dim,"),
    (["--n", "10", "--p", "1", "--dim", "1000000000"], "n,p,dim,"),
    (["--n", "10000000", "--p", "0.5", "--dim", "10000000"],
     "Error: at --n 10000000 --p 0.5 --dim 10000000, the exact route overflows: the mean"),
    (["--n", "10000000", "--p", "1", "--dim", "10000000"],
     "Error: at --n 10000000 --p 1.0 --dim 10000000, the exact route overflows: the mean"),
    (["--n", "1028", "--p", "0.5", "--dim", "600"], "Error: the exact route's variance is inf"),
    (["--n", "1000", "--p", "0.5", "--dim", "180"], "Error: the exact route's variance is inf"),
    (["--n", str(10**400), "--p", "0.5", "--dim", "3"], f"Error: at --n {10**400} --p 0.5 --dim 3,"),
    (["--n", str(10**52), "--p", "5e-324", "--dim", "1000000000"], "n,p,dim,"),
    (["--n", "2000", "--p", "0.5", "--dim", "1000000"], "Error: at --n 2000 --p 0.5 --dim 1000000,"),
])
def test_moments_huge_dim_ends_within_a_second(argv, outcome):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "moments", *argv], capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.stdout + proc.stderr).startswith(outcome)
    assert "Traceback" not in proc.stderr
    # an n past the float range is never converted to one
    assert "convert to float" not in proc.stderr


@pytest.mark.parametrize("method, argv", [
    ("exact", ["--n", "600", "--p", "0.999999", "--dim", "600"]),
    ("exact", ["--n", "600", "--p", "1", "--dim", "600"]),
    ("closed", ["--n", str(10**52), "--p", "0.9999999", "--dim", "3"]),
    ("closed", ["--n", str(10**93), "--p", "0.5", "--dim", "2"]),  # E(R^2) is about 1.6e370
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_moments_refuses_non_finite_moments(method, argv, fmt):
    res = invoke("moments", *argv, "--method", method, "--format", fmt)
    assert _single_error_line(res)
    assert f"the {method} route's" in res.stderr
    assert "not a finite number" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("route", ["moments_exact", "moments_closed_form", "moments_asymptotic"])
@pytest.mark.parametrize("field", ["mean", "variance", "second_moment"])
def test_every_moments_route_refuses_non_finite_values(monkeypatch, route, field):
    values = {"mean": 1.0, "variance": 1.0, "second_moment": 2.0, field: math.nan}
    monkeypatch.setattr(moments_module, route, lambda model: RegionMoments(**values, method=route))
    method = {"moments_exact": "exact", "moments_closed_form": "closed"}.get(route, "asymptotic")
    res = invoke("moments", "--n", "5", "--p", "0.5", "--method", method)
    assert _single_error_line(res)
    assert f"{field} is nan" in res.stderr


@pytest.mark.parametrize("argv", [
    ["fairness", "--grid", "8"],
    ["moments", "--n", "20", "--p", "0.3", "--dim", "3", "--method", "closed"],
    ["oracle", "--n", "3", "--seeds", "0"],
])
def test_subcommands_other_than_clt_load_no_numpy(argv):
    """Nor geometry for fairness, which computes the areas itself, or for
    moments, whose routes need no region count."""
    unused = {"numpy", "scipy", "maxdiv.clt", "json", "fractions", "inspect", "dataclasses",
              "_hashlib"}
    if argv[0] in ("fairness", "moments"):
        unused.add("maxdiv.geometry")
    code = (
        "import sys\n"
        "from maxdiv.cli import main\n"
        f"main({argv!r}, standalone_mode=False)\n"
        f"print(sorted(set({sorted(unused)!r}) & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr.splitlines()[-1] == "[]"


def test_cli_import_loads_neither_numpy_nor_scipy():
    """Nor any analysis module, json or fractions: each subcommand
    imports what it uses.  Nor click, inspect or dataclasses, which cost
    more start-up time than a small run takes."""
    code = (
        "import sys, maxdiv.cli\n"
        "unused = {'numpy', 'scipy', 'json', 'fractions', 'maxdiv.clt', 'maxdiv.moments',\n"
        "          'maxdiv.fairness', 'maxdiv.geometry', 'click', 'inspect', 'dataclasses',\n"
        "          '_hashlib'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _fresh_clt(runs: list, before: str = "", after: str = "", env: dict | None = None):
    """Standard output and standard error, as bytes, of a fresh interpreter
    that runs the code before, then `clt ARGS` through main for each
    ARGS in runs, then the code after.  pytest has loaded hashlib already,
    so only a fresh interpreter shows what a clt run imports."""
    code = "\n".join([
        "import os, sys", before,
        "from maxdiv.cli import main",
        f"for args in {runs!r}:",
        "    assert main(['clt', *args], standalone_mode=False) == 0",
        after,
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, env=env, timeout=120)
    return proc.stdout, proc.stderr


def _clt_in_process(env: dict | None = None) -> list[str]:
    """OPENBLAS_NUM_THREADS, whether numpy is loaded, the thread count,
    whether _hashlib is loaded and whether a libcrypto is mapped, after
    one clt run inside a fresh interpreter."""
    stdout, _ = _fresh_clt([["--n", "1000", "--p", "0.5", "--samples", "100", "--out", os.devnull]],
                           env=env, after=(
        "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0\n"
        "maps = open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else ''\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules, threads,\n"
        "      sys.modules.get('_hashlib') is not None, 'libcrypto' in maps)"))
    return stdout.decode().split()


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc; one CPU starts no OpenBLAS worker")
def test_clt_runs_in_one_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _clt_in_process(env)[:3] == ["1", "True", "1"]


def test_clt_keeps_the_callers_openblas_thread_count():
    setting, numpy_loaded, *_ = _clt_in_process({**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert (setting, numpy_loaded) == ("2", "True")


def test_clt_leaves_openssl_unloaded():
    """numpy.random imports secrets, hmac and hashlib, which would load
    OpenSSL's libcrypto through _hashlib; the keyed stream hashes nothing.
    The maps check reads False where there is no /proc/self/maps."""
    assert _clt_in_process()[3:] == ["False", "False"]


_HASHLIB_LOADED = "print(sys.modules.get('_hashlib') is not None)"


def test_clt_loads_openssl_where_a_builtin_hash_is_missing():
    """Without _hashlib and _md5, hashlib's import would log an error and a
    traceback for md5 on standard error, so _hashlib loads as before."""
    runs = [["--n", "10000", "--p", "0.5", "--samples", "1000"]]
    stdout, stderr = _fresh_clt(runs, after=_HASHLIB_LOADED)
    assert stdout.endswith(b"\nFalse\n") and stderr == b""
    assert _fresh_clt(runs, before="sys.modules['_md5'] = None", after=_HASHLIB_LOADED) == (
        stdout[:-len(b"False\n")] + b"True\n", b"")


@pytest.mark.parametrize("args", [
    ["--n", "10000", "--p", "0.5", "--samples", "100000", "--seed", "1"],
    ["--n", str(10**7), "--p", "0.5", "--samples", str(10**6)],
    ["--n", str(10**5), "--p", "0.01"],
    ["--n", str(MAX_CUTS), "--p", "0.9"],
])
def test_clt_prints_the_same_bytes_with_and_without_openssl(args):
    runs = [args, [*args, "--format", "json"]]
    stdout, stderr = _fresh_clt(runs, after=_HASHLIB_LOADED)
    assert stdout.endswith(b"\nFalse\n") and stderr == b""
    assert _fresh_clt(runs, before="import hashlib", after=_HASHLIB_LOADED) == (
        stdout[:-len(b"False\n")] + b"True\n", b"")


def test_clt_leaves_working_hashes_to_in_process_callers():
    stdout, _ = _fresh_clt([["--n", "1000", "--p", "0.5", "--samples", "100", "--out", os.devnull]],
                           after=(
        "import hashlib, hmac, secrets\n"
        "print(sys.modules.get('_hashlib'), hashlib.sha256(b'abc').hexdigest(),\n"
        "      hmac.new(b'key', b'msg', 'sha256').hexdigest(), len(secrets.token_bytes(16)))"))
    assert stdout.split() == [
        b"None",
        b"ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        b"2d93cbc1be167bcb1637a4a23cbff01a7878f0c50ee833954ea5221bb1b8c628",
        b"16",
    ]


def test_oracle_three_chords():
    res = invoke("oracle", "--n", "3", "--seeds", "0,1,2")
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
    assert all(row[2] == "7" and row[3] == "7" and row[4] == "pass" for row in rows)


def test_oracle_single_chord():
    res = invoke("oracle", "--n", "1", "--seeds", "5")
    assert res.exit_code == 0
    assert res.stdout.splitlines()[1] == "1,5,2,2,pass"


def test_oracle_seven_chords_twenty_seeds():
    seeds = ",".join(str(s) for s in range(20))
    res = invoke("oracle", "--n", "7", "--seeds", seeds)
    assert res.exit_code == 0
    rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
    assert len(rows) == 20
    assert all(row[3] == "29" and row[4] == "pass" for row in rows)


def test_oracle_rejects_big_n():
    res = invoke("oracle", "--n", "11")
    assert res.exit_code != 0


def test_oracle_takes_no_precision():
    """Every oracle cell is an integer or a word, so --precision would
    change nothing but its own echo in params; oracle has no such option."""
    res = invoke("oracle", "--n", "3", "--seeds", "0", "--format", "json")
    assert json.loads(res.stdout)["params"] == {"n": 3, "seeds": [0]}
    res = invoke("oracle", "--n", "3", "--seeds", "0", "--precision", "3")
    assert res.exit_code == 2
    assert "No such option '--precision'" in res.stderr


@pytest.mark.parametrize("argv, status, rows", [
    # an option takes the next token as its value, even one that starts with "-"
    (["moments", "--n", "2", "--p", "-0.0", "--precision", "1"], 0, ["2,-0.0,2,exact,1.0,0.0,1.0,1.0,0.0"]),
    (["moments", "--n", "2", "--p=-0.0", "--precision", "1"], 0, ["2,-0.0,2,exact,1.0,0.0,1.0,1.0,0.0"]),
    # the last of repeated values wins, and a last "--" ends the options
    (["oracle", "--n", "2", "--n", "3", "--seeds", "0"], 0, ["3,0,7,7,pass"]),
    (["oracle", "--n", "2", "--seeds", "0", "--"], 0, ["2,0,4,4,pass"]),
    # no abbreviated names, no missing value or option, no unknown choice
    (["fairness", "--gr", "10"], 2, []),
    (["fairness", "--grid"], 2, []),
    (["oracle", "--seeds", "1"], 2, []),
    (["moments", "--n", "2", "--p", "0.5", "--method", "nope"], 2, []),
])
def test_parser_keeps_the_exit_status_and_rows_recorded_with_click(argv, status, rows):
    res = invoke(*argv)
    assert res.exit_code == status
    assert res.stdout.splitlines()[1:] == rows
    assert status == 0 or _single_error_line(res)


def test_a_missing_subcommand_is_a_usage_error():
    res = invoke()
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Usage:" in res.stderr


def test_help_before_a_command_is_the_program_help():
    res = invoke("--help", "fairness")
    assert (res.exit_code, res.stdout, res.stderr) == (0, invoke("--help").stdout, "")


def test_an_unknown_command_is_named_under_the_usage_line():
    res = invoke("bogus", "--n", "3")
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "Usage: maxdiv COMMAND [OPTIONS]\nError: No such command 'bogus'.\n")


def test_an_interrupted_run_ends_in_one_line(monkeypatch):
    def interrupted(model):
        raise KeyboardInterrupt

    monkeypatch.setattr(moments_module, "moments_exact", interrupted)
    res = invoke("moments", "--n", "5", "--p", "0.5")
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "Aborted!\n")


@pytest.mark.parametrize("command, options", [
    ("fairness", ["--grid", "--tol", "--format", "--out", "--precision"]),
    ("moments", ["--n", "--p", "--dim", "--method", "--format", "--out", "--precision"]),
    ("clt", ["--n", "--p", "--samples", "--seed", "--format", "--out", "--precision"]),
    ("oracle", ["--n", "--seeds", "--format", "--out"]),
])
def test_help_names_every_option_and_exits_0(command, options):
    for argv in ([command, "--help"], [command, "--format", "x", "--help"]):
        res = invoke(*argv)
        assert res.exit_code == 0
        assert res.stderr == ""
        assert res.stdout.startswith(f"Usage: maxdiv {command} [OPTIONS]")
        assert [line.split()[0] for line in res.stdout.splitlines() if line.startswith("  --")] == [
            "--help", *options]
    assert command in invoke("--help").stdout


# sha256 of `maxdiv --help` and of each `maxdiv COMMAND --help`, recorded
# when each option table entry still carried its own required flag
_HELP_SHA256 = {
    ("--help",): "cdcaebcde3e1cbd80f9aad8cbc1ab0a60d4dbb31eed2b36dd3d048c4944d0ae3",
    ("fairness", "--help"): "2a0328b39cce4adf9f367a399a6c6c681b8e1fc958e03530a19a3cd245263bc2",
    ("moments", "--help"): "6306f22b13d29da31108b09ba5ae45dd48c3a6456c071cca31022e881410ed2f",
    ("clt", "--help"): "bfcfbbce995c4b7671aa551accaeccae27f9eb7e8a874ed8cf693a1bb574a91a",
    ("oracle", "--help"): "9f239d0ac508412966f82f69782f5b68e76cdf19ae37f2a646a7a027afec7e56",
}


@pytest.mark.parametrize("argv, sha256", _HELP_SHA256.items())
def test_help_pages_keep_their_bytes(argv, sha256):
    res = invoke(*argv)
    assert (res.exit_code, res.stderr) == (0, "")
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == sha256


class _Refusal(ValueError):
    """A refused input, as an analysis module raises it."""


@pytest.mark.parametrize("target, error, argv", [
    ("maxdiv.fairness.minimize_mad", _Refusal, ["fairness", "--grid", "4"]),
    ("maxdiv.moments.moments_closed_form", UnsupportedDimensionError,
     ["moments", "--n", "5", "--p", "0.5", "--method", "closed"]),
    ("maxdiv.clt.sample_normality", _Refusal, ["clt", "--n", "100", "--p", "0.5", "--samples", "9"]),
    ("maxdiv.geometry.count_regions_geometric", DegenerateConfigurationError,
     ["oracle", "--n", "3", "--seeds", "0"]),
    ("maxdiv.geometry.random_chord_set", RetryBudgetError, ["oracle", "--n", "3", "--seeds", "0"]),
], ids=["fairness", "moments", "clt", "oracle", "oracle-retry-budget"])
def test_a_library_refusal_from_any_command_is_one_error_line(monkeypatch, target, error, argv):
    def refuse(*args, **kwargs):
        raise error("this input is refused")

    monkeypatch.setattr(target, refuse)
    res = invoke(*argv)
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "Error: this input is refused\n")


@pytest.mark.parametrize("seeds, reason", [
    ("1,zebra", "'zebra' is not a valid integer."), (",", "',' lists no seed."),
    # random.Random seeds with |s|, so -7 would repeat the arrangement of 7
    ("-7,7", "-7 is not in the range x>=0."),
])
def test_oracle_rejects_bad_seeds(seeds, reason):
    res = invoke("oracle", "--n", "3", "--seeds", seeds)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Usage: maxdiv oracle [OPTIONS]\nError: Invalid value for '--seeds': {reason}\n")


def test_oracle_fails_a_count_that_disagrees_with_the_formula(monkeypatch):
    """No arrangement reaches this path yet: validate_chord_set refuses
    every set that is not maximal, and a maximal set has the formula's count."""
    count = geometry_module.count_regions_geometric
    monkeypatch.setattr(geometry_module, "count_regions_geometric", lambda chords: count(chords) + 1)
    res = invoke("oracle", "--n", "3", "--seeds", "0,1")
    assert (res.exit_code, res.stderr) == (1, "")
    assert res.stdout.splitlines()[1:] == ["3,0,8,7,fail", "3,1,8,7,fail"]


def test_out_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    res = invoke("fairness", "--grid", "4", "--out", str(target))
    assert res.exit_code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,alpha1,alpha2,alpha3,sd,mad,min_piece"
    assert len(lines) == 5


def test_out_failure_is_diagnosed(tmp_path):
    res = invoke("moments", "--n", "2", "--p", "0.5", "--out", str(tmp_path / "no" / "dir.csv"))
    assert res.exit_code != 0
    assert "cannot write" in res.stderr


def test_precision_flag():
    res = invoke("moments", "--n", "2", "--p", "0.5", "--precision", "3")
    assert ",2.250,1.188,6.250," in res.stdout.splitlines()[1]


def test_unknown_flag_fails_fast():
    res = invoke("fairness", "--no-such-flag")
    assert res.exit_code != 0
    assert "no-such-flag" in res.stderr or "Usage" in res.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maxdiv", "oracle", "--n", "2", "--seeds", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2,0,4,4,pass"
