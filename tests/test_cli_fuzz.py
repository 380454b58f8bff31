"""Fuzz every option of every subcommand, valid and malformed values alike.

Each case runs `python -m maxdiv` in a fresh process.  It must either
succeed, or fail with exactly one stderr line starting with "Error:"
and no traceback.  JSON output must parse as strict JSON, with no
Infinity or NaN.  Valid sizes stay small (--grid <= 5000, --samples
<= 10^4), so a case that is accepted ends in about a second.
"""

import json
import math
import subprocess
import sys
import tempfile
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdiv import MAX_CUTS, MAX_SAMPLES
from maxdiv.cli import MAX_GRID

MALFORMED = st.sampled_from(["", "abc", "1.5", "0x10", "1e3", "--", "-", "nan", "inf", "1,2"])

# Floats that a float-typed option accepts, so they reach the program.
SPECIAL_FLOATS = st.sampled_from([5e-324, 1e-323, 1e-300, 0.0, -0.0, -1e-10, 1.0, 1 - 2**-53,
                                  1e300, math.nan, math.inf, -math.inf])


class Option(NamedTuple):
    """An option with the values its type accepts and the values it refuses."""

    name: str
    valid: st.SearchStrategy
    bad: st.SearchStrategy
    required: bool = False


def _ints(lo: int, hi: int, *extremes: int):
    return st.one_of(st.integers(lo, hi), st.sampled_from(extremes))


def _bad(*values):
    return st.one_of(st.sampled_from(values), MALFORMED)


OUTPUT_OPTIONS = [
    Option("--format", st.sampled_from(["csv", "json"]), MALFORMED),
    # "{tmp}" is a temporary directory; see _check
    Option("--out", st.sampled_from(["-", "{tmp}/out.txt"]),
           st.sampled_from(["/dev/full", "{tmp}", "{tmp}/missing/out.txt"])),
]

# every subcommand but oracle, whose cells hold no float
PRECISION = Option("--precision", st.integers(1, 17), _bad(0, 18, -3, 10**9))

COMMANDS = {
    "fairness": [
        Option("--grid", _ints(2, 5000, 2, 982, 2048, 2049),
               _bad(0, 1, -2, MAX_GRID + 1, 10**9, 10**13)),
        Option("--tol", st.one_of(st.floats(1e-15, 1.0), SPECIAL_FLOATS), MALFORMED),
        PRECISION,
    ],
    "moments": [
        Option("--n", _ints(1, 2000, 1000, 1001, 10**7, 10**7 + 1, 10**9, 10**52, 10**400),
               _bad(0, -2), True),
        Option("--p", st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53])),
               _bad(math.nan, math.inf, -0.1, 1.5), True),
        Option("--dim", _ints(1, 10, 2, 3, 10**6, 10**9), _bad(0, -1)),
        Option("--method", st.sampled_from(["exact", "closed", "asymptotic"]), MALFORMED),
        PRECISION,
    ],
    "clt": [
        Option("--n", _ints(2, 10**7, MAX_CUTS), _bad(0, 1, MAX_CUTS + 1, 10**30), True),
        Option("--p", st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                SPECIAL_FLOATS), MALFORMED, True),
        Option("--samples", st.integers(1, 10**4), _bad(0, -2, MAX_SAMPLES + 1, 10**30)),
        Option("--seed", _ints(0, 2**128 - 1, 0, 2**128 - 1), _bad(-1, 2**128, -(2**130), 2**130)),
        PRECISION,
    ],
    "oracle": [
        Option("--n", st.integers(1, 10), _bad(0, 11, -2, 10**9), True),
        Option("--seeds", st.one_of(
            st.lists(st.integers(0, 2**70), min_size=1, max_size=5).map(
                lambda seeds: ",".join(map(str, seeds))),
            st.sampled_from(["0,,1", "0, 1", "3,"]),
        ), st.sampled_from(["", ",", " ", "1;2", "a,b", "0x1", "1.0", "--", "-5", "3,-1"])),
    ],
}


@st.composite
def _argv(draw, command: str) -> list[str]:
    """Argv for one case: at most one option gets a value it refuses (or,
    if required, is left out); the others take values their types accept."""
    options = COMMANDS[command] + OUTPUT_OPTIONS
    # about two cases in three have no bad option
    bad = draw(st.integers(-2 * len(options), len(options) - 1))
    argv = [command]
    for index, option in enumerate(options):
        if index == bad:
            if not option.required or draw(st.booleans()):
                argv += [option.name, str(draw(option.bad))]
        elif option.required or draw(st.booleans()):
            argv += [option.name, str(draw(option.valid))]
    return argv


# The extremes every run must try, whatever the draws: the largest --dim,
# the smallest --tol, nan and inf, bad --seeds tokens and --out targets
# that cannot be written.
EDGE_CASES = [
    ["fairness", "--grid", str(MAX_GRID + 1)],
    ["fairness", "--grid", "10", "--tol", "5e-324"],
    ["fairness", "--grid", "10", "--tol", "nan"],
    ["fairness", "--grid", "10", "--tol", "inf"],
    ["fairness", "--grid", "3000", "--out", "/dev/full"],
    ["fairness", "--grid", "10", "--format", "json", "--out", "{tmp}"],
    ["fairness", "--grid", "10", "--out", "{tmp}/missing/out.txt"],
    ["moments", "--n", "1000", "--p", "0.5", "--dim", str(10**9)],
    ["moments", "--n", str(10**7), "--p", "0.5", "--dim", str(10**7)],
    ["moments", "--n", str(10**7), "--p", "1", "--dim", str(10**7)],
    ["moments", "--n", "10", "--p", "0.5", "--dim", str(10**9), "--method", "closed"],
    ["moments", "--n", str(10**80), "--p", "1e-80", "--dim", "2", "--method", "closed"],
    ["moments", "--n", str(10**110), "--p", "1e-110", "--dim", "3", "--method", "closed"],
    ["moments", "--n", str(10**400), "--p", "0.5", "--dim", "3", "--method", "exact"],
    ["moments", "--n", str(10**52), "--p", "5e-324", "--dim", str(10**9), "--method", "exact"],
    ["moments", "--n", "2000", "--p", "0.5", "--dim", str(10**6), "--method", "exact"],
    ["moments", "--n", "10", "--p", "nan"],
    ["clt", "--n", "100", "--p", "nan", "--samples", "10"],
    ["clt", "--n", "100", "--p", "inf", "--samples", "10"],
    ["clt", "--n", "100", "--p", "0.5", "--samples", "10", "--out", "/dev/full"],
    ["clt", "--n", "1000", "--p", "1e-200", "--samples", "3", "--format", "json"],
    ["oracle", "--n", "3", "--seeds", "1.0"],
    ["oracle", "--n", "3", "--seeds", "a,b"],
    ["oracle", "--n", "3", "--seeds", ","],
    ["oracle", "--n", "3", "--seeds", "-7,7"],
]


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _check(argv: list[str]) -> None:
    """Run one case; "{tmp}" in argv stands for a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace("{tmp}", tmp) for token in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "maxdiv", *argv], capture_output=True, text=True, timeout=20,
        )
        options = dict(zip(argv[1::2], argv[2::2]))
        if proc.returncode == 0 and options.get("--format") == "json":
            if options.get("--out", "-") == "-":
                text = proc.stdout
            else:
                with open(options["--out"], encoding="utf-8") as handle:
                    text = handle.read()
            json.loads(text, parse_constant=_refuse_constant)
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode != 0:
        errors = [line for line in proc.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, proc.stderr


@pytest.mark.parametrize("argv", EDGE_CASES, ids=" ".join)
def test_cli_edge_case_succeeds_or_fails_with_one_error_line(argv):
    _check(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_cli_succeeds_or_fails_with_one_error_line(command, data):
    _check(data.draw(_argv(command), label="argv"))
