"""Run a maxdiv command in this process, capturing what it writes."""

import io
import sys
from typing import NamedTuple

from maxdiv.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args: str) -> Result:
    """`maxdiv ARGS` through main(argv, standalone_mode=False), with
    standard output and standard error captured.  An exception that
    main lets out propagates, so a traceback fails the calling test."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, err
    try:
        code = main(list(args), standalone_mode=False)
        stdout.flush()
    finally:
        sys.stdout, sys.stderr = saved
    return Result(code, out.getvalue(), err.getvalue())
