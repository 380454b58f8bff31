"""Mutation runner: ast mutants of the functions in src/maxdiv, each run
against the tier-1 tests on a copy of the repository.

    python tests/mutate.py --list
    python tests/mutate.py --copy DIR --function _inverter sample_normality _ks

Three kinds of mutant are made in every selected function, nested
functions included: each comparison operator flipped (< and <=, > and
>=, == and !=, is and is not, in and not in), each integer constant
moved by +1 and by -1, and each statement deleted (replaced by pass).
--list prints them and runs nothing.  Otherwise the checkout, without
.git and the cache directories, is copied into DIR, which must lie
outside the repository, and for each mutant the module in the copy is
rewritten and every tests/test_*.py file is run with pytest -x, the
module's own tests/test_<module>.py first, so most mutants fail fast.
A mutant whose tests pass survives; a failing, erroring or timed-out run
kills it.  A run times out after twice the unmutated run plus 60 s, so
a hanging mutant costs about three runs of the suite.  On POSIX each
pytest run, and every process it starts, may map at most MEMORY_CAP
bytes, so a mutant that builds a huge object ends in a MemoryError
instead of taking the machine's memory.  The wall time of
the unmutated run, of each mutant's run and of the whole sweep is
printed, so a cap on a sweep's time can be sized from them.  The
survivors are printed at the end, after a line "N survivors", and the
copy's module is restored.  pytest does not collect this file, and it
needs only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maxdiv"
#: Left out of the copy: nothing the tests read lives there.
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_out")

#: The address-space cap (RLIMIT_AS) of each pytest run.  On a 2-vCPU
#: x86-64 VM the unmutated tier-1 run peaks at about 230 MiB of address
#: space in its pytest process, numpy's threads included; it passes under
#: a 512 MiB cap and fails under 256 MiB, so 1 GiB leaves twice the room.
MEMORY_CAP = 1 << 30

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


class Mutant(NamedTuple):
    """One change to a module: the node at position `node` of ast.walk
    over the module, and what is done there."""

    function: str
    line: int
    column: int
    node: int
    kind: str  # "flip", "int" or "delete"
    arg: int  # the operator's place, the added integer, or the statement's place
    field: str  # the statement list of a deletion
    text: str

    def describe(self) -> str:
        return f"{self.function}:{self.line}:{self.column} {self.kind} {self.text}"


def _functions(tree: ast.Module) -> dict[int, str]:
    """The name of the top-level function around each node, by id."""
    owner = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                owner[id(node)] = top.name
    return owner


def _is_docstring(parent: ast.AST, field: str, place: int, statement: ast.stmt) -> bool:
    return (place == 0 and field == "body"
            and isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str))


def mutants(source: str, names: set[str] | None) -> list[Mutant]:
    """Every mutant of the top-level functions named in names (all if None)."""
    tree = ast.parse(source)
    owner = _functions(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        function = owner.get(id(node))
        if function is None or (names is not None and function not in names):
            continue
        if isinstance(node, ast.Compare):
            for place, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    flipped = ast.Compare(node.left, [*node.ops], node.comparators)
                    flipped.ops[place] = FLIPS[type(op)]()
                    text = f"{ast.unparse(node)} -> {ast.unparse(flipped)}"
                    found.append(Mutant(function, node.lineno, node.col_offset, index, "flip",
                                        place, "", text))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                text = f"{node.value} -> {node.value + delta}"
                found.append(Mutant(function, node.lineno, node.col_offset, index, "int",
                                    delta, "", text))
        for field, value in ast.iter_fields(node):
            if not (isinstance(value, list) and value and isinstance(value[0], ast.stmt)):
                continue
            for place, statement in enumerate(value):
                if not _is_docstring(node, field, place, statement):
                    text = ast.unparse(statement).splitlines()[0]
                    found.append(Mutant(function, statement.lineno, statement.col_offset,
                                        index, "delete", place, field, text))
    return found


def apply(source: str, mutant: Mutant) -> str:
    """The module's source with the mutant made, as ast.unparse writes it."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[mutant.node]
    if mutant.kind == "flip":
        node.ops[mutant.arg] = FLIPS[type(node.ops[mutant.arg])]()
    elif mutant.kind == "int":
        node.value += mutant.arg
    else:
        statements = getattr(node, mutant.field)
        statements[mutant.arg] = ast.copy_location(ast.Pass(), statements[mutant.arg])
    return ast.unparse(tree) + "\n"


def _cap_memory() -> None:
    """Cap the address space of this process, a pytest child between fork
    and exec, at MEMORY_CAP; the processes it starts inherit the cap."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run_tests(copy: Path, tests: list[str], timeout: float) -> int | None:
    """pytest's exit status on the copy, or None on a timeout."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=_cap_memory if os.name == "posix" else None,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def run(copy: Path, module: Path, found: list[Mutant]) -> list[Mutant]:
    """The mutants of module that survive the tier-1 tests, run in copy."""
    target = copy / module.relative_to(ROOT)
    original = module.read_text(encoding="utf-8")
    own = f"tests/test_{module.stem}.py"
    files = sorted(str(path.relative_to(copy)) for path in (copy / "tests").glob("test_*.py"))
    tests = sorted(files, key=lambda name: name != own)  # the own file, if any, first
    start = time.perf_counter()
    if _run_tests(copy, tests, timeout=600) != 0:
        raise SystemExit("the tests fail on the unmutated copy")
    unmutated = time.perf_counter() - start
    print(f"{module.stem}: unmutated run {unmutated:.1f} s", flush=True)
    timeout = 60.0 + 2 * unmutated
    survivors = []
    try:
        for number, mutant in enumerate(found, 1):
            target.write_text(apply(original, mutant), encoding="utf-8")
            start = time.perf_counter()
            status = _run_tests(copy, tests, timeout)
            elapsed = time.perf_counter() - start
            if status in (4, 5):
                raise SystemExit(f"pytest could not run the tests (exit status {status})")
            verdict = "SURVIVED" if status == 0 else "timeout" if status is None else "killed"
            print(f"[{number}/{len(found)}] {verdict:8s} {elapsed:6.1f} s {mutant.describe()}", flush=True)
            if status == 0:
                survivors.append(mutant)
    finally:
        target.write_text(original, encoding="utf-8")
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", nargs="+", default=None,
                        help="module names in src/maxdiv (default: all)")
    parser.add_argument("--function", nargs="+", default=None,
                        help="top-level function names (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    parser.add_argument("--copy", type=Path, help="directory outside the repository for the copy")
    args = parser.parse_args(argv)

    names = None if args.function is None else set(args.function)
    modules = sorted(PACKAGE.glob("*.py")) if args.module is None else [
        PACKAGE / f"{name}.py" for name in args.module]
    plan = [(module, mutants(module.read_text(encoding="utf-8"), names)) for module in modules]
    if args.list:
        for module, found in plan:
            for mutant in found:
                print(f"{module.stem}.{mutant.describe()}")
        print(f"{sum(len(found) for _, found in plan)} mutants", file=sys.stderr)
        return 0

    if args.copy is None:
        parser.error("--copy DIR is needed unless --list is given")
    copy = args.copy.resolve()
    if copy == ROOT or ROOT in copy.parents:
        parser.error(f"{copy} lies inside the repository")
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*NOT_COPIED), dirs_exist_ok=True)

    start = time.perf_counter()
    survivors = []
    for module, found in plan:
        if found:
            survivors += [(module, mutant) for mutant in run(copy, module, found)]
    print(f"sweep {time.perf_counter() - start:.1f} s")
    print(f"{len(survivors)} survivors")
    for module, mutant in survivors:
        print(f"  {module.stem}.{mutant.describe()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
