"""Every function and class of the analysis modules has a use.

A top-level function or class of ``maxdiv.geometry``, ``fairness``,
``moments`` or ``clt`` whose name has no leading underscore must either
be referred to by code in ``src/``, or be one of the formulas the paper
states.  A private one of those modules or of ``maxdiv.cli`` must be
referred to by code in ``src/``.  Code that only tests call belongs in
``tests/``.  Every name a ``src/maxdiv`` module or a test module
imports must be read where it is imported.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "maxdiv"
MODULES = ("geometry", "fairness", "moments", "clt")
PRIVATE_MODULES = MODULES + ("cli",)

#: Formulas the paper states, kept whether or not src/ calls them.  A
#: listed formula keeps only itself: what it calls needs a use of its
#: own, so the list cannot keep a wrapper alive.
PAPER_FORMULAS = {
    "sd", "mad", "min_piece",
    "sd_closed_form", "mad_expanded", "exact_moments_rational",
    "second_moment_2d", "chebyshev_tail", "concentration_window",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that the code of one src/ module refers to.

    A name that is read resolves through ``from maxdiv.X import name [as
    alias]``, and otherwise to the module's own top-level name;
    ``alias.name`` resolves where ``from maxdiv import X [as alias]``
    bound alias.  A definition's references to itself do not count, and
    neither does the body of a paper formula.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "maxdiv":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("maxdiv."):
            source = node.module[len("maxdiv."):]
            names.update((alias.asname or alias.name, (source, alias.name)) for alias in node.names)
    found = set()
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        if owner in PAPER_FORMULAS:
            continue
        refs = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(names.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    refs.add((modules[node.value.id], node.attr))
        refs.discard((module, owner))
        found |= refs
    return found


def _used() -> set[tuple[str, str]]:
    used = set()
    for path in SRC.glob("*.py"):
        used |= _references(path.stem, _parse(path))
    return used


def _defined(modules, private: bool) -> set[tuple[str, str]]:
    """(module, name) of the top-level functions and classes of modules
    whose names are private, or public."""
    return {
        (module, node.name)
        for module in modules
        for node in _parse(SRC / f"{module}.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private
    }


def test_every_public_name_has_a_use_in_src_or_is_a_paper_formula():
    used = _used()
    public = _defined(MODULES, private=False)
    assert PAPER_FORMULAS <= {name for _, name in public}
    unused = sorted(
        f"{module}.{name}" for module, name in public
        if name not in PAPER_FORMULAS and (module, name) not in used
    )
    assert unused == [], f"only tests use {unused}: move them into tests/ or delete them"


def test_every_private_name_has_a_use_in_src():
    used = _used()
    unused = sorted(f"{module}.{name}" for module, name in _defined(PRIVATE_MODULES, private=True)
                    if (module, name) not in used)
    assert unused == [], f"only tests use {unused}: move them into tests/ or delete them"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that its scope never reads: the innermost
    function around the import, or the module.  ``__future__`` imports
    are skipped.  Annotations are expressions in the tree, so a name read
    only in an annotation counts as read."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, functions)]
    owner = {}
    for scope in scopes:  # outer scopes come first, so the innermost one wins
        for node in ast.walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                owner[node] = scope
    unread = []
    for node, scope in owner.items():
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = {name.id for name in ast.walk(scope)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [f"{alias.asname or alias.name} (line {node.lineno})" for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in read]
    return unread


def test_every_imported_name_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unread = {f"{path.parent.name}/{path.name}": _unread_imports(_parse(path)) for path in paths}
    assert {name: names for name, names in unread.items() if names} == {}
