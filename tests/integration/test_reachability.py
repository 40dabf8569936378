"""Every module under ``src/repro`` is reached from what a user runs.

The walk is static: it parses, and never executes, the ``import``
statements of the CLI (``repro.cli`` and ``repro.__main__``) and of every
file under ``benchmarks/`` and ``wallbench/``, then of every module those
reach, and so on.  A module that no command, figure, benchmark test or
wall-clock bench reaches is code the reproduction does not run.

A package ``__init__`` re-exports names for convenience, and such an
import runs whenever the package is imported while serving nobody by
itself.  So an import in an ``__init__.py`` counts only when that file
uses a name it binds outside ``__all__``, and ``from repro.pkg import
name`` follows a re-exported *name* to the module it comes from.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def module_path(name):
    """The source file of module *name*, or None outside the tree."""
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def parents(name):
    """*name* and every package above it: importing it runs them all."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def bindings(path):
    """``(bound name, modules it reaches)`` for each name an import
    statement in *path* binds."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, parents(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield alias.asname or alias.name, parents(node.module) + origin(
                    node.module, alias.name
                )


def origin(package, name):
    """The modules ``from package import name`` reaches beyond *package*:
    the submodule *name*, or the module a re-export of *name* comes from."""
    if module_path(f"{package}.{name}") is not None:
        return [f"{package}.{name}"]
    path = module_path(package)
    if path is None or path.name != "__init__.py":
        return []
    for bound, modules in bindings(path):
        if bound == name:
            return modules
    return []


def imported_modules(path):
    """The modules the import statements of *path* reach directly."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = set()
    for bound, modules in bindings(path):
        if path.name != "__init__.py" or bound in used:
            out.update(modules)
    return out


def reached_modules():
    roots = [PACKAGE / "cli.py", PACKAGE / "__main__.py"]
    for directory in ("benchmarks", "wallbench"):
        roots += sorted((ROOT / directory).rglob("*.py"))
    reached = set()
    pending = list(roots)
    while pending:
        path = pending.pop()
        for name in imported_modules(path):
            target = module_path(name)
            if target is not None and name not in reached:
                reached.add(name)
                pending.append(target)
    return reached | {"repro.cli", "repro.__main__"}


def test_every_module_is_reached():
    modules = {module_name(path) for path in PACKAGE.rglob("*.py")}
    unreached = sorted(modules - reached_modules())
    assert unreached == [], f"modules nothing runs: {unreached}"
