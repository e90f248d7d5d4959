"""Import-graph lint: every ``src/repro`` module earns a caller.

A module earns a caller when some module that is not a package
``__init__`` imports it. A package ``__init__`` re-export does not count:
``from repro.core import VSwitchReconfigurer`` is traced back through
``repro/core/__init__.py`` to ``repro.core.reconfig``, the module that
defines the name, and the importer is charged to that module.
``repro.__main__`` and the command modules registered in the CLI's
``*_COMMANDS`` tables are entry points and need no importer.

Imports anywhere in a module count, including function-local ones;
attribute access through an imported package (``repro.core.reconfig.X``
after ``import repro.core``) and string imports are not traced.

Run ``python -m tools.lint.callers [src/repro]``; exit 1 lists every
caller-less module and every stale allowlist entry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

__all__ = ["ALLOWLIST", "callers", "check", "main"]

#: Caller-less modules that may stay for now, each with the reason.
ALLOWLIST: Dict[str, str] = {}

#: Entry points besides the registered CLI commands.
_ENTRY_POINTS = ("repro.__main__",)
#: The package whose ``*_COMMANDS`` tables register command modules.
_CLI_PACKAGE = "repro.cli"


def _source(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in module *name* reads."""
    if not node.level:
        return node.module or ""
    base = name.split(".")
    if not is_package:
        base.pop()
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class _Graph:
    """Import edges between the modules under one package root."""

    def __init__(self, root: Path) -> None:
        #: Dotted module name -> parsed tree, for every file under *root*.
        self.trees: Dict[str, ast.Module] = {}
        #: The names in :attr:`trees` that are package ``__init__`` files.
        self.packages: Set[str] = set()
        for path in sorted(root.rglob("*.py")):
            parts = list(path.relative_to(root.parent).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
                self.packages.add(".".join(parts))
            self.trees[".".join(parts)] = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
        #: package -> {bound name: (source module, name there)} for the
        #: top-level ``from M import N`` statements of its ``__init__``.
        self._exports: Dict[str, Dict[str, Tuple[str, str]]] = {
            name: {
                alias.asname or alias.name: (_source(name, True, node), alias.name)
                for node in self.trees[name].body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            for name in self.packages
        }

    def resolve(self, module: str, name: str) -> str:
        """The module that defines *name* as read from *module*: a
        submodule of that name, or the target of a package re-export."""
        seen: Set[Tuple[str, str]] = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if f"{module}.{name}" in self.trees:
                return f"{module}.{name}"
            nxt = self._exports.get(module, {}).get(name)
            if nxt is None:
                break
            module, name = nxt
        return module

    def imports(self, name: str) -> Set[str]:
        """Every module of the root that module *name* imports."""
        out: Set[str] = set()
        for node in ast.walk(self.trees[name]):
            if isinstance(node, ast.Import):
                out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                src = _source(name, name in self.packages, node)
                out.update(self.resolve(src, alias.name) for alias in node.names)
        out.discard(name)
        return out & self.trees.keys()

    def entry_points(self) -> Set[str]:
        """``repro.__main__`` and the registered CLI command modules."""
        out = {m for m in _ENTRY_POINTS if m in self.trees}
        for node in getattr(self.trees.get(_CLI_PACKAGE), "body", []):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node.value, ast.Dict) and any(
                isinstance(t, ast.Name) and t.id.endswith("_COMMANDS")
                for t in targets
            ):
                out.update(
                    self.resolve(_CLI_PACKAGE, v.id)
                    for v in node.value.values
                    if isinstance(v, ast.Name)
                )
        return out


def callers(root: Path) -> Dict[str, Set[str]]:
    """Module -> the modules that import it, package ``__init__`` files
    excluded, for every non-package module under *root*."""
    graph = _Graph(root)
    modules = graph.trees.keys() - graph.packages
    out: Dict[str, Set[str]] = {name: set() for name in modules}
    for name in modules:
        for target in graph.imports(name) & modules:
            out[target].add(name)
    for name in graph.entry_points():
        out.pop(name, None)
    return out


def check(root: Path, allowlist: Dict[str, str] = ALLOWLIST) -> List[str]:
    """One line per caller-less module not in *allowlist* and per
    allowlist entry that has a caller or no longer exists."""
    found = callers(root)
    problems = [
        f"{name}: no importer outside package __init__ files"
        for name, users in sorted(found.items())
        if not users and name not in allowlist
    ]
    problems += [
        f"{name}: allowlisted but {'has a caller' if found.get(name) else 'not a module'}"
        for name in sorted(allowlist)
        if name not in found or found[name]
    ]
    return problems


def main(argv: Sequence[str] = ()) -> int:
    """CLI body (``python -m tools.lint.callers``); returns the exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tools.lint.callers",
        description="fail when a module has no importer but package __init__s",
    )
    parser.add_argument(
        "root", nargs="?", default="src/repro", help="package directory"
    )
    args = parser.parse_args(list(argv) or None)
    problems = check(Path(args.root))
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} module(s) without a caller")
        return 1
    print(f"module callers: clean ({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
