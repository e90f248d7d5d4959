"""AST determinism lint for the simulator (layer 2 of the static suite).

The simulator's correctness argument — byte-identical routing tables,
replayable SMP timelines, property-tested reconfiguration — only holds if
the code base is *deterministic*: no wall-clock reads outside the
observability layer, no hidden global RNG state, no iteration order
leaking out of hash-randomized ``set``\\ s in routing/SMP-ordering code,
and no exact ``==`` on floats in the cost model. These rules are enforced
syntactically over the AST; see docs/STATIC_ANALYSIS.md for the rationale
behind each rule and how to suppress one.

Rules:

========  ==============================================================
DET001    wall-clock read (``time.time``, ``datetime.now``, ...) outside
          the allowed modules — sim results must not depend on when the
          process runs; use the sim clock or ``time.perf_counter`` for
          duration measurement
DET002    unseeded RNG (``random.random()``, ``np.random.rand()``, ...)
          — only explicitly seeded ``random.Random(seed)`` /
          ``np.random.default_rng(seed)`` instances are allowed
DET003    iteration over an unordered ``set``/``frozenset`` expression in
          a routing- or SMP-ordering-critical module without ``sorted()``
          — hash randomization would reorder SMPs between runs
DET004    ``==`` / ``!=`` against a float literal in cost-model code —
          accumulated float error makes exact comparison flaky
DET005    iteration over a tuple-keyed dict (``for (a, b), v in
          d.items()`` / ``for (a, b) in d.keys()``) without ``sorted()``
          in ordering-critical routing/analysis modules — switch-pair
          keyed maps feed SMP streams and findings, and plain dict
          order follows insertion order, which differs between the
          serial and sharded construction paths
========  ==============================================================

Suppress a finding with a trailing ``# noqa: DET00x`` comment (blanket
``# noqa`` also works but is discouraged).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "LintViolation",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: rule id -> one-line description (printed by ``--list-rules``).
RULES = {
    "DET001": "wall-clock read outside the observability layer",
    "DET002": "unseeded global RNG call",
    "DET003": "unordered set iteration in ordering-critical module",
    "DET004": "exact float-literal equality in cost-model code",
    "DET005": "unsorted tuple-keyed dict iteration in ordering-critical module",
}

#: Wall-clock calls banned by DET001 (dotted-name suffixes).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Module-path prefixes (relative, posix) where DET001 is allowed: the
#: observability layer may timestamp exported artifacts with real time.
_WALL_CLOCK_ALLOWED = ("repro/obs/",)

#: Seeded RNG constructors exempt from DET002.
_SEEDED_RNG = {
    "random.Random",
    "random.SystemRandom",
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.Generator",
    "numpy.random.Generator",
    "np.random.SeedSequence",
    "numpy.random.SeedSequence",
    "np.random.PCG64",
    "numpy.random.PCG64",
}

#: Module-path prefixes where set-iteration order can reorder routing
#: decisions or SMP streams (DET003).
_ORDERING_CRITICAL = (
    "repro/sm/",
    "repro/core/",
    "repro/mad/",
    "repro/fabric/",
    "repro/virt/",
    "repro/sriov/",
    # Sweep order and analytics sort order feed SMP streams and reports.
    "repro/telemetry/",
)

#: Module-path prefixes holding cost-model / calibration float math (DET004).
_FLOAT_EQ_CRITICAL = (
    "repro/core/",
    "repro/analysis/",
    "repro/sim/",
)

#: Module-path prefixes where tuple-keyed dict iteration order can leak
#: into routing tables, SMP streams or findings (DET005): the DET003
#: scope plus the analysis layer, whose reports must be stable.
_TUPLE_KEY_CRITICAL = _ORDERING_CRITICAL + ("repro/analysis/",)

#: Set-returning method names whose result order is unordered (DET003).
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}


@dataclass(frozen=True)
class LintViolation:
    """One determinism-rule violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _module_rel(path: Path) -> str:
    """Posix path relative to the package root (starts at ``repro/`` or
    ``tools/`` when possible), used to match the per-rule module scopes."""
    parts = path.as_posix().split("/")
    for anchor in ("repro", "tools"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return path.name


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``""`` when dynamic)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


def _is_unordered(node: ast.AST) -> bool:
    """True for expressions that evaluate to a hash-ordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


def _is_tuple_keyed_iter(iter_node: ast.AST, target: "ast.AST | None") -> bool:
    """True when *iter_node* is a bare ``.items()``/``.keys()`` call whose
    unpacking *target* reveals tuple keys (DET005).

    A ``sorted(...)`` wrapper never matches (the call target is ``sorted``,
    not the dict method), and a flat ``for k, v in d.items()`` is fine —
    only a tuple in the *key* slot of the items target (``for (a, b), v
    in ...``) or a tuple target over ``.keys()`` (``for a, b in
    d.keys()``) betrays tuple keys whose order the module then depends
    on. A tuple-valued dict (``for k, (x, y) in d.items()``) is not
    implicated: its key order is whatever DET003-clean code inserted.
    """
    if target is None or not isinstance(iter_node, ast.Call):
        return False
    if iter_node.args or iter_node.keywords:
        return False
    if not isinstance(iter_node.func, ast.Attribute):
        return False
    method = iter_node.func.attr
    if method == "items":
        return (
            isinstance(target, (ast.Tuple, ast.List))
            and len(target.elts) == 2
            and isinstance(target.elts[0], (ast.Tuple, ast.List))
        )
    if method == "keys":
        return isinstance(target, (ast.Tuple, ast.List))
    return False


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_float_literal(node.operand)
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    """Collects rule violations over one module's AST."""

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.violations: List[Tuple[int, int, str, str]] = []
        self._wall_clock_ok = rel.startswith(_WALL_CLOCK_ALLOWED)
        self._ordering_critical = rel.startswith(_ORDERING_CRITICAL)
        self._float_eq_critical = rel.startswith(_FLOAT_EQ_CRITICAL)
        self._tuple_key_critical = rel.startswith(_TUPLE_KEY_CRITICAL)

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            (node.lineno, node.col_offset, rule, message)
        )

    # -- DET001 / DET002 -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            if not self._wall_clock_ok and name in _WALL_CLOCK:
                self._add(
                    node,
                    "DET001",
                    f"wall-clock call {name}() makes runs irreproducible;"
                    " use the sim clock (obs hub) or time.perf_counter for"
                    " durations",
                )
            elif name not in _SEEDED_RNG and (
                name.startswith("random.")
                or name.startswith("np.random.")
                or name.startswith("numpy.random.")
            ):
                self._add(
                    node,
                    "DET002",
                    f"global RNG call {name}() depends on interpreter-wide"
                    " state; use an explicitly seeded random.Random(seed)"
                    " or np.random.default_rng(seed) instance",
                )
        self.generic_visit(node)

    # -- DET003 / DET005 -----------------------------------------------------

    def _check_iter(
        self, iter_node: ast.AST, target: "ast.AST | None" = None
    ) -> None:
        if self._ordering_critical and _is_unordered(iter_node):
            self._add(
                iter_node,
                "DET003",
                "iterating an unordered set in an ordering-critical module;"
                " wrap the expression in sorted() to pin SMP/routing order",
            )
        if self._tuple_key_critical and _is_tuple_keyed_iter(
            iter_node, target
        ):
            self._add(
                iter_node,
                "DET005",
                "iterating a tuple-keyed dict follows insertion order, which"
                " differs between construction paths (serial vs sharded);"
                " wrap the .items()/.keys() call in sorted() to pin the"
                " routing/report order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node.target)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:  # type: ignore[attr-defined]
            self._check_iter(comp.iter, comp.target)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- DET004 --------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._float_eq_critical and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(_is_float_literal(o) for o in operands):
                self._add(
                    node,
                    "DET004",
                    "exact ==/!= against a float literal is brittle under"
                    " accumulated rounding; compare with math.isclose or an"
                    " explicit tolerance",
                )
        self.generic_visit(node)


def _suppressed(source_line: str, rule: str) -> bool:
    """True when the line carries a matching ``# noqa`` marker."""
    if "# noqa" not in source_line:
        return False
    marker = source_line.split("# noqa", 1)[1].strip()
    if not marker.startswith(":"):
        return True  # blanket "# noqa"
    listed = {r.strip() for r in marker[1:].split("#")[0].split(",")}
    return rule in listed


def lint_source(source: str, path: str) -> List[LintViolation]:
    """Lint one module's source text (entry point for tests)."""
    rel = _module_rel(Path(path))
    tree = ast.parse(source, filename=path)
    visitor = _DeterminismVisitor(rel)
    visitor.visit(tree)
    lines = source.splitlines()
    out: List[LintViolation] = []
    for line, col, rule, message in visitor.violations:
        text = lines[line - 1] if 0 < line <= len(lines) else ""
        if _suppressed(text, rule):
            continue
        out.append(
            LintViolation(
                path=path, line=line, col=col, rule=rule, message=message
            )
        )
    return out


def lint_file(path: Path) -> List[LintViolation]:
    """Lint one file on disk."""
    return lint_source(
        path.read_text(encoding="utf-8"), path.as_posix()
    )


def lint_paths(paths: Iterable[Path]) -> List[LintViolation]:
    """Lint files and/or directory trees; results sorted by location."""
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    out: List[LintViolation] = []
    for f in files:
        out.extend(lint_file(f))
    return sorted(out, key=lambda v: (v.path, v.line, v.col, v.rule))


def main(argv: Sequence[str] = ()) -> int:
    """CLI body (``python -m tools.lint``); returns the exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tools.lint",
        description="AST determinism lint (DET001-DET005) for src/repro",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    args = parser.parse_args(list(argv) or None)
    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    violations = lint_paths(Path(p) for p in args.paths)
    for v in violations:
        print(v.render())
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("determinism lint: clean")
    return 0
