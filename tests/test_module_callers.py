"""Tests for the import-graph lint (tools.lint.callers): every module
under ``src/repro`` has an importer that is not a package ``__init__``."""

import shutil
from pathlib import Path

from tools.lint.callers import ALLOWLIST, callers, check, main

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root / "repro"


SYNTHETIC = {
    "repro/__init__.py": "from repro.core import helper\n",
    "repro/__main__.py": "from repro.core import helper\nfrom repro import cli\n",
    "repro/core/__init__.py": (
        "from repro.core.used import helper\n"
        "from repro.core.orphan import lonely\n"
    ),
    "repro/core/used.py": "def helper():\n    pass\n",
    "repro/core/orphan.py": "def lonely():\n    pass\n",
    "repro/core/late.py": "X = 1\n",
    "repro/core/relative.py": "from .late import X\n",
    "repro/cli/__init__.py": (
        "from repro.cli import run_cmd\n"
        'RUN_COMMANDS = {"run": run_cmd}\n'
    ),
    "repro/cli/run_cmd.py": (
        "def run(args):\n    import repro.core.late\n"
        "    from repro.core import relative\n"
    ),
}


class TestOnSrc:
    def test_every_module_earns_a_caller(self):
        assert check(SRC) == []

    def test_allowlist_is_empty(self):
        assert ALLOWLIST == {}

    def test_cli_entry_is_clean(self, capsys):
        assert main([str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_removing_the_last_importer_fails(self, tmp_path):
        found = callers(SRC)
        module, (importer,) = next(
            (name, users) for name, users in sorted(found.items())
            if len(users) == 1
        )
        copy = tmp_path / "repro"
        shutil.copytree(SRC, copy)
        (copy / Path(*importer.split(".")[1:]).with_suffix(".py")).unlink()
        assert any(line.startswith(f"{module}:") for line in check(copy))

    def test_a_caller_less_module_is_flagged(self, tmp_path, capsys):
        copy = tmp_path / "repro"
        shutil.copytree(SRC, copy)
        (copy / "fabric" / "orphan.py").write_text("def lonely():\n    pass\n")
        init = copy / "fabric" / "__init__.py"
        init.write_text(
            init.read_text() + "from repro.fabric.orphan import lonely\n"
        )
        assert check(copy) == [
            "repro.fabric.orphan: no importer outside package __init__ files"
        ]
        assert main([str(copy)]) == 1


class TestSyntheticTree:
    def test_only_the_re_exported_orphan_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, SYNTHETIC)
        assert check(root, {}) == [
            "repro.core.orphan: no importer outside package __init__ files"
        ]

    def test_re_exports_trace_to_the_defining_module(self, tmp_path):
        found = callers(write_tree(tmp_path, SYNTHETIC))
        assert found["repro.core.used"] == {"repro.__main__"}
        assert found["repro.core.late"] == {
            "repro.cli.run_cmd", "repro.core.relative",
        }
        # Entry points need no importer and are not reported.
        assert "repro.__main__" not in found
        assert "repro.cli.run_cmd" not in found

    def test_stale_allowlist_entries_fail(self, tmp_path):
        root = write_tree(tmp_path, SYNTHETIC)
        problems = check(
            root,
            {"repro.core.orphan": "", "repro.core.used": "", "repro.gone": ""},
        )
        assert problems == [
            "repro.core.used: allowlisted but has a caller",
            "repro.gone: allowlisted but not a module",
        ]
