"""Every test anchor in docs/PAPER_MAP.md resolves.

A backticked ``tests/….py`` path must exist, and each ``::Class`` or
``::test`` after it must be defined in that file; a bare ``::Class``
refers to the last path on the same row.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN = re.compile(r"`([^`]+)`")
ANCHOR = re.compile(r"^(tests/[\w/]+\.py)?((?:::\w+)*)$")


def anchors():
    """(row number, path, [names]) for every test anchor in the map."""
    text = (ROOT / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")
    for row, line in enumerate(text.splitlines(), 1):
        path = None
        for span in SPAN.findall(line):
            match = ANCHOR.match(span)
            if match is None or not (match.group(1) or path and match.group(2)):
                continue
            path = match.group(1) or path
            yield row, path, [n for n in match.group(2).split("::") if n]


def test_the_map_names_test_files():
    assert sum(1 for _ in anchors()) >= 20


def test_every_test_anchor_resolves():
    stale = []
    for row, path, names in anchors():
        target = ROOT / path
        if not target.is_file():
            stale.append(f"line {row}: {path}")
            continue
        source = target.read_text(encoding="utf-8")
        for name in names:
            kind = "class" if name[0].isupper() else "def"
            if not re.search(rf"^\s*{kind} {name}\b", source, re.M):
                stale.append(f"line {row}: {path}::{'::'.join(names)}")
    assert not stale, stale
