"""Every anchor in docs/PAPER_MAP.md resolves.

A backticked ``tests/….py`` path must exist, and each ``::Class`` or
``::test`` after it must be defined in that file; a bare ``::Class``
refers to the last path on the same row. A bare ``test_x`` or ``TestX``
must be defined somewhere under ``tests/``. A ``claim:ID`` must be a row
of the claim register, and every row of the register is cited.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.claims import CLAIMS

ROOT = Path(__file__).resolve().parents[1]
SPAN = re.compile(r"`([^`]+)`")
ANCHOR = re.compile(r"^(tests/[\w/]+\.py)?((?:::\w+)*)$")
BARE = re.compile(r"^(test_\w+|Test\w+)$")
CLAIM = re.compile(r"^claim:([\w-]+)$")


def the_map() -> str:
    return (ROOT / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")


def defines(source: str, name: str) -> bool:
    kind = "class" if name[0].isupper() else "def"
    return re.search(rf"^\s*{kind} {name}\b", source, re.M) is not None


def anchors(text):
    """(row number, path, [names]) for every path-rooted test anchor."""
    for row, line in enumerate(text.splitlines(), 1):
        path = None
        for span in SPAN.findall(line):
            match = ANCHOR.match(span)
            if match is None or not (match.group(1) or path and match.group(2)):
                continue
            path = match.group(1) or path
            yield row, path, [n for n in match.group(2).split("::") if n]


def spans(text, pattern):
    """(row number, captured name) for every span matching *pattern*."""
    for row, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
            match = pattern.match(span)
            if match:
                yield row, match.group(1)


def stale_anchors(text: str) -> list:
    stale = []
    for row, path, names in anchors(text):
        target = ROOT / path
        if not target.is_file():
            stale.append(f"line {row}: {path}")
            continue
        source = target.read_text(encoding="utf-8")
        if not all(defines(source, name) for name in names):
            stale.append(f"line {row}: {path}::{'::'.join(names)}")
    tests = "\n".join(
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").rglob("*.py"))
    )
    stale += [
        f"line {row}: {name}" for row, name in spans(text, BARE)
        if not defines(tests, name)
    ]
    ids = {c.id for c in CLAIMS}
    stale += [
        f"line {row}: claim:{name}" for row, name in spans(text, CLAIM)
        if name not in ids
    ]
    return stale


def test_the_map_names_test_files():
    assert sum(1 for _ in anchors(the_map())) >= 20


def test_every_test_anchor_resolves():
    assert stale_anchors(the_map()) == []


def test_every_claim_is_cited():
    cited = {name for _, name in spans(the_map(), CLAIM)}
    assert sorted(c.id for c in CLAIMS if c.id not in cited) == []


def test_an_unresolved_bare_name_or_claim_is_stale():
    text = (
        "| a | `test_no_such_test_anywhere` |\n"
        "| b | `claim:no-such-claim`, `claim:table1`, `test_paper_improvement_quotes` |\n"
    )
    assert stale_anchors(text) == [
        "line 1: test_no_such_test_anywhere",
        "line 2: claim:no-such-claim",
    ]
