"""Run export and replay: JSONL timelines and span-tree rendering.

``export_run`` persists everything a hub observed — the span forest, the
flight-recorder SMP events and a metrics snapshot reference — as one JSON
Lines file; ``load_run`` reads it back, and ``render_span_tree`` turns a
span forest (live or loaded) into the indented tree the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.flight import SmpFlightEvent
from repro.obs.hub import ObsHub
from repro.obs.spans import Span, SpanEvent

__all__ = [
    "export_run",
    "load_run",
    "LoadedRun",
    "render_span_tree",
    "render_timeline",
]


def export_run(hub: ObsHub, path: Union[str, Path]) -> int:
    """Write the hub's full timeline to *path* as JSONL; returns line count.

    Line types: one ``run`` header, ``span`` lines (depth-first, events
    embedded), and ``smp`` lines from the flight recorder.
    """
    path = Path(path)
    lines = 0
    with path.open("w", encoding="utf-8") as fp:
        header = {
            "type": "run",
            "sim_time": hub.now(),
            "spans": sum(1 for _ in hub.all_spans()),
            "smp_events": len(hub.flight),
            "smp_events_dropped": hub.flight.dropped,
        }
        fp.write(json.dumps(header, default=str))
        fp.write("\n")
        lines += 1
        for sp in hub.all_spans():
            fp.write(json.dumps(sp.to_dict(), default=str))
            fp.write("\n")
            lines += 1
        for event in hub.flight:
            fp.write(json.dumps({"type": "smp", **event.__dict__}))
            fp.write("\n")
            lines += 1
    return lines


class LoadedRun:
    """A run read back from a JSONL export."""

    def __init__(
        self,
        header: Dict[str, Any],
        roots: List[Span],
        smp_events: List[SmpFlightEvent],
    ) -> None:
        self.header = header
        self.roots = roots
        self.smp_events = smp_events

    def find_root(self, name: str) -> Optional[Span]:
        """Most recent root span named *name*."""
        for sp in reversed(self.roots):
            if sp.name == name:
                return sp
        return None


def load_run(path: Union[str, Path]) -> LoadedRun:
    """Read a JSONL run file back into spans and SMP events."""
    path = Path(path)
    header: Dict[str, Any] = {}
    spans: Dict[int, Span] = {}
    order: List[Tuple[Optional[int], Span]] = []
    smp_events: List[SmpFlightEvent] = []
    with path.open("r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from exc
            kind = obj.get("type")
            if kind == "run":
                header = obj
            elif kind == "span":
                sp = _span_from_dict(obj)
                spans[sp.span_id] = sp
                order.append((obj.get("parent"), sp))
            elif kind == "smp":
                obj.pop("type")
                smp_events.append(SmpFlightEvent(**obj))
            # Unknown line types are skipped for forward compatibility.
    roots: List[Span] = []
    for parent_id, sp in order:
        if parent_id is not None and parent_id in spans:
            spans[parent_id].add_child(sp)
        else:
            roots.append(sp)
    return LoadedRun(header=header, roots=roots, smp_events=smp_events)


def _span_from_dict(obj: Dict[str, Any]) -> Span:
    sp = Span(
        name=obj["name"],
        span_id=int(obj["id"]),
        parent_id=obj.get("parent"),
        start_time=float(obj["start"]),
        end_time=None if obj.get("end") is None else float(obj["end"]),
        attributes=dict(obj.get("attributes") or {}),
        smp_count=int(obj.get("smp_count", 0)),
        lft_smp_count=int(obj.get("lft_smp_count", 0)),
        events_dropped=int(obj.get("events_dropped", 0)),
    )
    for ev in obj.get("events") or []:
        sp.events.append(
            SpanEvent(
                time=float(ev["time"]),
                name=ev["name"],
                attributes=dict(ev.get("attributes") or {}),
            )
        )
    return sp


def render_span_tree(roots: List[Span], *, indent: str = "  ") -> str:
    """An indented, human-readable rendering of a span forest."""
    lines: List[str] = []

    def fmt_attrs(sp: Span) -> str:
        parts = [f"{k}={v}" for k, v in sp.attributes.items()]
        if sp.smp_count:
            parts.append(f"smps={sp.smp_count}")
        if sp.lft_smp_count:
            parts.append(f"lft_smps={sp.lft_smp_count}")
        return f" [{', '.join(parts)}]" if parts else ""

    def walk(sp: Span, depth: int) -> None:
        window = (
            f"{sp.start_time * 1e6:.3f}us"
            + (
                f" +{sp.duration * 1e6:.3f}us"
                if sp.end_time is not None
                else " (open)"
            )
        )
        lines.append(f"{indent * depth}{sp.name} @ {window}{fmt_attrs(sp)}")
        for child in sp.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def render_timeline(
    roots: List[Span],
    smp_events: List[SmpFlightEvent],
    *,
    max_smp_lines: int = 50,
) -> str:
    """A chronological replay: span boundaries and SMPs merged by time."""
    entries: List[Tuple[float, int, str]] = []
    for root in roots:
        for sp in root.iter_tree():
            entries.append((sp.start_time, 0, f"> start {sp.name}"))
            if sp.end_time is not None:
                entries.append((sp.end_time, 2, f"< end   {sp.name}"))
    shown = smp_events[:max_smp_lines]
    for ev in shown:
        tag = "lft" if ev.lft_update else ev.kind
        route = "DR" if ev.directed else "LID"
        entries.append(
            (
                ev.time,
                1,
                f"| smp   {tag} -> {ev.target} ({ev.hops} hops, {route},"
                f" {ev.latency * 1e6:.3f}us)",
            )
        )
    entries.sort(key=lambda e: (e[0], e[1]))
    lines = [f"{t * 1e6:12.3f}us  {text}" for t, _, text in entries]
    hidden = len(smp_events) - len(shown)
    if hidden > 0:
        lines.append(f"... {hidden} more SMP events (pass --smps to raise the cap)")
    return "\n".join(lines)
