"""Metric primitives: counters and gauges.

Experiment harnesses accumulate results into these instead of ad-hoc dicts
so every benchmark prints comparable summaries. The
:class:`MetricRegistry` additionally supports **labeled** counters and
gauges (Prometheus-style dimensions) and can render its whole contents as
a Prometheus text exposition or a JSON snapshot — the exposition half of
the observability layer.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Tuple

from repro.errors import SimulationError

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
]

#: Label sets are canonicalized to a sorted tuple of (key, value) pairs so
#: ``counter("x", a="1", b="2")`` and ``counter("x", b="2", a="1")`` hit
#: the same series.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _labels_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    return _NAME_SANITIZER.sub("_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_series(name: str, labels: LabelKey) -> str:
    if not labels:
        return _prom_name(name)
    rendered = ",".join(
        f'{_prom_name(k)}="{_escape_label(v)}"' for k, v in labels
    )
    return f"{_prom_name(name)}{{{rendered}}}"


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by *amount* (non-negative)."""
        if amount < 0:
            raise SimulationError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        if math.isnan(value):
            raise SimulationError(f"gauge {self.name}: NaN value")
        self.value = float(value)

    def add(self, amount: float = 1.0) -> None:
        """Adjust by *amount* (may be negative)."""
        self.set(self.value + amount)


class MetricRegistry:
    """Named metric namespace for one experiment run.

    ``counter``/``gauge`` accept optional keyword labels; each distinct
    label set is its own series, exactly as in Prometheus::

        reg.counter("repro_smp_total", kind="lft_block").add()
        reg.gauge("repro_vms_running").set(12)
        print(reg.render_prometheus())
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter (one series per label set)."""
        key = (name, _labels_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name)
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge (one series per label set)."""
        key = (name, _labels_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name)
        return gauge

    def reset(self) -> None:
        """Drop every registered metric (start of a fresh run)."""
        self._counters.clear()
        self._gauges.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    # -- exposition ----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat name -> value snapshot of everything registered."""
        out: Dict[str, float] = {}
        for (name, labels), c in self._counters.items():
            out[f"{_series_display(name, labels)}.count"] = float(c.value)
        for (name, labels), g in self._gauges.items():
            out[f"{_series_display(name, labels)}.value"] = g.value
        return out

    def render_prometheus(self) -> str:
        """The registry as a Prometheus text-format exposition."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def type_line(name: str, kind: str) -> None:
            prom = _prom_name(name)
            if seen_types.get(prom) != kind:
                lines.append(f"# TYPE {prom} {kind}")
                seen_types[prom] = kind

        for (name, labels), c in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{_prom_series(name, labels)} {c.value}")
        for (name, labels), g in sorted(self._gauges.items()):
            type_line(name, "gauge")
            lines.append(f"{_prom_series(name, labels)} {_fmt(g.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot_json(self) -> Dict[str, Any]:
        """The registry as a JSON-serializable dict."""
        return {
            "counters": {
                _series_display(name, labels): c.value
                for (name, labels), c in sorted(self._counters.items())
            },
            "gauges": {
                _series_display(name, labels): g.value
                for (name, labels), g in sorted(self._gauges.items())
            },
        }

    def dump_json(self) -> str:
        """:meth:`snapshot_json` rendered as a JSON string."""
        return json.dumps(self.snapshot_json(), indent=2, sort_keys=True)


def _series_display(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
