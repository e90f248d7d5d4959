"""Metric primitives: counters, gauges, timers and streaming histograms.

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
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
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


class Timer:
    """Wall-clock stopwatch usable as a context manager."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.laps: List[float] = []
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is None:
            raise SimulationError(
                f"timer {self.name!r}: __exit__ without a matching __enter__"
            )
        lap = time.perf_counter() - self._start
        self.total += lap
        self.laps.append(lap)
        self._start = None

    @property
    def mean(self) -> float:
        """Mean lap duration."""
        return self.total / len(self.laps) if self.laps else 0.0


#: Default histogram bucket upper bounds: one decade ladder from 1 ns to
#: 10 s, wide enough for both MAD latencies and whole-run durations.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-9, 2)
)


class Histogram:
    """A value accumulator with percentile queries and Prometheus buckets.

    Observations are kept raw (percentiles stay exact); the *buckets*
    upper bounds only shape the cumulative ``_bucket{le=...}`` series of
    the text exposition.
    """

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        if not self.buckets:
            raise SimulationError(
                f"histogram {name}: needs at least one bucket bound"
            )
        if any(
            b2 <= b1 for b1, b2 in zip(self.buckets, self.buckets[1:])
        ) or any(math.isnan(b) for b in self.buckets):
            raise SimulationError(
                f"histogram {name}: bucket bounds must strictly increase"
            )
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        if math.isnan(value):
            raise SimulationError(f"histogram {self.name}: NaN observation")
        self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch."""
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Mean of observations (0 when empty)."""
        return float(np.mean(self._values)) if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0 when empty)."""
        return float(np.max(self._values)) if self._values else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0 when empty)."""
        return float(np.min(self._values)) if self._values else 0.0

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return float(np.sum(self._values)) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 <= q <= 100)."""
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile {q} out of [0, 100]")
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, q))

    def values(self) -> np.ndarray:
        """All observations as an array."""
        return np.asarray(self._values, dtype=np.float64)

    def bucket_counts(self) -> List[int]:
        """Cumulative observation counts per bucket bound (``le`` semantics).

        Aligned with :attr:`buckets`; observations above the last bound
        only appear in the implicit ``+Inf`` bucket (:attr:`count`).
        """
        if not self._values:
            return [0] * len(self.buckets)
        values = np.asarray(self._values, dtype=np.float64)
        return [int(np.count_nonzero(values <= b)) for b in self.buckets]


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
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

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

    def timer(self, name: str) -> Timer:
        """Get or create a timer."""
        return self._timers.setdefault(name, Timer(name))

    def histogram(
        self, name: str, *, buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        """Get or create a histogram (*buckets* applies on creation only)."""
        if name not in self._histograms:
            self._histograms[name] = (
                Histogram(name, buckets)
                if buckets is not None
                else Histogram(name)
            )
        return self._histograms[name]

    def reset(self) -> None:
        """Drop every registered metric (start of a fresh run)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._timers)
            + len(self._histograms)
        )

    # -- exposition ----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat name -> value snapshot of everything registered."""
        out: Dict[str, float] = {}
        for (name, labels), c in self._counters.items():
            out[f"{_series_display(name, labels)}.count"] = float(c.value)
        for (name, labels), g in self._gauges.items():
            out[f"{_series_display(name, labels)}.value"] = g.value
        for name, t in self._timers.items():
            out[f"{name}.total_s"] = t.total
            out[f"{name}.mean_s"] = t.mean
        for name, h in self._histograms.items():
            out[f"{name}.mean"] = h.mean
            out[f"{name}.p50"] = h.percentile(50)
            out[f"{name}.p99"] = h.percentile(99)
            out[f"{name}.max"] = h.max
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
        for name, t in sorted(self._timers.items()):
            type_line(f"{name}_seconds", "summary")
            prom = _prom_name(name)
            lines.append(f"{prom}_seconds_sum {_fmt(t.total)}")
            lines.append(f"{prom}_seconds_count {len(t.laps)}")
        for name, h in sorted(self._histograms.items()):
            # Proper Prometheus histogram exposition: cumulative buckets
            # (le semantics), then the implicit +Inf, _sum and _count.
            type_line(name, "histogram")
            prom = _prom_name(name)
            for bound, cum in zip(h.buckets, h.bucket_counts()):
                lines.append(f'{prom}_bucket{{le="{_fmt(bound)}"}} {cum}')
            lines.append(f'{prom}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{prom}_sum {_fmt(h.sum)}")
            lines.append(f"{prom}_count {h.count}")
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
            "timers": {
                name: {"total_s": t.total, "laps": len(t.laps), "mean_s": t.mean}
                for name, t in sorted(self._timers.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "p50": h.percentile(50),
                    "p99": h.percentile(99),
                    "max": h.max,
                    "buckets": [
                        [bound, cum]
                        for bound, cum in zip(h.buckets, h.bucket_counts())
                    ],
                }
                for name, h in sorted(self._histograms.items())
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
