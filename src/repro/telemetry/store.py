"""Bounded ring-buffer storage for swept PMA counter samples.

The PerfManager appends one cumulative sample per (node, port, counter)
per sweep, stamped with the observability hub's sim clock. Each series is
a fixed-capacity ring: long chaos runs stay bounded (old samples are
evicted, counted in ``evictions``) while windowed rates over the recent
past stay exact. Values are the *reconstructed monotonic totals* (the
PerfManager has already unwrapped the 32-bit wire reads), so a rate is
always ``delta(value) / delta(time)`` without wrap special cases here.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["SeriesKey", "TimeSeriesStore"]

#: One series is identified by (node name, port number, counter name).
SeriesKey = Tuple[str, int, str]


class TimeSeriesStore:
    """Fixed-capacity per-series sample rings with windowed-rate queries."""

    def __init__(self, *, capacity: int = 512) -> None:
        if capacity < 2:
            raise ReproError(
                "time-series capacity must be >= 2 (rates need two samples)"
            )
        self.capacity = capacity
        self._series: Dict[SeriesKey, Deque[Tuple[float, int]]] = {}
        #: Samples ever appended (monotonic, unlike the bounded contents).
        self.samples_total = 0
        #: Samples pushed out of a full ring.
        self.evictions = 0

    # -- ingestion -----------------------------------------------------------

    def ring(self, key: SeriesKey) -> Deque[Tuple[float, int]]:
        """The live sample ring of one series (*key* with an ``int`` port),
        created empty on first use; the store keeps *key* itself.

        A writer appending ``(time, value)`` to it directly books
        ``samples_total`` and ``evictions`` itself, as :meth:`append` does.
        """
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = deque(maxlen=self.capacity)
        return ring

    def append(
        self, node: str, port: int, counter: str, time: float, value: int
    ) -> None:
        """Record one cumulative sample for (node, port, counter)."""
        ring = self.ring((node, int(port), counter))
        if len(ring) == self.capacity:
            self.evictions += 1
        ring.append((float(time), int(value)))
        self.samples_total += 1

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, key: SeriesKey) -> bool:
        return key in self._series

    def keys(self) -> List[SeriesKey]:
        """All series keys, sorted (deterministic exposition order)."""
        return sorted(self._series)

    def endpoints(self) -> List[Tuple[str, int]]:
        """Distinct (node, port) pairs with at least one sample, sorted."""
        return sorted({(k[0], k[1]) for k in self._series})

    def series(
        self, node: str, port: int, counter: str
    ) -> List[Tuple[float, int]]:
        """The retained (time, value) samples of one series, oldest first."""
        return list(self._series.get((node, int(port), counter), ()))

    def latest(
        self, node: str, port: int, counter: str
    ) -> Optional[Tuple[float, int]]:
        """Most recent (time, value) sample, or None."""
        ring = self._series.get((node, int(port), counter))
        return ring[-1] if ring else None

    @property
    def last_time(self) -> float:
        """Newest sample timestamp across all series (0.0 when empty)."""
        newest = 0.0
        for ring in self._series.values():
            if ring and ring[-1][0] > newest:
                newest = ring[-1][0]
        return newest

    def counters_at(self, node: str, port: int) -> Dict[str, int]:
        """Latest value of every counter swept on one port."""
        out: Dict[str, int] = {}
        for key in sorted(self._series):
            if key[0] == node and key[1] == int(port):
                ring = self._series[key]
                if ring:
                    out[key[2]] = ring[-1][1]
        return out

    # -- rates ---------------------------------------------------------------

    def rate(
        self,
        node: str,
        port: int,
        counter: str,
        *,
        window: Optional[float] = None,
    ) -> float:
        """Average increase per sim second over the retained samples.

        With *window* set, only samples within the trailing window (ending
        at the newest sample) contribute; if fewer than two fall inside,
        the rate falls back to the last two samples. Returns 0.0 with
        fewer than two samples total or a zero time span.
        """
        ring = self._series.get((node, int(port), counter))
        if ring is None or len(ring) < 2:
            return 0.0
        samples = list(ring)
        if window is not None:
            if window <= 0:
                raise ReproError("rate window must be positive")
            horizon = samples[-1][0] - window
            inside = [s for s in samples if s[0] >= horizon]
            samples = inside if len(inside) >= 2 else samples[-2:]
        t0, v0 = samples[0]
        t1, v1 = samples[-1]
        if t1 <= t0:
            return 0.0
        return (v1 - v0) / (t1 - t0)

    # -- export --------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable dump (sorted series, [time, value] pairs)."""
        return {
            "capacity": self.capacity,
            "samples_total": self.samples_total,
            "evictions": self.evictions,
            "series": [
                {
                    "node": key[0],
                    "port": key[1],
                    "counter": key[2],
                    "samples": [[t, v] for t, v in self._series[key]],
                }
                for key in sorted(self._series)
            ],
        }
