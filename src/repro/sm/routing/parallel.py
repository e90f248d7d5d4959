"""Sharded all-pairs path computation.

The all-pairs distance matrix behind every engine's path computation is
``n`` independent single-source BFS sweeps — embarrassingly parallel by
source. :class:`ParallelRouter` shards the source range into contiguous
chunks and fans them out over a ``ProcessPoolExecutor``, with two hard
guarantees:

* **Determinism** — chunks are fixed contiguous slices of the source
  range, computed without any randomness, and merged back in chunk order
  (``Executor.map`` yields results in submission order regardless of
  completion order). Row ``s`` of the result is produced by the *same*
  :func:`repro.fabric.graph.bfs_distances` call the serial path would
  make, so the sharded matrix is byte-identical to the serial one — not
  just equal, the same dtype and values in the same places. The
  byte-identity tests assert this per preset.

* **Graceful fallback** — worker pools need ``fork``/pipes/semaphores the
  execution sandbox may deny. Any ``OSError``/``PermissionError`` (or a
  missing start method) during pool setup or execution silently drops to
  the serial loop, which is the identical computation.

Workers inherit the CSR arrays by fork where available; otherwise the
picklable :class:`~repro.fabric.topology.SwitchFabricView` dataclass is
shipped once per worker via the pool initializer, never per chunk.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import all_pairs_switch_distances, bfs_distances
from repro.fabric.topology import SwitchFabricView

__all__ = ["ParallelRouter", "resolve_workers"]

#: Chunks per worker: small enough to balance stragglers, large enough to
#: amortize the per-chunk dispatch cost.
_CHUNKS_PER_WORKER = 4

#: Below this switch count the pool spin-up costs more than it saves.
_MIN_PARALLEL_SWITCHES = 64

# Worker-process state, installed by the pool initializer.
_WORKER_VIEW: Optional[SwitchFabricView] = None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob: ``None``/0 -> 1, negative -> cpu count."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)


def _init_worker(view: SwitchFabricView) -> None:
    global _WORKER_VIEW
    _WORKER_VIEW = view


def _sweep_chunk(bounds: Tuple[int, int]) -> np.ndarray:
    """BFS rows for sources ``[lo, hi)`` against the installed view."""
    lo, hi = bounds
    view = _WORKER_VIEW
    if view is None:
        raise RoutingError("BFS worker has no fabric view installed")
    out = np.empty((hi - lo, view.num_switches), dtype=np.int32)
    for i, s in enumerate(range(lo, hi)):
        out[i] = bfs_distances(view, s)
    return out


class ParallelRouter:
    """Deterministic sharded all-pairs BFS with a byte-identical serial path.

    ``workers <= 1`` (the default) never touches multiprocessing at all.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = resolve_workers(workers)
        #: How the last :meth:`all_pairs` call actually ran — ``"serial"``
        #: or ``"sharded"``; surfaced as a span attribute by the SM.
        self.last_mode = "serial"

    def chunk_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous source chunks ``[(lo, hi), ...]`` covering ``range(n)``.

        Pure arithmetic on ``(n, workers)`` — no randomness, no dependence
        on scheduling — so the shard layout itself is reproducible.
        """
        chunks = min(max(self.workers * _CHUNKS_PER_WORKER, 1), n)
        size = -(-n // chunks)  # ceil
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def all_pairs(self, view: SwitchFabricView) -> np.ndarray:
        """The dense (n x n) hop-distance matrix of *view*."""
        n = view.num_switches
        if self.workers <= 1 or n < _MIN_PARALLEL_SWITCHES:
            self.last_mode = "serial"
            return all_pairs_switch_distances(view)
        try:
            return self._all_pairs_sharded(view)
        except (OSError, PermissionError, ValueError, RuntimeError):
            # Sandboxes without fork/pipes/semaphores land here; the serial
            # loop is the same computation, row for row.
            self.last_mode = "serial"
            return all_pairs_switch_distances(view)

    def _all_pairs_sharded(self, view: SwitchFabricView) -> np.ndarray:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        n = view.num_switches
        bounds = self.chunk_bounds(n)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        out = np.empty((n, n), dtype=np.int32)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(bounds)),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(view,),
        ) as pool:
            # Executor.map yields in submission order: the merge below is
            # position-stable no matter which worker finishes first.
            for (lo, hi), rows in zip(bounds, pool.map(_sweep_chunk, bounds)):
                out[lo:hi] = rows
        self.last_mode = "sharded"
        return out
