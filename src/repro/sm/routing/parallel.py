"""Sharded per-switch work: the one worker pool of ``src/repro``.

The all-pairs distance matrix behind every engine's path computation is
``n`` independent single-source BFS sweeps — embarrassingly parallel by
switch. :func:`shard_map` cuts such a range into contiguous chunks and
fans them out over a ``ProcessPoolExecutor``, with two hard guarantees:

* **Determinism** — chunks are fixed contiguous slices of the range,
  computed without any randomness (:func:`chunk_bounds`), and returned in
  chunk order (``Executor.map`` yields results in submission order
  regardless of completion order). Each chunk runs the *same* function
  the serial path runs over the whole range, so :class:`ParallelRouter`'s
  sharded matrix is byte-identical to the serial one — not just equal,
  the same dtype and values in the same places. The byte-identity tests
  check this per preset.

* **Graceful fallback** — worker pools need ``fork``/pipes/semaphores the
  execution sandbox may deny. A missing ``fork`` start method retries with
  the platform default; any ``OSError``/``PermissionError`` (or other
  pool failure) during setup or execution drops to one serial chunk,
  which is the identical computation.

Workers inherit the chunk function and its state by fork where available;
otherwise both are shipped once per worker via the pool initializer,
never per chunk.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import bfs_distances
from repro.fabric.topology import SwitchFabricView

__all__ = ["ParallelRouter", "chunk_bounds", "resolve_workers", "shard_map"]

R = TypeVar("R")

#: Chunks per worker: small enough to balance stragglers, large enough to
#: amortize the per-chunk dispatch cost.
_CHUNKS_PER_WORKER = 4

#: Below this many switches (BFS sources) the pool spin-up costs more
#: than it saves.
_MIN_PARALLEL_SWITCHES = 64

# Worker-process state, installed by the pool initializer.
_WORKER: Optional[Tuple[Callable[..., Any], Any]] = None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob: ``None``/0 -> 1, negative -> cpu count."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)


def chunk_bounds(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous chunks ``[(lo, hi), ...]`` covering ``range(total)``.

    Pure arithmetic on ``(total, workers)`` — no randomness, no dependence
    on scheduling — so the shard layout itself is reproducible.
    """
    chunks = min(max(workers * _CHUNKS_PER_WORKER, 1), total)
    size = -(-total // chunks)  # ceil
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _init_worker(chunk_fn: Callable[..., Any], state: Any) -> None:
    global _WORKER
    _WORKER = (chunk_fn, state)


def _run_chunk(bounds: Tuple[int, int]) -> Any:
    """Run the installed chunk function over ``[lo, hi)``."""
    if _WORKER is None:
        raise RoutingError("shard worker has no state installed")
    chunk_fn, state = _WORKER
    return chunk_fn(state, *bounds)


def shard_map(
    chunk_fn: Callable[[Any, int, int], R],
    state: Any,
    total: int,
    workers: int,
) -> List[R]:
    """``chunk_fn(state, lo, hi)`` over contiguous chunks of ``range(total)``.

    Returns one result per chunk, in chunk order. It runs serially — one
    chunk, ``chunk_fn(state, 0, total)`` — when ``workers <= 1``, when
    *total* is below :data:`_MIN_PARALLEL_SWITCHES` or makes one chunk
    only, and when the pool fails; more than one result means it sharded.
    *chunk_fn* must be a module-level function (picklable by reference).
    """
    bounds = chunk_bounds(total, workers) if total else []
    if workers <= 1 or total < _MIN_PARALLEL_SWITCHES or len(bounds) < 2:
        return [chunk_fn(state, 0, total)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(bounds)),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(chunk_fn, state),
        ) as pool:
            return list(pool.map(_run_chunk, bounds))
    except (OSError, PermissionError, ValueError, RuntimeError):
        # Sandboxes without fork/pipes/semaphores land here; the serial
        # pass is the same computation, row for row.
        return [chunk_fn(state, 0, total)]


def _sweep_chunk(view: SwitchFabricView, lo: int, hi: int) -> np.ndarray:
    """BFS rows for sources ``[lo, hi)``."""
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

    def all_pairs(self, view: SwitchFabricView) -> np.ndarray:
        """The dense (n x n) hop-distance matrix of *view*."""
        rows = shard_map(_sweep_chunk, view, view.num_switches, self.workers)
        self.last_mode = "sharded" if len(rows) > 1 else "serial"
        return rows[0] if len(rows) == 1 else np.concatenate(rows)
