"""Pure statistics of the end-to-end benchmark (no repro imports).

The sandbox this benchmark was sized on shifts speed by 1.3-1.6x for
1-40 s at a time, so totals of back-to-back repeats spread +-13 % while
the per-op minimum over repeats spreads +-2.5 %. Every wall metric is
therefore built from **quiet times**: the minimum over repeats of one
op's wall time. Deterministic stalls (GC, cache misses of the algorithm
itself) recur in every repeat and survive the minimum; host interference
does not.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def quiet_times(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum over repeats of the same op sequence."""
    if not repeats:
        raise ValueError("quiet time needs at least one repeat")
    length = len(repeats[0])
    if any(len(r) != length for r in repeats):
        raise ValueError("repeats timed different op sequences")
    return [min(column) for column in zip(*repeats)]


def tail(values: Sequence[float]) -> Tuple[str, float, int]:
    """The highest of p99/p90 with >= 10 samples beyond it.

    Returns ``(label, value, samples_beyond)``. With fewer than 100
    samples neither percentile is supported and the slowest sample is
    returned as ``p100`` (nothing lies beyond it) so the metric stays
    defined on the 9-op bring-up workload.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    for label, share in (("p99", 0.01), ("p90", 0.10)):
        beyond = int(n * share)
        if beyond >= MIN_SAMPLES_BEYOND:
            return label, ordered[n - beyond - 1], beyond
    return "p100", ordered[-1], 0


def p90_over_p10(values: Sequence[float]) -> float:
    """How far apart the fast and the slow samples are (max/min below
    ten samples, where the percentiles are not supported)."""
    ordered = sorted(values)
    if len(ordered) < 10:
        return ordered[-1] / ordered[0]
    return ordered[int(0.9 * len(ordered))] / ordered[int(0.1 * len(ordered))]


def wall_metrics(
    step_repeats: Sequence[Sequence[float]],
    op_repeats: Sequence[Sequence[float]],
) -> Dict[str, object]:
    """Throughput and latency from per-repeat step and op wall times.

    *Steps* are what the client waited for one after another (single ops,
    or whole service bursts); *ops* are the individual requests whose
    latency a tenant sees. Both are reduced to quiet times first.
    """
    steps = quiet_times(step_repeats)
    ops = quiet_times(op_repeats)
    label, tail_s, beyond = tail(ops)
    return {
        "ops_per_s": len(ops) / sum(steps),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": label,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(ops),
        "quiet_total_s": sum(steps),
    }
