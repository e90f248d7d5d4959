"""Everything an SMP delivery may leave behind, in comparable (``==``) form.

The oracle suites run one scenario twice — through the kernel under test
and through its packet-by-packet reference — and require the two worlds
to be indistinguishable: :func:`observed` is what "indistinguishable"
means. Floats are compared exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.fabric.topology import Topology
from repro.mad.transport import SmpTransport
from repro.obs import get_hub
from repro.obs.spans import Span

__all__ = ["observed"]


def observed(
    topo: Topology, tr: SmpTransport, root: Optional[Span] = None
) -> Dict[str, Any]:
    """The transport's stats, both clocks, the flight ring, the span tree
    under *root* (the whole forest without one), the metric exposition,
    the order in which counter series came to be, every PMA counter, every
    hardware LFT and the fence."""
    hub = get_hub()
    stats = dataclasses.asdict(tr.stats)
    spans = hub.all_spans() if root is None else list(root.iter_tree())
    return {
        "stats": stats,
        "clock": hub.now(),
        "flight": (hub.flight.events(), hub.flight.seen, hub.flight.dropped),
        "spans": [
            {
                "name": sp.name,
                "attributes": sp.attributes,
                "smps": (sp.smp_count, sp.lft_smp_count),
                "events": sp.events,
                "events_dropped": sp.events_dropped,
                "time": (sp.start_time, sp.end_time),
            }
            for sp in spans
        ],
        "metrics": hub.metrics.render_prometheus(),
        "order": list(hub.metrics._counters),
        "pma": {
            node.name: {n: c.as_dict() for n, c in sorted(node.counters.items())}
            for node in list(topo.switches) + list(topo.hcas)
        },
        "lfts": {sw.name: row.tobytes() for sw, row in zip(topo.switches, topo.lft)},
        "generation": tr.fabric_generation,
    }
