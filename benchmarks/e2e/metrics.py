"""The metric catalogue: every name, unit and direction, in one place.

``BENCHMARK.json`` repeats the two lists below (a self-test keeps them in
step); bounds live only there. ``per_layer_values`` turns one repeat's
exact counts and (when traced) its span aggregates into the per-layer
metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Layers are the modules under ``src/repro``; ``sm`` is the subnet
#: manager's own glue between its sub-layers.
LAYERS = (
    "fabric", "sm", "sm.discovery", "sm.routing", "sm.lft_distribution", "mad",
    "core", "virt", "service", "sim.dataplane", "telemetry", "analysis", "obs",
)

#: ``(name, unit, better)``. Wall metrics are built from quiet times (see
#: stats.py); the ``sim_*`` metrics are simulated counts and time and
#: repeat bit for bit for one plan.
END_TO_END: List[Tuple[str, str, str]] = [
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_smps_per_op", "SMPs", "lower"),
    ("sim_s_per_op", "sim-s", "lower"),
]

#: Reported with the end-to-end metrics by the full command, but kept out
#: of BENCHMARK.json's ``end_to_end`` because they are legitimately zero
#: (no LFT SMP on the data-plane workload, no failure at baseline).
ZERO_AT_BASELINE: List[Tuple[str, str, str]] = [
    ("failed_share", "ratio", "lower"),
    ("sim_lft_smps_per_op", "SMPs", "lower"),
]

#: Metrics `compare` requires to be identical between two runs of one plan.
EXACT = ("failed_share", "sim_smps_per_op", "sim_lft_smps_per_op", "sim_s_per_op")

_EXTRAS: List[Tuple[str, str, str]] = [
    ("sim_lft_smps_per_op", "SMPs", "lower"),
    ("sm.discovery.smps", "SMPs", "lower"),
    ("sm.routing.pct_s", "s", "lower"),
    ("sm.routing.pct_s.ftree", "s", "lower"),
    ("sm.routing.pct_s.minhop", "s", "lower"),
    ("sm.routing.pct_s.dfsssp", "s", "lower"),
    ("sm.routing.pct_s.lash", "s", "lower"),
    ("sm.routing.warm_s", "s", "lower"),
    ("sm.routing.cache_hit_share", "ratio", "higher"),
    ("sm.routing.bfs_sweeps", "count", "lower"),
    ("sm.routing.sources_repaired", "count", "lower"),
    ("sm.routing.full_recomputes", "count", "lower"),
    ("sm.routing.repair_share", "ratio", "higher"),
    ("sm.lft_distribution.smps_sent", "SMPs", "lower"),
    ("sm.lft_distribution.switches_updated", "count", "lower"),
    ("sm.lft_distribution.max_blocks_per_switch", "count", "lower"),
    ("mad.smps", "SMPs", "lower"),
    ("mad.us_per_smp", "us", "lower"),
    ("mad.hops", "count", "lower"),
    ("mad.sim_serial_s", "sim-s", "lower"),
    ("mad.retransmissions", "count", "lower"),
    ("mad.timeouts", "count", "lower"),
    ("core.lft_smps_per_migration.prepopulated", "SMPs", "lower"),
    ("core.lft_smps_per_migration.dynamic", "SMPs", "lower"),
    ("core.switches_per_migration", "count", "lower"),
    ("core.max_blocks_per_switch", "count", "lower"),
    ("core.predicted_match_share", "ratio", "higher"),
    ("core.downtime_sim_s_per_migration", "sim-s", "lower"),
    ("service.submits", "count", "lower"),
    ("service.pumps", "count", "lower"),
    ("service.journal_entries", "count", "lower"),
    ("service.journal_bytes", "bytes", "lower"),
    ("service.journal_self_s", "s", "lower"),
    ("service.coalescing_ratio", "ratio", "higher"),
    ("service.smp_coalescing_ratio", "ratio", "higher"),
    ("service.queue_wait_sim_s", "sim-s", "lower"),
    ("service.recover_warm_s", "s", "lower"),
    ("service.rebuild_cold_s", "s", "lower"),
    ("service.replayed", "count", "lower"),
    ("sim.dataplane.packets", "count", "higher"),
    ("sim.dataplane.events", "count", "lower"),
    ("sim.dataplane.us_per_packet", "us", "lower"),
    ("sim.dataplane.inject_s", "s", "lower"),
    ("sim.dataplane.hoq_drops", "count", "lower"),
    ("telemetry.sweeps", "count", "lower"),
    ("telemetry.smps_per_sweep", "SMPs", "lower"),
    ("telemetry.matrix_self_s", "s", "lower"),
    ("analysis.findings", "count", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("bench.layer_sum_share", "ratio", "higher"),
    ("bench.tracing_overhead_share", "ratio", "lower"),
    ("bench.calib_spread", "ratio", "lower"),
    ("bench.rep_spread", "ratio", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    entry
    for layer in LAYERS
    for entry in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
] + _EXTRAS


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer_values(
    counts: Dict[str, float], trace: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """The per-layer metrics one repeat can give on its own; the caller
    adds ``sim_lft_smps_per_op`` and ``bench.*``. Span-derived ones are 0
    for an untraced repeat."""
    layers = (trace or {}).get("layers", {})
    names = (trace or {}).get("names", {})
    values: Dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, {})
        values[f"{layer}.calls"] = row.get("calls", 0)
        values[f"{layer}.self_s"] = row.get("self_s", 0.0)
    migrations = {
        scheme: counts.get(f"core.migrations.{scheme}", 0)
        for scheme in ("prepopulated", "dynamic")
    }
    moved = sum(migrations.values())
    derived = {
        "mad.us_per_smp": _per(values["mad.self_s"], values["mad.calls"]) * 1e6,
        "core.switches_per_migration": _per(counts.get("core.switches_updated", 0), moved),
        "core.max_blocks_per_switch": max(
            counts.get("core.max_blocks.prepopulated", 0), counts.get("core.max_blocks.dynamic", 0)
        ),
        "core.predicted_match_share": _per(counts.get("core.predicted_matches", 0), moved),
        "core.downtime_sim_s_per_migration": _per(counts.get("core.downtime_sim_s", 0), moved),
        "service.journal_self_s": names.get("service:append", 0.0),
        "service.queue_wait_sim_s": _per(
            counts.get("service.queue_wait_sim_s", 0), counts.get("service.submits", 0)
        ),
        "sim.dataplane.us_per_packet": _per(
            values["sim.dataplane.self_s"], counts.get("sim.dataplane.packets", 0)
        ) * 1e6,
        "sim.dataplane.inject_s": names.get("sim.dataplane:inject_flows", 0.0),
        "telemetry.smps_per_sweep": _per(
            counts.get("telemetry.sweep_smps", 0), counts.get("telemetry.sweeps", 0)
        ),
        "telemetry.matrix_self_s": names.get("telemetry:add", 0.0),
    }
    for scheme, count in migrations.items():
        derived[f"core.lft_smps_per_migration.{scheme}"] = _per(
            counts.get(f"core.lft_smps.{scheme}", 0), count
        )
    for name, _, _ in _EXTRAS:
        if not name.startswith(("bench.", "sim_")):
            values[name] = derived[name] if name in derived else counts.get(name, 0)
    return values
