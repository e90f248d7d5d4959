"""The subnet manager: OpenSM's role in the reproduction.

Ties together discovery, LID assignment, routing and LFT distribution, and
offers the *traditional* full-reconfiguration baseline the paper compares
against (section VI-A): recompute all paths, redistribute all LFT blocks —
``RC_t = PC_t + LFTD_t`` (equation (1)/(3)).

The vSwitch-specific fast path (swap/copy single entries, equation (4)/(5))
deliberately does NOT live here: it is the paper's contribution and is
implemented in :mod:`repro.core.reconfig`, driving this SM's transport and
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.errors import RoutingError, TopologyError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology, TopologyMutation
from repro.mad.transport import SmpTransport
from repro.obs.hub import get_hub, span
from repro.sm.discovery import DiscoveryReport, discover_subnet
from repro.sm.lft_distribution import DistributionReport, LftDistributor
from repro.sm.lid_manager import LidManager
from repro.sm.routing.base import RoutingAlgorithm, RoutingRequest, RoutingTables
from repro.sm.routing.cache import RoutingState
from repro.sm.routing.registry import create_engine

__all__ = ["ConfigureReport", "SubnetManager"]


@dataclass
class ConfigureReport:
    """Cost breakdown of one (re)configuration — the paper's RC_t.

    A failover additionally accounts the SMInfo handshake traffic
    (heartbeat/HANDOVER/ACKNOWLEDGE exchanges) and tags which sweep the
    successor paid: ``"light"`` (journal current: verify sweep plus the
    pending diff) or ``"heavy"`` (stale journal: full rediscovery and
    recompute). Downtime figures must include this traffic — the
    companion work's SM restart pays it too.
    """

    path_compute_seconds: float = 0.0  # PC_t
    distribution: DistributionReport = field(default_factory=DistributionReport)
    discovery: Optional[DiscoveryReport] = None
    #: SMInfo handshake SMPs spent negotiating a failover (heartbeats,
    #: HANDOVER/ACKNOWLEDGE, fencing probe). Zero outside failovers.
    handshake_smps: int = 0
    handshake_seconds: float = 0.0
    #: ``""`` for ordinary reconfigurations, else ``"light"``/``"heavy"``.
    sweep_mode: str = ""
    #: Journal entries the successor replayed to reconstruct state.
    journal_entries_replayed: int = 0
    #: How the routing cache absorbed a topology change: ``"incremental"``
    #: (event-chain repair, only affected BFS trees reswept), ``"full"``
    #: (chain broken, complete recompute) or ``"warm"`` (switch graph
    #: untouched). ``""`` outside :meth:`SubnetManager.handle_topology_change`.
    repair_mode: str = ""
    #: BFS source trees the incremental repair actually reswept.
    sources_repaired: int = 0

    @property
    def lft_smps(self) -> int:
        """SubnSet(LFT) SMPs sent (the n*m term)."""
        return self.distribution.smps_sent

    @property
    def control_smps(self) -> int:
        """Every SMP this operation cost: distribution, discovery sweep,
        and SMInfo handshake — the honest failover-traffic figure."""
        discovered = self.discovery.smps_sent if self.discovery else 0
        return self.distribution.smps_sent + discovered + self.handshake_smps

    @property
    def total_seconds_serial(self) -> float:
        """RC_t with serial SMP issue (equation (3))."""
        return self.path_compute_seconds + self.distribution.serial_time

    @property
    def total_seconds_pipelined(self) -> float:
        """RC_t with the SM's LFT pipelining (section VI-B)."""
        return self.path_compute_seconds + self.distribution.pipelined_time

    @property
    def downtime_seconds_serial(self) -> float:
        """Serial RC_t plus discovery and handshake time — what the
        subnet actually went without a master for during a failover."""
        discovered = self.discovery.serial_time if self.discovery else 0.0
        return self.total_seconds_serial + discovered + self.handshake_seconds


class SubnetManager:
    """An OpenSM-like subnet manager bound to one topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        engine: Union[str, RoutingAlgorithm] = "minhop",
        built: Optional[object] = None,
        transport: Optional[SmpTransport] = None,
        pipeline_window: int = 8,
        lft_smp_directed: bool = True,
        fallback_engine: Optional[str] = None,
        workers: int = 1,
    ) -> None:
        self.topology = topology
        self.built = built
        self.engine: RoutingAlgorithm = (
            create_engine(engine) if isinstance(engine, str) else engine
        )
        #: Engine to retry with when the primary cannot route the fabric —
        #: OpenSM's behaviour when e.g. ftree meets a degraded non-tree.
        self.fallback_engine: Optional[RoutingAlgorithm] = (
            create_engine(fallback_engine) if fallback_engine else None
        )
        self.transport = transport or SmpTransport(topology)
        #: What control-plane code actually sends through. Defaults to the
        #: raw transport (the exact pre-resilience behavior);
        #: :meth:`enable_resilience` swaps in a retransmitting
        #: :class:`~repro.mad.reliable.ReliableSmpSender`.
        self.smp_sender = self.transport
        #: Shared versioned routing cache: the engines' all-pairs distances
        #: and candidate table, the transport's SM-root BFS row, and the
        #: incremental post-failure repair state all live here.
        self.routing_state = RoutingState(topology, workers=workers)
        self.transport.set_distance_source(self.routing_state)
        self.lid_manager = LidManager(topology)
        self.distributor = LftDistributor(
            topology,
            self.transport,
            pipeline_window=pipeline_window,
            directed=lft_smp_directed,
        )
        self.current_tables: Optional[RoutingTables] = None
        self.last_request: Optional[RoutingRequest] = None
        #: High-availability manager, once attached (see
        #: :class:`repro.sm.ha.HighAvailabilityManager`). When set, the SM
        #: journals LID/routing/distribution changes for hot-standby
        #: replication.
        self.ha = None

    # -- resilience -----------------------------------------------------------

    def enable_resilience(self, policy=None, *, transactional: bool = True):
        """Turn on the lossy-fabric survival kit.

        Wraps the transport in a retransmitting
        :class:`~repro.mad.reliable.ReliableSmpSender` (MAD timeout +
        capped exponential backoff; *policy* is a
        :class:`~repro.mad.reliable.RetryPolicy`) and, unless
        ``transactional=False``, flips the distributor into
        read-back-verified, complete-or-rollback mode. Without faults
        injected the reliable path sends exactly the same SMPs as before
        (retries only ever trigger on a timeout), so enabling this on a
        healthy fabric changes no report. Returns the sender.
        """
        from repro.mad.reliable import ReliableSmpSender

        if not isinstance(self.smp_sender, ReliableSmpSender):
            self.smp_sender = ReliableSmpSender(self.transport, policy)
        elif policy is not None:
            self.smp_sender.policy = policy
        self.distributor.sender = self.smp_sender
        self.distributor.transactional = transactional
        return self.smp_sender

    # -- configuration steps -------------------------------------------------

    def discover(self) -> DiscoveryReport:
        """Directed-route sweep of the fabric."""
        return discover_subnet(self.topology, self.smp_sender)

    def assign_lids(self) -> Dict[str, int]:
        """Base LID assignment for switches and HCAs."""
        mapping = self.lid_manager.assign_base_lids()
        if self.ha is not None and mapping:
            self.ha.note_lids(mapping)
        return mapping

    def compute_routing(self) -> RoutingTables:
        """Run the engine; stores and returns the tables (PCt stamped).

        Falls back to :attr:`fallback_engine` (when configured) if the
        primary engine raises a :class:`~repro.errors.RoutingError`.
        """
        request = RoutingRequest.from_topology(
            self.topology, built=self.built, state=self.routing_state
        )
        cache_before = self.routing_state.stats.snapshot()
        with span("path_compute", engine=self.engine.name) as sp:
            try:
                tables = self.engine.timed_compute(request)
            except RoutingError:
                if self.fallback_engine is None:
                    raise
                tables = self.fallback_engine.timed_compute(request)
                tables.metadata["fallback_from"] = self.engine.name
                sp.set_attribute("fallback_to", self.fallback_engine.name)
            sp.set_attribute("seconds", tables.compute_seconds)
            delta = self.routing_state.stats.delta_since(cache_before)
            sp.set_attribute("cache_hit", delta["misses"] == 0)
            sp.set_attribute("bfs_sweeps", delta["bfs_sweeps"])
            sp.set_attribute("sources_repaired", delta["sources_repaired"])
            sp.set_attribute("workers", self.routing_state.router.workers)
            sp.set_attribute(
                "compute_mode", self.routing_state.router.last_mode
            )
        metrics = get_hub().metrics
        metrics.counter("repro_path_computations_total").add(1)
        metrics.gauge(
            "repro_path_compute_seconds", engine=self.engine.name
        ).set(tables.compute_seconds)
        metrics.counter("repro_routing_cache_hits_total").add(delta["hits"])
        metrics.counter("repro_routing_cache_misses_total").add(
            delta["misses"]
        )
        metrics.counter("repro_routing_cache_repairs_total").add(
            delta["repairs"]
        )
        metrics.counter("repro_routing_bfs_sweeps_total").add(
            delta["bfs_sweeps"]
        )
        metrics.counter("repro_routing_repair_sources_total").add(
            delta["sources_repaired"]
        )
        self.current_tables = tables
        self.last_request = request
        if self.ha is not None:
            self.ha.note_tables(tables)
        return tables

    def distribute(self, *, force_full: bool = False) -> DistributionReport:
        """Send the current tables to the switches."""
        if self.current_tables is None:
            raise RoutingError("no routing computed yet")
        report = self.distributor.distribute(
            self.current_tables, force_full=force_full
        )
        if self.ha is not None:
            self.ha.note_distribution(self.current_tables, report)
        return report

    # -- high-level flows -------------------------------------------------------

    def initial_configure(self, *, with_discovery: bool = True) -> ConfigureReport:
        """Bring a fresh subnet up: discover, assign LIDs, route, distribute."""
        report = ConfigureReport()
        with span("initial_configure", engine=self.engine.name):
            if with_discovery:
                report.discovery = self.discover()
            self.assign_lids()
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute()
        self._expose(report, phase="initial_configure")
        return report

    def full_reconfigure(self) -> ConfigureReport:
        """The traditional baseline: recompute everything, resend every block.

        This is what a LID change would trigger without the paper's
        mechanism — the several-minutes path the vSwitch reconfiguration
        eliminates.
        """
        report = ConfigureReport()
        with span("full_reconfigure", engine=self.engine.name):
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute(force_full=True)
        self._expose(report, phase="full_reconfigure")
        return report

    def incremental_reroute(self) -> ConfigureReport:
        """Recompute paths but send only changed blocks (diff distribution)."""
        report = ConfigureReport()
        with span("incremental_reroute", engine=self.engine.name):
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute(force_full=False)
        self._expose(report, phase="incremental_reroute")
        return report

    def handle_link_failure(self, link) -> ConfigureReport:
        """React to a failed inter-switch cable.

        The SM unplugs the cable, re-sweeps (heavy-sweep style), recomputes
        paths and distributes only the changed LFT blocks. This is the
        *legitimate* use of reconfiguration the paper contrasts with VM
        migration: a topology change genuinely requires path recomputation,
        a moved LID does not.

        Raises :class:`~repro.errors.TopologyError` (from validation) if
        the failure partitions the switch fabric.
        """
        # Capture the endpoint switch indices before unplugging: the
        # routing cache repairs only the BFS trees whose shortest paths
        # could have crossed this cable.
        end_a, end_b = link.ends
        u = end_a.node.index if isinstance(end_a.node, Switch) else -1
        v = end_b.node.index if isinstance(end_b.node, Switch) else -1
        # remove_link bumps the version exactly once (sw-sw cables only),
        # so the note below completes an unbroken repair chain; an HCA
        # cable failure leaves the switch graph — and the cache — warm.
        self.topology.remove_link(link)
        self.transport.invalidate_distances()
        if u >= 0 and v >= 0:
            self.routing_state.note_link_failure(u, v)
        self.topology.validate()
        report = ConfigureReport()
        with span("link_failure_reroute"):
            report.discovery = self.discover()
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute()
        self._expose(report, phase="link_failure")
        return report

    def handle_switch_failure(self, switch) -> ConfigureReport:
        """React to a dead (non-leaf) switch: remove it and reroute.

        The switch's LID is released, its cables unplugged, the remaining
        fabric validated (a partition aborts), and a fresh routing
        distributed. Raises :class:`~repro.errors.TopologyError` if the
        switch hosts HCAs (leaf failures strand hosts — a virtualization-
        layer problem, not a routing one).
        """
        if switch.lid is not None and self.topology.port_of_lid(switch.lid):
            self.lid_manager.release_lid(switch.lid)
            switch.lid = None
        failed_index = switch.index
        self.topology.remove_switch(switch)
        self.routing_state.note_switch_removal(failed_index)
        self.transport.invalidate_distances()
        self.topology.validate()
        report = ConfigureReport()
        with span("switch_failure_reroute", switch=switch.name):
            report.discovery = self.discover()
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute()
        self._expose(report, phase="switch_failure")
        return report

    # -- live topology mutation --------------------------------------------------

    def apply_topology_mutation(self, mutation: TopologyMutation):
        """Apply one planned topology change to the subnet state.

        Mutates the topology, records the matching routing-cache repair
        event(s), assigns LIDs to new elements, keeps the builder's level
        metadata total, journals the mutation for hot standbys and counts
        it in ``repro_topology_mutations_total``. Returns the affected
        :class:`~repro.fabric.link.Link` or
        :class:`~repro.fabric.node.Switch`.

        This is the *state* half only — no SMPs are sent. Use
        :meth:`handle_topology_change` for the full converge-and-verify
        flow, or call this from a deferred trap pipeline and reroute in a
        batch later.
        """
        topology = self.topology
        result: object
        if mutation.kind in ("add_link", "restore_link"):
            node_a = topology.node(mutation.a)
            node_b = topology.node(mutation.b)
            result = topology.add_link(
                node_a,
                mutation.port_a,
                node_b,
                mutation.port_b,
                latency=mutation.latency,
            )
            if isinstance(node_a, Switch) and isinstance(node_b, Switch):
                if mutation.kind == "restore_link":
                    self.routing_state.note_link_restored(
                        node_a.index, node_b.index
                    )
                else:
                    self.routing_state.note_link_addition(
                        node_a.index, node_b.index
                    )
        elif mutation.kind == "remove_link":
            port = topology.node(mutation.a).port(mutation.port_a)
            link = port.link
            if link is None:
                raise TopologyError(
                    f"no cable at {mutation.a}:{mutation.port_a} to remove"
                )
            end_a, end_b = link.ends
            u = end_a.node.index if isinstance(end_a.node, Switch) else -1
            v = end_b.node.index if isinstance(end_b.node, Switch) else -1
            result = topology.remove_link(link)
            if u >= 0 and v >= 0:
                self.routing_state.note_link_failure(u, v)
        elif mutation.kind == "add_switch":
            sw = topology.add_switch(mutation.a, mutation.num_ports)
            self.routing_state.note_switch_addition(sw.index)
            for local_port, peer_name, peer_port in mutation.cables:
                peer = topology.node(peer_name)
                topology.add_link(sw, local_port, peer, peer_port)
                if isinstance(peer, Switch):
                    self.routing_state.note_link_addition(
                        sw.index, peer.index
                    )
            level = getattr(self.built, "level", None)
            if mutation.level >= 0 and isinstance(level, dict):
                level[sw.name] = mutation.level
            self.assign_lids()
            result = sw
        elif mutation.kind == "remove_switch":
            sw = topology.node(mutation.a)
            if not isinstance(sw, Switch):
                raise TopologyError(f"{mutation.a!r} is not a switch")
            if sw.attached_hcas():
                raise TopologyError(
                    f"{sw.name!r} still has HCAs attached;"
                    " evacuate them first"
                )
            if sw.lid is not None and topology.port_of_lid(sw.lid):
                self.lid_manager.release_lid(sw.lid)
                sw.lid = None
            removed_index = sw.index
            topology.remove_switch(sw)
            self.routing_state.note_switch_removal(removed_index)
            level = getattr(self.built, "level", None)
            if isinstance(level, dict):
                level.pop(sw.name, None)
            result = sw
        else:  # pragma: no cover - TopologyMutation validates kinds
            raise TopologyError(f"unknown mutation kind {mutation.kind!r}")
        get_hub().metrics.counter(
            "repro_topology_mutations_total", kind=mutation.kind
        ).add(1)
        if self.ha is not None:
            self.ha.note_topology(mutation.as_dict())
        return result

    def handle_topology_change(
        self, mutation: TopologyMutation, *, verify: bool = True
    ) -> ConfigureReport:
        """Apply a mutation and converge the subnet on it.

        The runtime analogue of :meth:`initial_configure` for a living
        fabric: apply the change, re-sweep, recompute paths (repaired
        incrementally whenever the event chain allows) and distribute
        only the changed LFT blocks. With ``verify=True`` (the default) a
        full :func:`~repro.analysis.verification.verify_subnet` audit
        runs afterwards and raises on any delivery or consistency fault —
        every mutation is followed by proof of convergence.
        """
        # Snapshot BEFORE applying: journal-replication SMPs sent while
        # the mutation is applied already pull repaired distances.
        before = self.routing_state.stats.snapshot()
        self.apply_topology_mutation(mutation)
        self.transport.invalidate_distances()
        self.topology.validate()
        report = ConfigureReport()
        with span("topology_change", kind=mutation.kind) as sp:
            report.discovery = self.discover()
            tables = self.compute_routing()
            report.path_compute_seconds = tables.compute_seconds
            report.distribution = self.distribute()
            delta = self.routing_state.stats.delta_since(before)
            if delta["full_recomputes"]:
                report.repair_mode = "full"
            elif delta["repairs"]:
                report.repair_mode = "incremental"
            else:
                report.repair_mode = "warm"
            report.sources_repaired = delta["sources_repaired"]
            sp.set_attribute("repair_mode", report.repair_mode)
            sp.set_attribute("sources_repaired", report.sources_repaired)
        get_hub().metrics.counter(
            "repro_routing_repair_mode_total", mode=report.repair_mode
        ).add(1)
        self._expose(report, phase="topology_change")
        if verify:
            # Function-local import: analysis.verification imports this
            # module at load time.
            from repro.analysis.verification import verify_subnet

            verify_subnet(self).raise_if_failed()
        return report

    def _expose(self, report: ConfigureReport, *, phase: str) -> None:
        """Publish one reconfiguration's cost breakdown as labeled gauges."""
        metrics = get_hub().metrics
        metrics.gauge("repro_reconfig_lft_smps", phase=phase).set(
            report.lft_smps
        )
        metrics.gauge("repro_reconfig_switches_updated", phase=phase).set(
            report.distribution.switches_updated
        )
        metrics.gauge(
            "repro_reconfig_path_compute_seconds", phase=phase
        ).set(report.path_compute_seconds)
        metrics.gauge("repro_reconfig_serial_seconds", phase=phase).set(
            report.total_seconds_serial
        )
        metrics.gauge("repro_reconfig_pipelined_seconds", phase=phase).set(
            report.total_seconds_pipelined
        )

    # -- introspection ------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        """The paper's ``n``."""
        return self.topology.num_switches

    @property
    def lids_consumed(self) -> int:
        """Currently assigned LIDs."""
        return self.lid_manager.lids_consumed
