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

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.errors import RoutingError, TopologyError
from repro.fabric.link import Link
from repro.fabric.node import Switch
from repro.fabric.topology import Topology, TopologyMutation
from repro.mad.reliable import ReliableSmpSender
from repro.mad.transport import SmpTransport
from repro.obs.hub import get_hub, span
from repro.sm.discovery import DiscoveryReport, discover_subnet
from repro.sm.lft_distribution import LftDistributor, LftReport
from repro.sm.lid_manager import LidManager
from repro.sm.routing.base import RoutingAlgorithm, RoutingRequest, RoutingTables
from repro.sm.routing.cache import RoutingCacheStats, RoutingState
from repro.sm.routing.registry import create_engine

__all__ = ["ConfigureReport", "SubnetManager", "path_computations"]


def path_computations() -> int:
    """Routing computations run so far (``repro_path_computations_total``):
    an operation that leaves it unchanged computed no path (PCt = 0)."""
    return get_hub().metrics.counter("repro_path_computations_total").value


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
    distribution: LftReport = field(default_factory=LftReport)
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
        return self.distribution.lft_smps

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
        #: Routing-cache stats as of the last ``repro_routing_*`` counter
        #: update: a compute publishes the cache work done since, the
        #: repair a discovery sweep's distance row pulled included.
        self._published = self.routing_state.stats.snapshot()
        self.lid_manager = LidManager(topology)
        self.distributor = LftDistributor(topology, self.transport)
        self.current_tables: Optional[RoutingTables] = None
        self.last_request: Optional[RoutingRequest] = None
        #: High-availability manager, once attached (see
        #: :class:`repro.sm.ha.HighAvailabilityManager`). When set, the SM
        #: journals LID/routing/distribution changes for hot-standby
        #: replication.
        self.ha = None

    # -- resilience -----------------------------------------------------------

    def enable_resilience(self, policy=None):
        """Turn on the lossy-fabric survival kit.

        Wraps the transport in a retransmitting
        :class:`~repro.mad.reliable.ReliableSmpSender` (MAD timeout +
        capped exponential backoff; *policy* is a
        :class:`~repro.mad.reliable.RetryPolicy`), which also makes every
        LFT write read-back verified, complete-or-rollback
        (:attr:`LftDistributor.transactional`). Without faults injected
        the retries never trigger, so the only extra SMPs on a healthy
        fabric are the read-backs. Returns the sender.
        """
        if not isinstance(self.smp_sender, ReliableSmpSender):
            self.smp_sender = ReliableSmpSender(self.transport, policy)
        elif policy is not None:
            self.smp_sender.policy = policy
        self.distributor.sender = self.smp_sender
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
            delta = self.routing_state.stats.delta_since(cache_before)
            sp.set_attributes(
                seconds=tables.compute_seconds,
                cache_hit=delta["misses"] == 0,
                bfs_sweeps=delta["bfs_sweeps"],
                sources_repaired=delta["sources_repaired"],
                candidate_rows=delta["candidate_rows"],
                workers=self.routing_state.router.workers,
                compute_mode=self.routing_state.router.last_mode,
            )
        metrics = get_hub().metrics
        metrics.counter("repro_path_computations_total").add(1)
        metrics.gauge(
            "repro_path_compute_seconds", engine=self.engine.name
        ).set(tables.compute_seconds)
        work = self.routing_state.stats.delta_since(self._published)
        self._published = self.routing_state.stats.snapshot()
        for series, key in (
            ("repro_routing_cache_hits_total", "hits"),
            ("repro_routing_cache_misses_total", "misses"),
            ("repro_routing_cache_repairs_total", "repairs"),
            ("repro_routing_bfs_sweeps_total", "bfs_sweeps"),
            ("repro_routing_repair_sources_total", "sources_repaired"),
            ("repro_routing_candidate_rows_total", "candidate_rows"),
        ):
            metrics.counter(series).add(work[key])
        self.current_tables = tables
        self.last_request = request
        if self.ha is not None:
            self.ha.note_tables(tables)
        return tables

    def distribute(self, *, force_full: bool = False) -> LftReport:
        """Send the current tables to the switches."""
        if self.current_tables is None:
            raise RoutingError("no routing computed yet")
        report = self.distributor.distribute(
            self.current_tables, force_full=force_full
        )
        if self.ha is not None:
            self.ha.note_distribution(self.current_tables, report)
        return report

    # -- the two primitives: event -> kernel -> converge ------------------------

    def _mutate(self, mutation: TopologyMutation):
        """One mutation applied to topology, cache notes, LIDs and levels.

        A mutation that names nothing applicable raises before anything
        changes — as does a switch removal that would cut the fabric in
        two, which no inverse undoes (a re-added switch is re-indexed and
        comes back with empty LFTs).
        """
        topology, state, kind = self.topology, self.routing_state, mutation.kind
        level = getattr(self.built, "level", None)
        if kind in ("add_link", "restore_link"):
            link = topology.add_link(
                mutation.a,
                mutation.port_a,
                mutation.b,
                mutation.port_b,
                latency=mutation.latency,
            )
            restored = kind == "restore_link"
            note = state.note_link_restored if restored else state.note_link_addition
            note(*link.switch_ends)  # a cable with an HCA end records nothing
            return link
        if kind == "remove_link":
            link = topology.node(mutation.a).port(mutation.port_a).link
            if link is None:
                raise TopologyError(
                    f"no cable at {mutation.a}:{mutation.port_a} to remove"
                )
            topology.remove_link(link)
            # The cache repairs only the BFS trees that could have crossed
            # this cable; an HCA cable leaves the switch graph (and it) warm.
            u, v = link.switch_ends
            if u >= 0 and v >= 0:
                state.note_link_failure(u, v)
            return link
        if kind == "add_switch":
            sw = topology.add_switch(mutation.a, mutation.num_ports)
            state.note_switch_addition(sw.index)
            try:
                for local_port, peer_name, peer_port in mutation.cables:
                    link = topology.add_link(sw, local_port, peer_name, peer_port)
                    state.note_link_addition(*link.switch_ends)
            except TopologyError:
                self._mutate(TopologyMutation(kind="remove_switch", a=sw.name))
                raise
            if mutation.level >= 0 and isinstance(level, dict):
                level[sw.name] = mutation.level
            self.assign_lids()
            return sw
        sw = topology.node(mutation.a)
        if not isinstance(sw, Switch):
            raise TopologyError(f"{mutation.a!r} is not a switch")
        if sw.attached_hcas():
            raise TopologyError(
                f"{sw.name!r} still has HCAs attached; evacuate them first"
            )
        if topology.fabric_view().unreached(without_switch=sw.index):
            raise TopologyError(
                f"removing {sw.name!r} would disconnect the switch fabric"
            )
        if sw.lid is not None and topology.port_of_lid(sw.lid):
            self.lid_manager.release_lid(sw.lid)
            sw.lid = None
        removed_index = sw.index
        topology.remove_switch(sw)
        state.note_switch_removal(removed_index)
        if isinstance(level, dict):
            level.pop(sw.name, None)
        return sw

    def _apply(self, mutation: TopologyMutation):
        """The state kernel: apply one topology event, or refuse it whole.

        Every cable/switch event — planned mutation, failure, trap —
        changes SM state here and nowhere else: :meth:`_mutate`, the
        transport's distance row, then :meth:`Topology.validate`. An
        event the fabric cannot absorb (a stranded HCA, a cut switch
        graph) is undone by its inverse — the cache notes of the pair
        chain into a cheap repair — and the ``TopologyError`` re-raised:
        a refused event leaves the subnet as it was. Sends no SMP.
        """
        result = self._mutate(mutation)
        self.transport.invalidate_distances()
        try:
            self.topology.validate()
        except TopologyError:
            if isinstance(result, Link):
                back = "restore_link" if mutation.kind == "remove_link" else "remove_link"
                self._mutate(TopologyMutation.cable(back, result))
            elif mutation.kind == "add_switch":
                self._mutate(TopologyMutation(kind="remove_switch", a=mutation.a))
            # (_mutate refuses a cut-vertex switch removal before it starts.)
            self.transport.invalidate_distances()
            raise
        return result

    def _converge(
        self,
        name: Optional[str] = None,
        *,
        phase: Optional[str] = None,
        discover: bool = True,
        assign: Optional[Callable[[], object]] = None,
        tables: Optional[RoutingTables] = None,
        force_full: bool = False,
        repaired_since: Optional[RoutingCacheStats] = None,
        **attributes,
    ) -> ConfigureReport:
        """The converge step: discover -> route -> distribute, once.

        Every sweep that answers an event — the SM's own flows, the trap
        pump, an HA successor, the cloud bring-up — is this sequence; the
        parameters select steps. *name*/*attributes* open the caller's
        span, *phase* publishes the ``repro_reconfig_*`` gauges, *assign*
        is a bring-up's LID assignment, *tables* are adopted instead of
        computed (a light failover: PCt = 0), *repaired_since* (cache
        stats from before the event) classifies how the routing cache
        absorbed it. Trap-scoped discovery hooks in at ``discover``.
        """
        report = ConfigureReport()
        with span(name, **attributes) if name else nullcontext() as sp:
            if discover:
                report.discovery = self.discover()
            if assign is not None:
                assign()
            if tables is None:
                tables = self.compute_routing()
                report.path_compute_seconds = tables.compute_seconds
            else:
                self.current_tables = tables
            report.distribution = self.distribute(force_full=force_full)
            if repaired_since is not None:
                delta = self.routing_state.stats.delta_since(repaired_since)
                report.repair_mode = (
                    "full"
                    if delta["full_recomputes"]
                    else "incremental" if delta["repairs"] else "warm"
                )
                report.sources_repaired = delta["sources_repaired"]
                sp.set_attribute("repair_mode", report.repair_mode)
                sp.set_attribute("sources_repaired", report.sources_repaired)
        metrics = get_hub().metrics
        if repaired_since is not None:
            metrics.counter(
                "repro_routing_repair_mode_total", mode=report.repair_mode
            ).add(1)
        if phase is not None:  # the cost breakdown as labeled gauges
            for series, value in (
                ("repro_reconfig_lft_smps", report.lft_smps),
                ("repro_reconfig_switches_updated", report.distribution.switches_updated),
                ("repro_reconfig_path_compute_seconds", report.path_compute_seconds),
                ("repro_reconfig_serial_seconds", report.total_seconds_serial),
                ("repro_reconfig_pipelined_seconds", report.total_seconds_pipelined),
            ):
                metrics.gauge(series, phase=phase).set(value)
        return report

    # -- high-level flows -------------------------------------------------------

    def _reconfigure(self, name: str, **steps) -> ConfigureReport:
        """A sweep no event asked for: span and gauge phase are both *name*."""
        return self._converge(name, phase=name, engine=self.engine.name, **steps)

    def initial_configure(self, *, with_discovery: bool = True) -> ConfigureReport:
        """Bring a fresh subnet up: discover, assign LIDs, route, distribute."""
        return self._reconfigure(
            "initial_configure", discover=with_discovery, assign=self.assign_lids
        )

    def full_reconfigure(self) -> ConfigureReport:
        """The traditional baseline: recompute everything, resend every block.

        This is what a LID change would trigger without the paper's
        mechanism — the several-minutes path the vSwitch reconfiguration
        eliminates.
        """
        return self._reconfigure("full_reconfigure", discover=False, force_full=True)

    def incremental_reroute(self) -> ConfigureReport:
        """Recompute paths but send only changed blocks (diff distribution)."""
        return self._reconfigure("incremental_reroute", discover=False)

    def handle_link_failure(self, link: Link) -> ConfigureReport:
        """React to a failed cable: unplug, re-sweep, reroute, send the diff.

        This is the *legitimate* use of reconfiguration the paper
        contrasts with VM migration: a topology change genuinely requires
        path recomputation, a moved LID does not. Raises
        :class:`~repro.errors.TopologyError` — with the cable back in
        place — if the failure would partition the switch fabric.
        """
        self._apply(TopologyMutation.cable("remove_link", link))
        return self._converge("link_failure_reroute", phase="link_failure")

    def handle_switch_failure(self, switch: Switch) -> ConfigureReport:
        """React to a dead (non-leaf) switch: remove it and reroute.

        Its LID is released, its cables unplugged, a fresh routing
        distributed. Raises :class:`~repro.errors.TopologyError`, with
        nothing changed, if the switch hosts HCAs (a dead leaf strands
        hosts — the virtualization layer's problem) or is a cut vertex.
        """
        self._apply(TopologyMutation(kind="remove_switch", a=switch.name))
        return self._converge(
            "switch_failure_reroute",
            phase="switch_failure",
            switch=switch.name,
        )

    # -- live topology mutation --------------------------------------------------

    def apply_topology_mutation(self, mutation: TopologyMutation):
        """Apply one planned topology change to the subnet state.

        The state kernel (:meth:`_apply`: applied and validated, or
        refused with everything as it was) plus the *announcement* of a
        planned change — counted in ``repro_topology_mutations_total``
        and journaled for hot standbys. No SMPs are sent: reroute later
        (a deferred trap pipeline batches), or use
        :meth:`handle_topology_change` for the converge-and-verify flow.
        Returns the affected link or switch.
        """
        result = self._apply(mutation)
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
        report = self._converge(
            "topology_change",
            phase="topology_change",
            repaired_since=before,
            kind=mutation.kind,
        )
        if verify:
            # Function-local import: analysis.verification imports this
            # module at load time.
            from repro.analysis.verification import verify_subnet

            verify_subnet(self).raise_if_failed()
        return report

    # -- introspection ------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        """The paper's ``n``."""
        return self.topology.num_switches

    @property
    def lids_consumed(self) -> int:
        """Currently assigned LIDs."""
        return self.lid_manager.lids_consumed
