"""The SM high-availability manager: leases, takeover, fencing, replication.

Replaces the stub redundancy manager with a full HA protocol in which
**every step consumes fault-injectable SMPs**:

* **Liveness** — standbys poll the master with SubnGet(SMInfo)
  heartbeats through a short-fused :class:`~repro.mad.reliable.ReliableSmpSender`;
  ``lease_misses`` consecutive unanswered polls declare the master dead.
* **Takeover** — the elected successor negotiates with SubnSet(SMInfo):
  HANDOVER to the previous master (a dead or partitioned master simply
  times out), STANDBY asserts to the remaining peers (answered with
  ACKNOWLEDGE), then a fenced PortInfo write arms the new generation on
  the fabric even when the routing diff turns out empty.
* **Replication** — the master journals every LID assignment, routing
  intent, distribution summary and vSwitch update, and streams the
  entries to standbys in batched SubnSet(SMInfo) MADs (see
  :mod:`repro.sm.ha.journal`). A successor whose replica is *current*
  pays only a **light** failover: verify sweep plus the pending
  transactional distribution completed from the journal. A stale replica
  forces the **heavy** sweep: full rediscovery and recompute. The
  returned :class:`~repro.sm.subnet_manager.ConfigureReport` carries the
  handshake SMP cost and which sweep was paid.
* **Split-brain fencing** — every promotion bumps a monotonic SM
  generation, stamped by the master's sender on all LFT/PortInfo writes
  and checked in :class:`~repro.mad.transport.SmpTransport`. A stale
  master re-emerging after a partition heal has its writes rejected
  (:class:`~repro.errors.StaleGenerationError`), loses the SMInfo
  comparison, and demotes itself to standby.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import (
    HighAvailabilityError,
    SmpTimeoutError,
    StaleGenerationError,
    UnreachableTargetError,
)
from repro.fabric.addressing import GUID
from repro.mad.reliable import ReliableSmpSender, RetryPolicy
from repro.mad.smp import SmInfoAttrMod, Smp, SmpKind, SmpMethod
from repro.obs.hub import get_hub, span
from repro.sm.ha.journal import JournalEntry, ReplicationJournal, StandbyReplica
from repro.sm.ha.sminfo import SmHaState, SmParticipant
from repro.sm.subnet_manager import ConfigureReport, SubnetManager

__all__ = ["HighAvailabilityManager"]


def _try_send(sender, smp: Smp):
    """Send one HA MAD; ``None`` when it timed out after the sender's
    retries or its target is unreachable — to the protocol the same
    verdict (a missed lease, a stale standby, a peer that never heard)."""
    try:
        return sender.send(smp)
    except (SmpTimeoutError, UnreachableTargetError):
        return None


class HighAvailabilityManager:
    """Runs the SM HA protocol over one subnet manager's transport."""

    #: Heartbeats are short-fused: one retransmission, tight timeouts — a
    #: lease poll exists to *detect* loss quickly, not to survive it.
    HEARTBEAT_POLICY = RetryPolicy(
        retries=1, timeout_s=5e-4, backoff=2.0, max_timeout_s=1e-3
    )
    #: Journal entries shipped to a lagging standby per SubnSet(SMInfo).
    REPLICATION_BATCH = 16

    def __init__(
        self,
        sm: SubnetManager,
        *,
        lease_misses: int = 2,
        journal_capacity: int = 2048,
    ) -> None:
        if lease_misses < 1:
            raise HighAvailabilityError("lease_misses must be >= 1")
        self.sm = sm
        self.transport = sm.transport
        self.lease_misses = lease_misses
        self.journal = ReplicationJournal(journal_capacity)
        self._participants: Dict[str, SmParticipant] = {}
        self._replicas: Dict[str, StandbyReplica] = {}
        self._heartbeat_senders: Dict[str, ReliableSmpSender] = {}
        #: Monotonic SM generation; bumped on every promotion.
        self._generation = 0
        #: The master the standbys currently *believe* in — what lease
        #: polls are addressed to. Deliberately not ground truth: a dead
        #: or partitioned master stays believed until its lease expires.
        self._believed_master: Optional[str] = None
        self.failovers = 0
        self.demotions = 0
        self.replication_failures = 0
        self.fence_arm_failures = 0
        self.last_failover_report: Optional[ConfigureReport] = None
        #: Light-failover acceptance bookkeeping: the diff the successor
        #: *had* pending vs the blocks it actually programmed.
        self.last_failover_pending_blocks = 0
        self.last_failover_distributed_blocks = 0

    # -- membership -----------------------------------------------------------

    def register(
        self, node_name: str, guid: GUID, *, priority: int = 0
    ) -> SmParticipant:
        """Add an SM candidate (a node with usable QP0 access)."""
        if node_name in self._participants:
            raise HighAvailabilityError(
                f"{node_name} already registered as SM candidate"
            )
        if node_name not in self.sm.topology:
            raise HighAvailabilityError(
                f"SM candidate {node_name!r} is not in the subnet"
            )
        part = SmParticipant(node_name=node_name, guid=guid, priority=priority)
        self._participants[node_name] = part
        return part

    def participants(self) -> List[SmParticipant]:
        """All registered participants, election order first."""
        return sorted(
            self._participants.values(), key=SmParticipant.election_key
        )

    def participant(self, node_name: str) -> SmParticipant:
        try:
            return self._participants[node_name]
        except KeyError:
            raise HighAvailabilityError(
                f"{node_name!r} is not an SM candidate"
            ) from None

    def masters(self) -> List[SmParticipant]:
        """Every participant currently *believing* it is master.

        More than one entry is a split brain (e.g. during a partition,
        before the stale master is fenced out and demoted).
        """
        return [p for p in self.participants() if p.is_master]

    @property
    def master(self) -> Optional[SmParticipant]:
        """The legitimate master: the claimant with the newest generation."""
        claimants = self.masters()
        if not claimants:
            return None
        return max(claimants, key=lambda p: p.generation)

    @property
    def has_master(self) -> bool:
        """Whether an alive master exists (the subnet is being managed)."""
        m = self.master
        return m is not None and m.alive

    @property
    def generation(self) -> int:
        """The newest SM generation handed out."""
        return self._generation

    def replica(self, node_name: str) -> Optional[StandbyReplica]:
        """The standby replica held on *node_name*, if any."""
        return self._replicas.get(node_name)

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(self) -> SmParticipant:
        """Initial election: pick the master, arm the fence, seed replicas.

        Attaches this manager as the transport's SMInfo agent and as the
        subnet manager's replication hook, and makes sure the SM sends
        through a generation-stamping reliable sender.
        """
        if not self._participants:
            raise HighAvailabilityError("no SM candidates registered")
        alive = [p for p in self.participants() if p.alive]
        if not alive:
            raise HighAvailabilityError("no alive SM candidate")
        self.transport.set_sm_agent(self)
        self.sm.ha = self
        if not isinstance(self.sm.smp_sender, ReliableSmpSender):
            # The HA protocol needs MAD retransmission semantics: leases,
            # handshakes and replication are all loss-sensitive.
            self.sm.enable_resilience(
                transactional=self.sm.distributor.transactional
            )
        winner = min(alive, key=SmParticipant.election_key)
        self._promote(winner)
        for p in self.participants():
            if p is winner:
                continue
            p.state = SmHaState.STANDBY if p.alive else SmHaState.NOT_ACTIVE
            if p.alive:
                self._replicas[p.node_name] = StandbyReplica(p.node_name)
        self._arm_fence(winner)
        # Seed the journal with the state that already exists, so a
        # failover right after bootstrap can still be light.
        topo = self.sm.topology
        lids = {
            node.name: node.lid
            for node in (*topo.switches, *topo.hcas)
            if node.lid is not None
        }
        if lids:
            self.note_lids(lids)
        if self.sm.current_tables is not None:
            self.note_tables(self.sm.current_tables)
        return winner

    def _promote(self, part: SmParticipant) -> None:
        """Make *part* the master with a freshly bumped generation."""
        self._generation = (
            max(self._generation, self.transport.fabric_generation) + 1
        )
        part.state = SmHaState.MASTER
        part.generation = self._generation
        part.act_count += 1
        part.missed_leases = 0
        self._believed_master = part.node_name
        self.transport.set_sm_node(self.sm.topology.node(part.node_name))
        sender = self.sm.smp_sender
        if isinstance(sender, ReliableSmpSender):
            sender.generation = self._generation
        get_hub().metrics.gauge("repro_sm_generation").set(self._generation)

    def _arm_fence(self, master: SmParticipant) -> None:
        """Advance the fabric's generation with one fenced PortInfo write.

        Without this, a failover whose routing diff is empty would leave
        ``fabric_generation`` at the old master's value — and the stale
        master's writes would still be accepted after a partition heal.
        """
        fence = Smp(
            SmpMethod.SET, SmpKind.PORT_INFO, master.node_name, payload={}
        )
        if _try_send(self.sm.smp_sender, fence) is None:
            # The successor's first LFT write will arm the fence instead;
            # only an empty-diff failover is briefly unfenced.
            self.fence_arm_failures += 1

    @staticmethod
    def _set_sminfo(sender, target: str, payload: Dict[str, Any]) -> bool:
        """One SubnSet(SMInfo) to the SM agent on *target* — the only
        place a handshake or replication MAD is built. False when it was
        lost (after the sender's retries) or *target* is unreachable."""
        smp = Smp(SmpMethod.SET, SmpKind.SM_INFO, target, payload=payload)
        return _try_send(sender, smp) is not None

    # -- SMInfo agent (called by the transport on SMInfo MAD delivery) --------

    def sminfo(self, node_name: str) -> Dict[str, Any]:
        """Answer a SubnGet(SMInfo) addressed to *node_name*."""
        part = self._participants.get(node_name)
        if part is None:
            legit = self.master
            return {"sm": legit.node_name if legit else None}
        return part.sminfo()

    def handle_sminfo_set(
        self, node_name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply a SubnSet(SMInfo) delivered to *node_name*.

        Two flavors: replication batches (``replicate`` key) feed the
        standby's replica; handshake messages (``attr_mod`` key) drive
        the receiving participant's state machine.
        """
        part = self._participants.get(node_name)
        if part is None:
            return {"ack": False}
        if "replicate" in payload:
            replica = self._replicas.setdefault(
                node_name, StandbyReplica(node_name)
            )
            applied = replica.apply(payload["replicate"])
            return {
                "ack": True,
                "applied": applied,
                "applied_seq": replica.applied_seq,
            }
        mod = payload.get("attr_mod")
        sender_generation = int(payload.get("generation", 0))
        if mod == int(SmInfoAttrMod.HANDOVER):
            # The successor asks this (previous) master to yield.
            if part.is_master and part.generation > sender_generation:
                return {"ack": False, "state": part.state.value}
            part.state = SmHaState.STANDBY
            part.missed_leases = 0
            return {
                "ack": True,
                "attr_mod": int(SmInfoAttrMod.ACKNOWLEDGE),
                "state": part.state.value,
            }
        if mod in (int(SmInfoAttrMod.STANDBY), int(SmInfoAttrMod.DISABLE)):
            # A master with a newer generation asserts itself.
            if part.is_master and part.generation > sender_generation:
                return {"ack": False, "state": part.state.value}
            if part.alive:
                part.state = SmHaState.STANDBY
            part.missed_leases = 0
            return {
                "ack": True,
                "attr_mod": int(SmInfoAttrMod.ACKNOWLEDGE),
                "state": part.state.value,
            }
        if mod == int(SmInfoAttrMod.DISCOVER):
            if part.alive:
                part.state = SmHaState.DISCOVERING
            return {"ack": True, "state": part.state.value}
        return {"ack": False}

    # -- replication hooks (called by the SubnetManager) ----------------------

    def note_lids(self, mapping: Dict[str, int]) -> None:
        """Journal + replicate a batch of LID assignments."""
        self._replicate(self.journal.append("lid", dict(mapping)))

    def note_tables(self, tables) -> None:
        """Journal + replicate a routing intent (tables about to be sent)."""
        self._replicate(
            self.journal.append(
                "tables",
                {
                    "algorithm": tables.algorithm,
                    "ports": tables.ports.copy(),
                    "compute_seconds": tables.compute_seconds,
                    # The lanes the ports were routed with: a successor
                    # without them would audit a VL-routed fabric as one lane.
                    "vl": tables.vl.copy() if tables.vl is not None else None,
                },
            )
        )

    def note_distribution(self, tables, dist_report) -> None:
        """Journal + replicate a completed distribution's LFT summary."""
        self._replicate(
            self.journal.append(
                "lft",
                {
                    "blocks": dict(dist_report.blocks_per_switch),
                    "smps": dist_report.smps_sent,
                },
            )
        )

    def note_vswitch(self, payload: Dict[str, Any]) -> None:
        """Journal + replicate a vSwitch table update."""
        self._replicate(self.journal.append("vswitch", dict(payload)))

    def note_topology(self, mutation: Dict[str, Any]) -> None:
        """Journal + replicate a live topology mutation.

        *mutation* is a :meth:`repro.fabric.topology.TopologyMutation.as_dict`
        payload. It is journaled *before* the routing recompute that
        follows it, so a replica replaying in order always rewires its
        topology model before adopting the tables routed on it.
        """
        self._replicate(self.journal.append("topology", dict(mutation)))

    def _replicate(self, entry: JournalEntry) -> None:
        """Stream one journal entry to every alive standby.

        A batch lost after retries leaves that standby's replica stale —
        detected at failover, answered with the heavy sweep.
        """
        metrics = get_hub().metrics
        metrics.counter("repro_sm_journal_entries_total", kind=entry.kind).add(1)
        master = self.master
        master_name = master.node_name if master else None
        for part in self.participants():
            if (
                not part.alive
                or part.is_master
                or part.node_name == master_name
            ):
                continue
            if self._send_batch(part.node_name, [entry], master_name):
                metrics.counter("repro_sm_replication_batches_total").add(1)
            else:
                metrics.counter("repro_sm_replication_failures_total").add(1)

    def _send_batch(
        self,
        node_name: str,
        entries: List[JournalEntry],
        master_name: Optional[str],
    ) -> bool:
        """Send one replication batch to one standby.

        Uses the master's sender, so replication MADs are retried,
        accounted and fault-injectable like all other control traffic.
        """
        sent = self._set_sminfo(
            self.sm.smp_sender,
            node_name,
            {
                "replicate": [e.as_dict() for e in entries],
                "from": master_name,
                "generation": self._generation,
            },
        )
        if not sent:
            self.replication_failures += 1
        return sent

    def resync_standby(self, node_name: str) -> Optional[int]:
        """Stream the journal tail a standby is missing, in batches.

        Returns the number of entries sent — 0 when it is missing
        nothing — or ``None`` when the journal has truncated past the
        standby: it cannot be resynced incrementally and keeps its
        (stale) replica until the next failover re-seeds it.
        """
        replica = self._replicas.setdefault(
            node_name, StandbyReplica(node_name)
        )
        missing = self.journal.entries_since(replica.applied_seq)
        if missing is None:
            return None
        master = self.master
        master_name = master.node_name if master else None
        sent = 0
        for start in range(0, len(missing), self.REPLICATION_BATCH):
            batch = missing[start : start + self.REPLICATION_BATCH]
            if not self._send_batch(node_name, batch, master_name):
                break
            sent += len(batch)
        return sent

    # -- liveness -------------------------------------------------------------

    def _heartbeat_sender(self, node_name: str) -> ReliableSmpSender:
        sender = self._heartbeat_senders.get(node_name)
        if sender is None:
            sender = ReliableSmpSender(self.transport, self.HEARTBEAT_POLICY)
            self._heartbeat_senders[node_name] = sender
        return sender

    @property
    def believed_master(self) -> Optional[SmParticipant]:
        """The master standbys are polling — possibly dead or stale."""
        if self._believed_master is None:
            return None
        return self._participants.get(self._believed_master)

    def poll_master(self, standby: SmParticipant) -> bool:
        """One lease poll: *standby* sends SubnGet(SMInfo) to the master
        it believes in.

        A timeout after retries and an unreachable master are the same
        verdict — the lease was missed. Both cost real sim time.
        """
        target = self.believed_master
        if target is None:
            return False
        result = _try_send(
            self._heartbeat_sender(standby.node_name),
            Smp(SmpMethod.GET, SmpKind.SM_INFO, target.node_name),
        )
        return result is not None and result.ok

    def tick(self) -> Optional[ConfigureReport]:
        """One HA protocol round: heartbeats, lease expiry, takeover.

        Standbys poll the master they *believe* in — never ground truth,
        so a dead master is only declared after ``lease_misses``
        consecutive unanswered polls. Returns the failover's
        :class:`ConfigureReport` when a takeover happened this round,
        else ``None``.
        """
        standbys = [
            p
            for p in self.participants()
            if p.alive and p.state is SmHaState.STANDBY
        ]
        believed = self.believed_master
        if believed is None:
            if standbys:
                return self.failover(None)
            return None
        metrics = get_hub().metrics
        for standby in standbys:
            if self.poll_master(standby):
                standby.missed_leases = 0
            else:
                standby.missed_leases += 1
                metrics.counter(
                    "repro_sm_lease_misses_total", standby=standby.node_name
                ).add(1)
        suspicious = [
            p for p in standbys if p.missed_leases >= self.lease_misses
        ]
        if not suspicious:
            return None
        initiator = min(suspicious, key=SmParticipant.election_key)
        return self.failover(believed, initiator=initiator)

    def kill_master(self) -> None:
        """The master's SM software dies (its node stays on the fabric)."""
        master = self.master
        if master is None:
            raise HighAvailabilityError("no master to kill")
        master.alive = False
        master.state = SmHaState.NOT_ACTIVE
        self.transport.mark_sm_dead(master.node_name)

    # -- takeover -------------------------------------------------------------

    def failover(
        self,
        old_master: Optional[SmParticipant],
        *,
        initiator: Optional[SmParticipant] = None,
    ) -> ConfigureReport:
        """A standby takes over as master.

        The handshake (HANDOVER to the previous master, STANDBY asserts
        to the peers, the fence-arming write) is accounted separately in
        the returned report; then the successor pays either the light or
        the heavy sweep depending on its replica's freshness.
        """
        candidates = [
            p
            for p in self.participants()
            if p.alive and p is not old_master and not p.is_master
        ]
        if not candidates:
            raise HighAvailabilityError("no alive SM standby to fail over to")
        winner = initiator if initiator is not None else min(
            candidates, key=SmParticipant.election_key
        )
        metrics = get_hub().metrics
        with span(
            "sm_failover",
            new_master=winner.node_name,
            old_master=old_master.node_name if old_master else None,
        ) as sp:
            before = self.transport.stats.snapshot()
            handshake_gen = self._generation + 1
            hs_sender = self._heartbeat_sender(winner.node_name)

            def shake(peer: SmParticipant, mod: SmInfoAttrMod) -> None:
                self._set_sminfo(
                    hs_sender,
                    peer.node_name,
                    {
                        "attr_mod": int(mod),
                        "from": winner.node_name,
                        "generation": handshake_gen,
                    },
                )

            if old_master is not None:
                # Dead or partitioned, it never hears the HANDOVER and may
                # keep believing MASTER — the fence handles it.
                shake(old_master, SmInfoAttrMod.HANDOVER)
            for peer in self.participants():
                if peer is not winner and peer is not old_master and peer.alive:
                    shake(peer, SmInfoAttrMod.STANDBY)
            self._promote(winner)
            self._arm_fence(winner)
            handshake = self.transport.stats.delta_since(before)
            self.failovers += 1
            metrics.counter("repro_sm_failovers_total").add(1)

            replica = self._replicas.get(winner.node_name)
            light = (
                replica is not None
                and replica.is_current(self.journal)
                and replica.tables_payload is not None
            )
            mode = "light" if light else "heavy"
            sp.set_attributes(sweep=mode, handshake_smps=handshake.total_smps)
            if light:
                # Verify sweep + finish the pending distribution from the
                # journal: LIDs and paths are inherited from the replica
                # (zero path computation) and the diff programs at most
                # the blocks the dying master had left pending.
                tables = replica.routing_tables()
                self.last_failover_pending_blocks = (
                    self.sm.distributor.pending_blocks(tables)
                )
                report = self.sm._converge(
                    "ha_light_sweep",
                    tables=tables,
                    replica_seq=replica.applied_seq,
                )
            else:
                # Stale replica: full rediscovery + recompute.
                report = self.sm._converge("ha_heavy_sweep")
            report.sweep_mode = mode
            self.last_failover_distributed_blocks = sum(
                report.distribution.blocks_per_switch.values()
            )
            if not light:  # its pending diff is whatever it programmed
                self.last_failover_pending_blocks = (
                    self.last_failover_distributed_blocks
                )
            report.handshake_smps = handshake.total_smps
            report.handshake_seconds = handshake.serial_time
            report.journal_entries_replayed = (
                replica.applied_count if light else 0
            )
            metrics.counter(
                "repro_sm_failover_sweeps_total", mode=report.sweep_mode
            ).add(1)
            # The winner is master now; remaining standbys need replicas.
            self._replicas.pop(winner.node_name, None)
            for peer in self.participants():
                if peer.alive and peer.state is SmHaState.STANDBY:
                    self._replicas.setdefault(
                        peer.node_name, StandbyReplica(peer.node_name)
                    )
        self.last_failover_report = report
        return report

    # -- split-brain resolution ----------------------------------------------

    def reassert_stale_master(self, node_name: str) -> str:
        """A re-emerged master tries to act; the fence decides.

        Sends one fenced PortInfo write stamped with the participant's
        own (old) generation. ``"demoted"`` — the write was rejected as
        stale, the participant compared SMInfo with the legitimate master
        and stepped down. ``"still-master"`` — the write was accepted (no
        newer master exists). ``"unreachable"`` / ``"not-master"``
        otherwise.
        """
        part = self.participant(node_name)
        if not part.is_master:
            return "not-master"
        stale_sender = ReliableSmpSender(
            self.transport, self.HEARTBEAT_POLICY, generation=part.generation
        )
        try:
            stale_sender.send(
                Smp(
                    SmpMethod.SET,
                    SmpKind.PORT_INFO,
                    part.node_name,
                    payload={},
                )
            )
        except StaleGenerationError:
            # Fenced out: a newer master exists. Run the SMInfo
            # comparison against it and yield.
            legit = self.master
            if legit is not None and legit is not part:
                _try_send(
                    stale_sender,
                    Smp(SmpMethod.GET, SmpKind.SM_INFO, legit.node_name),
                )
            part.state = SmHaState.STANDBY
            part.missed_leases = 0
            self.demotions += 1
            get_hub().metrics.counter("repro_sm_demotions_total").add(1)
            self._replicas.setdefault(
                part.node_name, StandbyReplica(part.node_name)
            )
            return "demoted"
        except (SmpTimeoutError, UnreachableTargetError):
            return "unreachable"
        return "still-master"
