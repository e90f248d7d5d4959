#!/usr/bin/env python
"""Operating the subnet: SM redundancy, traps, failures, safe reconfiguration.

A tour of the management-plane machinery around the paper's contribution:

1. SM election and failover (the ref-[10] prototype restarted the SM; a
   standby holding a current replica takes over with zero PCt and zero
   LFT SMPs — it pays only the handshake and a verification sweep);
2. a cable failure: traps from both ends, recompute + diff distribution —
   the *legitimate* expensive reconfiguration, vs migrations at zero PCt;
3. a spine switch failure: removed, rerouted, audited;
4. the §VI-C partially-static *safe swap*: invalidate-then-swap, priced
   against the plain swap.

Run:  python examples/fabric_management.py
"""

from repro.analysis.verification import verify_subnet
from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sm.ha import HighAvailabilityManager
from repro.sm.subnet_manager import SubnetManager
from repro.sm.traps import FabricEventManager, TrapType


def main() -> None:
    built = scaled_fattree("2l-wide")
    sm = SubnetManager(
        built.topology, built=built, engine="ftree", fallback_engine="minhop"
    )
    report = sm.initial_configure(with_discovery=True)
    print(
        f"subnet up: {sm.lids_consumed} LIDs, engine={sm.current_tables.algorithm},"
        f" {report.lft_smps} LFT SMPs, PCt={report.path_compute_seconds * 1e3:.1f}ms"
    )

    # 1. SM redundancy: leases, missed heartbeats, takeover.
    ha = HighAvailabilityManager(sm)
    hcas = built.topology.hcas
    ha.register(hcas[0].name, guid=0x10, priority=3)
    ha.register(hcas[1].name, guid=0x20, priority=3)
    master = ha.bootstrap()
    print(f"\nSM master: {master.node_name} (priority {master.priority})")
    ha.kill_master()
    takeover = None
    while takeover is None:  # standbys notice through missed leases
        takeover = ha.tick()
    print(
        f"master died; {ha.master.node_name} took over ({takeover.sweep_mode}"
        f" sweep) with {takeover.lft_smps} LFT SMPs and"
        f" PCt={takeover.path_compute_seconds}s — {takeover.control_smps}"
        " handshake + discovery SMPs is all a state-sharing failover costs"
    )

    # 2. A cable fails.
    events = FabricEventManager(sm)
    link = next(
        l
        for l in built.topology.links
        if isinstance(l.a.node, Switch) and isinstance(l.b.node, Switch)
    )
    reaction = events.link_down(link)
    downs = events.traps_of(TrapType.LINK_STATE_DOWN)
    print(
        f"\ncable {downs[0].reporter}<->{downs[1].reporter} died:"
        f" {len(downs)} traps, reroute cost"
        f" PCt={reaction.path_compute_seconds * 1e3:.1f}ms +"
        f" {reaction.lft_smps} SMPs"
    )

    # 3. A spine dies entirely.
    spine = next(sw for sw in built.topology.switches if not sw.is_leaf)
    reaction = sm.handle_switch_failure(spine)
    audit = verify_subnet(sm)
    print(
        f"spine {spine.name} failed: removed, rerouted"
        f" ({reaction.lft_smps} SMPs); subnet audit:"
        f" {'OK' if audit.ok else audit.problems()[:2]}"
    )

    # 4. Safe (partially-static) swap vs plain swap.
    topo = built.topology
    lid_a = sm.lid_manager.assign_extra_lid(topo.hcas[2].port(1))
    lid_b = sm.lid_manager.assign_extra_lid(topo.hcas[-2].port(1))
    sm.compute_routing()
    sm.distribute()
    rec = VSwitchReconfigurer(sm)
    plain = rec.swap_lids(lid_a, lid_b)
    safe = rec.safe_swap_lids(lid_a, lid_b)  # swap back, safely
    print(
        f"\nplain swap: {plain.lft_smps} SMPs on {plain.switches_updated}"
        f" switches; safe swap: {safe.lft_smps} SMPs"
        f" (+{safe.lft_smps - plain.lft_smps} for the port-255 invalidation"
        " phase, as section VI-C prices it)"
    )


if __name__ == "__main__":
    main()
