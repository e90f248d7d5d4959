#!/usr/bin/env python
"""Section VI-C, executed: reconfiguration deadlocks and their mitigations.

The paper keeps deadlock handling pragmatic: swapping LIDs may transiently
create channel-dependency cycles, "and they will be resolved by IB
timeouts"; alternatively the LID can be invalidated (port 255) so traffic
is dropped instead of wedged. This example makes all of it observable with
the credit-based data-plane simulator:

1. minimal routing on a ring deadlocks under crossing traffic — the
   head-of-queue timeout drops the wedged packets and the rest deliver;
2. Up*/Down* on the same ring: zero timeouts by construction;
3. DFSSSP's and LASH's virtual-lane splits: same cyclic fabric, zero
   timeouts, because each lane has its own credits (the simulator reads
   the engine's lane plane, ``tables.lanes``);
4. the port-255 partially-static mitigation drops exactly the migrating
   VM's traffic and nothing else.

Run:  python examples/deadlock_timeouts.py
"""

from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager


def ring_experiment(engine: str, *, label: str = "") -> None:
    built = build_ring(6, 1)
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    topo = built.topology
    lids = [h.lid for h in topo.hcas]
    flows = [(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4
    sim = DataPlaneSimulator(
        topo,
        channel_credits=1,
        hop_time=1e-6,
        hoq_timeout=50e-6,
        lanes=sm.current_tables.lanes,
    )
    sim.inject_flows(flows)
    stats = sim.run()
    print(
        f"{label or engine:28s} delivered={stats.delivered:3d}/{stats.injected}"
        f"  timeout-drops={stats.dropped_timeout:3d}"
        f"  (deadlock {'occurred, broken by timeouts' if stats.dropped_timeout else 'never formed'})"
    )


def port255_experiment() -> None:
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, built=built, engine="minhop")
    sm.initial_configure(with_discovery=False)
    topo = built.topology
    victim = topo.hcas[-1].lid
    VSwitchReconfigurer(sm).invalidate_lid(victim)
    sim = DataPlaneSimulator(topo)
    sim.inject(topo.hcas[0].lid, victim)
    for other in topo.hcas[1:6]:
        sim.inject(topo.hcas[0].lid, other.lid)
    stats = sim.run()
    print(
        f"{'port-255 invalidation':28s} delivered={stats.delivered:3d}/{stats.injected}"
        f"  port255-drops={stats.dropped_port255:3d}"
        "  (only the migrating VM's traffic dropped)"
    )


def main() -> None:
    print("crossing traffic on a 6-switch ring, 1 credit per channel:\n")
    ring_experiment("minhop", label="minhop (cyclic CDG)")
    ring_experiment("updn", label="up*/down* (acyclic CDG)")
    ring_experiment("dfsssp", label="dfsssp (VL-separated)")
    ring_experiment("lash", label="lash (VL-separated)")
    print()
    port255_experiment()


if __name__ == "__main__":
    main()
