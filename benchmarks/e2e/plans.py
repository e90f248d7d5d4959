"""Seeded plan generators: the inputs of the four workloads.

A *plan* is plain JSON data made from ``(workload, scale, seed)`` alone:
the fabric, the set-up (VMs to preload, endpoints) and the op list. The
program under test only ever sees the plan; its sha256 is recorded with
every result so two runs can prove they measured the same inputs. The
generators use the fabric builders only to learn node and cable names.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fabric.node import Switch
from repro.fabric.presets import paper_fattree, scaled_fattree

ALL_ENGINES = ("ftree", "minhop", "dfsssp", "lash")
TENANTS = ("t0", "t1", "t2", "t3")

#: Why each workload exists (also the ``why`` of BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "fig7-bringup-5832": (
        "Fig. 7 instance (972 switches): path computation, table fill and"
        " n*m LFT distribution dominate; virt/core/service/data plane idle"
    ),
    "vm-churn-648": (
        "the paper's headline: boot/stop/migrate with PCt=0 and n'*m' SMPs,"
        " direct and through the journaled service; routing must stay idle"
    ),
    "fault-rewire-3l-wide": (
        "link and switch mutations with incremental repair, re-discovery,"
        " diff distribution and audits at the size where repair cost is open"
    ),
    "dataplane-a2a-324": (
        "per-packet event loop and PMA counter sweeps under uniform and"
        " incast bursts; the subnet manager is idle after set-up"
    ),
}

#: Plan sizes per scale. ``driver`` (the BENCHMARK.json contract: two
#: repeats in ~25 s) equals ``full`` except that the bring-up drops the
#: two slow engines; fabric sizes are never cut. ``quick`` is the smoke
#: mode on scaled fabrics; its numbers are never compared.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig7-bringup-5832": {
        "full": {"fabric": ["paper", 5832], "engines": list(ALL_ENGINES)},
        "driver": {"fabric": ["paper", 5832], "engines": ["ftree", "minhop"]},
        "quick": {"fabric": ["scaled", "3l-small"], "engines": list(ALL_ENGINES)},
    },
    "vm-churn-648": {
        "full": {"fabric": ["paper", 648], "preload": 600, "ops_per_phase": 800},
        "quick": {"fabric": ["scaled", "2l-wide"], "preload": 60, "ops_per_phase": 96},
    },
    "fault-rewire-3l-wide": {
        "full": {"fabric": ["scaled", "3l-wide"], "preload": 200, "blocks": 5, "link_pairs": 8},
        "quick": {"fabric": ["scaled", "3l-small"], "preload": 40, "blocks": 1, "link_pairs": 4},
    },
    "dataplane-a2a-324": {
        "full": {"fabric": ["paper", 324], "endpoints": 56, "min_active": 48,
                 "burst_pairs": 36},
        "quick": {"fabric": ["scaled", "2l-small"], "endpoints": 12,
                  "min_active": 10, "burst_pairs": 3},
    },
}

#: VFs per hypervisor on both cloud workloads.
VFS = 4
#: Requests per service burst (against ``batch_size=8`` and a shed
#: threshold of 48 queued requests).
BURST = 16
#: An audit after every this many mutations: often enough that the tail
#: percentile lands among the audits (steady) instead of on the one
#: slowest mutation of the seed.
AUDIT_EVERY = 7


def size_key(workload: str, scale: str) -> str:
    """The scale whose size *workload* really uses at *scale* (``driver``
    is ``full`` for every workload that does not say otherwise)."""
    return scale if scale in SIZES[workload] else "full"


def size_of(workload: str, scale: str) -> Dict[str, Any]:
    """The plan size for *workload* at *scale*."""
    return SIZES[workload][size_key(workload, scale)]


def build_fabric(spec: List[Any]):
    """``["paper", nodes]`` or ``["scaled", profile]`` -> BuiltTopology."""
    kind, arg = spec
    return paper_fattree(int(arg)) if kind == "paper" else scaled_fattree(str(arg))


def make_plan(workload: str, scale: str, seed: int) -> Dict[str, Any]:
    """The complete input of one workload run, from the seed alone."""
    size = size_of(workload, scale)
    rng = random.Random(f"{workload}/{seed}")
    body = _PLANNERS[workload](size, rng)
    return {"workload": workload, "scale": scale, "seed": seed, **size, **body}


def plan_sha256(plan: Dict[str, Any]) -> str:
    """Canonical digest of a plan (what ``op-list sha256`` means)."""
    blob = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _switch_cables(built) -> List[Tuple[Tuple[int, int], List[Any]]]:
    """Every inter-switch cable as ``((low level, high level), [a, pa, b, pb])``."""
    cables = []
    for link in built.topology.links:
        a, b = link.ends
        if isinstance(a.node, Switch) and isinstance(b.node, Switch):
            levels = tuple(sorted((built.level[a.node.name], built.level[b.node.name])))
            cables.append((levels, [a.node.name, a.num, b.node.name, b.num]))
    return cables


def _plan_fig7(size: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    built = build_fabric(size["fabric"])
    # Always a leaf<->aggregation cable: by symmetry every such cable
    # costs the same repair, so seeds vary the input but not the work.
    edge = [c for levels, c in _switch_cables(built) if levels == (0, 1)]
    cable = rng.choice(edge)
    ops: List[Dict[str, Any]] = [{"op": "build"}, {"op": "discover"}, {"op": "assign_lids"}]
    ops += [{"op": f"route_cold.{engine}"} for engine in size["engines"]]
    ops += [
        {"op": "distribute_full"},
        {"op": "reconfigure_warm"},
        {"op": "link_fail", "cable": cable},
        {"op": "link_restore", "cable": cable},
    ]
    return {"ops": ops}


class _CloudModel:
    """Generator-side mirror of VM placement, so every generated op is
    valid when the real cloud executes it (no op may fail).

    Between :meth:`begin_burst` and :meth:`end_burst` the ops generated
    are independent of each other, because the service applies a burst
    in an order of its own choosing (boots first): every VM is touched
    at most once, and a slot freed inside the burst is handed out only
    after it.
    """

    def __init__(self, built, vfs: int, rng: random.Random) -> None:
        self.rng = rng
        self.leaf: Dict[str, str] = {
            hca.name: hca.uplink_switch().name for hca in built.topology.hcas
        }
        self.hyps = sorted(self.leaf)
        self.free = {h: vfs for h in self.hyps}
        self.where: Dict[str, str] = {}
        self.tenant: Dict[str, str] = {}
        self.running: List[str] = []
        self.serial = 0
        self._touched: Optional[set] = None
        self._freed: List[str] = []

    def begin_burst(self) -> None:
        self._touched = set()

    def end_burst(self) -> None:
        self._touched = None
        for hyp in self._freed:
            self.free[hyp] += 1
        self._freed.clear()

    def _release(self, hyp: str) -> None:
        if self._touched is None:
            self.free[hyp] += 1
        else:
            self._freed.append(hyp)

    def _touch(self, vm: str) -> None:
        if self._touched is not None:
            self._touched.add(vm)

    def _take_running(self, usable: Callable[[str], bool]) -> str:
        """Remove and return a seeded running VM that passes *usable*."""
        order = list(range(len(self.running)))
        self.rng.shuffle(order)
        for i in order:
            vm = self.running[i]
            if (self._touched is None or vm not in self._touched) and usable(vm):
                self.running[i] = self.running[-1]
                self.running.pop()
                self._touch(vm)
                return vm
        raise RuntimeError("plan generator ran out of usable VMs")

    def _dests(self, vm: str, intra_leaf: bool) -> List[str]:
        src = self.where[vm]
        leaf = self.leaf[src]
        return [
            h for h in self.hyps
            if self.free[h] > 0 and h != src and (self.leaf[h] == leaf) == intra_leaf
        ]

    def boot(self) -> Dict[str, Any]:
        self.serial += 1
        vm = f"v{self.serial}"
        on = self.rng.choice([h for h in self.hyps if self.free[h] > 0])
        tenant = TENANTS[self.serial % len(TENANTS)]
        self.free[on] -= 1
        self.where[vm] = on
        self.tenant[vm] = tenant
        self.running.append(vm)
        self._touch(vm)
        return {"op": "boot", "vm": vm, "on": on, "tenant": tenant}

    def stop(self) -> Dict[str, Any]:
        vm = self._take_running(lambda vm: True)
        self._release(self.where.pop(vm))
        return {"op": "stop", "vm": vm, "tenant": self.tenant.pop(vm)}

    def migrate(self, intra_leaf: bool) -> Dict[str, Any]:
        vm = self._take_running(lambda vm: bool(self._dests(vm, intra_leaf)))
        self.running.append(vm)
        dest = self.rng.choice(self._dests(vm, intra_leaf))
        self._release(self.where[vm])
        self.free[dest] -= 1
        self.where[vm] = dest
        return {"op": "migrate", "vm": vm, "dest": dest, "tenant": self.tenant[vm],
                "intra_leaf": intra_leaf}

    def churn(self, kind: str) -> Dict[str, Any]:
        if kind == "boot":
            return self.boot()
        if kind == "stop":
            return self.stop()
        return self.migrate(kind == "intra")


def _churn_mix(count: int, rng: random.Random) -> List[str]:
    """25 % boot, 25 % stop, 25 % intra-leaf and 25 % inter-leaf migrate,
    in exact counts so seeds shuffle the order but not the work."""
    quarter = count // 4
    mix = (["boot"] * quarter + ["stop"] * quarter + ["intra"] * quarter
           + ["inter"] * (count - 3 * quarter))
    rng.shuffle(mix)
    return mix


def _plan_churn(size: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    built = build_fabric(size["fabric"])
    phases = []
    for phase, scheme in (("direct-prepopulated", "prepopulated"),
                          ("direct-dynamic", "dynamic"), ("service", "dynamic")):
        model = _CloudModel(built, VFS, rng)
        preload = [model.boot() for _ in range(size["preload"])]
        mix = _churn_mix(size["ops_per_phase"], rng)
        ops: List[Any]
        if phase != "service":
            ops = [model.churn(kind) for kind in mix]
        else:
            ops = []
            for start in range(0, len(mix), BURST):
                model.begin_burst()
                ops.append([model.churn(kind) for kind in mix[start:start + BURST]])
                model.end_burst()
        phases.append({"phase": phase, "scheme": scheme, "preload": preload, "ops": ops})
    # The service worker is killed after the submits of these bursts.
    # Twice, so that the 1 % slowest requests are all requests caught in
    # a crash and the tail percentile lands inside that population.
    bursts = len(phases[2]["ops"])
    return {"vfs": VFS, "phases": phases, "kill_in_bursts": [bursts // 3, 2 * bursts // 3]}


def _plan_rewire(size: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    built = build_fabric(size["fabric"])
    model = _CloudModel(built, VFS, rng)
    preload = [model.boot() for _ in range(size["preload"])]
    by_level: Dict[Tuple[int, int], List[List[Any]]] = {}
    for levels, cable in _switch_cables(built):
        by_level.setdefault(levels, []).append(cable)
    strata = sorted(by_level)
    cores = sorted(sw.name for sw in built.roots)
    ops: List[Dict[str, Any]] = []
    mutations = 0

    def mutate(op: Dict[str, Any]) -> None:
        nonlocal mutations
        # One migration before every mutation keeps the LID set moving.
        move = model.migrate(intra_leaf=False)
        ops.append({**op, "migrate": [move["vm"], move["dest"]]})
        mutations += 1
        if mutations % AUDIT_EVERY == 0:
            ops.append({"op": "audit"})

    pair = 0
    for _ in range(size["blocks"]):
        for _ in range(size["link_pairs"]):
            cable = rng.choice(by_level[strata[pair % len(strata)]])
            pair += 1
            mutate({"op": "remove_link", "cable": cable})
            mutate({"op": "restore_link", "cable": cable})
        core = built.topology.node(rng.choice(cores))
        cables = [[p.num, p.remote.node.name, p.remote.num] for p in core.connected_ports()]
        mutate({"op": "remove_switch", "switch": core.name})
        mutate({"op": "add_switch", "switch": core.name, "num_ports": core.num_ports,
                "level": built.level[core.name], "cables": cables})
    return {"vfs": VFS, "preload": preload, "ops": ops}


def _plan_dataplane(size: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    built = build_fabric(size["fabric"])
    hosts = rng.sample(sorted(h.name for h in built.topology.hcas), size["endpoints"])
    # Burst sizes cycle through min_active..endpoints, so every seed
    # injects the same number of packets; the seed picks who talks, the
    # order of the sizes and each incast's victim.
    span = size["endpoints"] - size["min_active"] + 1
    counts = [size["min_active"] + i % span for i in range(size["burst_pairs"])]
    rng.shuffle(counts)
    ops: List[Dict[str, Any]] = []
    for count in counts:
        active = sorted(rng.sample(range(len(hosts)), count))
        ops.append({"op": "burst", "kind": "uniform", "active": active})
        # Same packet count as the uniform burst before it, onto one host.
        ops.append({"op": "burst", "kind": "incast", "active": active,
                    "dest": rng.choice(active)})
        # One sweep per pair: with as many sweeps as bursts the median op
        # would sit on the gap between the two populations.
        ops.append({"op": "sweep"})
    return {"hosts": hosts, "ops": ops}


_PLANNERS = {
    "fig7-bringup-5832": _plan_fig7,
    "vm-churn-648": _plan_churn,
    "fault-rewire-3l-wide": _plan_rewire,
    "dataplane-a2a-324": _plan_dataplane,
}
