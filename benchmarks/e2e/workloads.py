"""The repeat runner: executes one plan against the public API of ``repro``.

All workloads are closed-loop, one client, one thread: every op
completes before the next is issued. Checks, predictions and bookkeeping
run between ops, outside the timed regions; every output is checked.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.verification import verify_subnet
from repro.fabric.topology import TopologyMutation
from repro.obs.hub import get_hub
from repro.service import (
    ControlPlaneService,
    IntentJournal,
    TenantQuota,
    audit_cloud,
    cloud_fingerprint,
    rebuild_from_journal,
    recover_service,
)
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager
from repro.telemetry import TelemetryHarness
from repro.virt.cloud import CloudManager

import tracing
from plans import ALL_ENGINES, build_fabric, size_key

#: Journals of the service phase live (briefly) under the git-ignored out/.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Incast bursts queue on one host link: credits and the head-of-queue
#: lifetime are sized so packets wait but none is dropped.
DATAPLANE_CREDITS = 2
DATAPLANE_HOQ_TIMEOUT = 1e-2


class Repeat:
    """One repeat of one plan: timings, failures, exact counts."""

    def __init__(self, plan: Dict[str, Any], tracer, spawned_at: float) -> None:
        self.plan = plan
        self.tracer = tracer
        self.spawned_at = spawned_at
        self.setup_s = 0.0
        self.op_kinds: List[str] = []
        self.op_s: List[float] = []
        #: What the client waited for, one after another: single ops, or
        #: whole service bursts (whose requests are the ops).
        self.step_s: List[float] = []
        self.failed: List[Dict[str, Any]] = []
        self.checks: Dict[str, bool] = {}
        #: Exact per-layer counts, by final metric name.
        self.counts: Dict[str, float] = {}
        #: What expected.json pins for the default seed.
        self.exact: Dict[str, Any] = {}
        self._transports: List[Tuple[Any, Any]] = []
        self._routing: List[Tuple[Any, Any]] = []
        self._sim_start: Optional[float] = None
        self._ended = False
        if tracer.enabled:
            tracing.attach_hub(tracer, get_hub())

    # -- bookkeeping ---------------------------------------------------------

    def track_sm(self, sm, *, trace: bool = True, topology: bool = True) -> None:
        """Account one subnet manager's SMPs and routing-cache activity
        from now on (from the end of set-up if still setting up)."""
        self._transports.append((sm.transport.stats, sm.transport.stats.snapshot()))
        self._routing.append((sm.routing_state.stats, sm.routing_state.stats.snapshot()))
        if trace and self.tracer.enabled:
            tracing.attach_sm(self.tracer, sm, topology=topology)

    def begin_timed(self) -> None:
        """First timed op: set-up is over. Baseline every counter and
        drop the set-up spans. No-op from the second op on."""
        if self._sim_start is not None:
            return
        self._transports = [(s, s.snapshot()) for s, _ in self._transports]
        self._routing = [(s, s.snapshot()) for s, _ in self._routing]
        self._sim_start = get_hub().now()
        if self.tracer.enabled:
            self.tracer.restart()
        self.setup_s = time.time() - self.spawned_at

    def end_timed(self) -> None:
        """The last op is done: remove the shims and freeze the sim-side
        totals, so end-of-run checks are neither traced nor counted."""
        if self._ended:
            return
        self._ended = True
        if self.tracer.enabled:
            self.tracer.remove_shims()
        smps = lft_smps = 0
        for stats, before in self._transports:
            delta = stats.delta_since(before)
            smps += delta.total_smps
            lft_smps += delta.lft_update_smps
            self.add("mad.hops", delta.total_hops)
            self.add("mad.sim_serial_s", delta.serial_time)
            self.add("mad.retransmissions", delta.retransmissions)
            self.add("mad.timeouts", delta.timeouts)
        self.counts["mad.smps"] = smps
        cache: Dict[str, int] = {}
        for stats, before in self._routing:
            for key, value in stats.delta_since(before).items():
                cache[key] = cache.get(key, 0) + value
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        self.counts["sm.routing.cache_hit_share"] = (
            cache.get("hits", 0) / lookups if lookups else 0.0
        )
        for key in ("bfs_sweeps", "sources_repaired", "full_recomputes"):
            self.counts[f"sm.routing.{key}"] = cache.get(key, 0)
        self.counts["obs.spans_recorded"] = len(get_hub().all_spans())
        self.exact.update(
            smps=smps, lft_smps=lft_smps, sim_s=get_hub().now() - (self._sim_start or 0.0)
        )

    def op(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run and time one op (also one step); an exception fails it."""
        self.begin_timed()
        index = len(self.op_s)
        result = None
        with self.tracer.span(f"op:{kind}", "bench"):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # the op boundary: record, keep going
                self.fail(index, kind, f"{type(exc).__name__}: {exc}",
                          traceback.format_exc(limit=4))
            elapsed = time.perf_counter() - start
        self.op_kinds.append(kind)
        self.op_s.append(elapsed)
        self.step_s.append(elapsed)
        return result

    def fail(self, index: int, kind: str, error: str, detail: str = "") -> None:
        self.failed.append({"op": index, "kind": kind, "error": error, "detail": detail})

    def check(self, name: str, ok: bool, *, op: int = -1) -> None:
        """Record a named check; a failed one counts against ``failed``."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            kind = self.op_kinds[op] if 0 <= op < len(self.op_kinds) else "check"
            self.fail(op, kind, f"check failed: {name}")

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def note_configure(self, report) -> None:
        """Fold one ConfigureReport into the per-layer counts."""
        if report.discovery is not None:
            self.add("sm.discovery.smps", report.discovery.smps_sent)
        self.add("sm.routing.pct_s", report.path_compute_seconds)
        self.note_distribution(report.distribution)
        if report.repair_mode:
            self.add(f"repair_mode.{report.repair_mode}", 1)

    def note_distribution(self, dist) -> None:
        self.add("sm.lft_distribution.smps_sent", dist.smps_sent)
        self.add("sm.lft_distribution.switches_updated", dist.switches_updated)
        self.peak("sm.lft_distribution.max_blocks_per_switch", dist.max_blocks_on_one_switch)

    def note_migration(self, report, scheme: str, predicted: Tuple[int, int]) -> bool:
        """Fold one MigrationReport in; returns whether it completed at
        the cost ``predict_swap``/``predict_copy`` gave right before it."""
        reconfig = report.reconfig
        matched = (
            report.outcome == "completed"
            and (reconfig.switches_updated, reconfig.lft_smps) == predicted
        )
        self.add(f"core.migrations.{scheme}", 1)
        self.add(f"core.lft_smps.{scheme}", reconfig.lft_smps)
        self.add("core.switches_updated", reconfig.switches_updated)
        self.add("core.predicted_matches", int(matched))
        self.add("core.downtime_sim_s", report.downtime_seconds)
        self.peak(f"core.max_blocks.{scheme}", reconfig.max_blocks_on_one_switch)
        return matched

    # -- results -------------------------------------------------------------

    def finish(self) -> Dict[str, Any]:
        """Everything the parent needs from this repeat, as JSON data."""
        self.end_timed()
        out: Dict[str, Any] = {
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_kinds": self.op_kinds,
            "op_s": self.op_s,
            "step_s": self.step_s,
            "failed": self.failed,
            "checks": self.checks,
            "counts": self.counts,
            "exact": self.exact,
            "trace": None,
        }
        if self.tracer.enabled:
            out["trace"] = {
                "layers": tracing.layer_table(self.tracer),
                "names": {k: v[1] for k, v in sorted(self.tracer.names.items())},
                "spans": self.tracer.dump(),
                "spans_dropped": self.tracer.spans_dropped,
                "shims_left": self.tracer.shim_count,
            }
        return out


def expected_mismatches(exact: Dict[str, Any], pinned: Dict[str, Any],
                        default_seed: bool) -> List[str]:
    """What of *exact* disagrees with expected.json's entry *pinned*.

    ``pinned["any_seed"]`` holds what no seed may change (the engines'
    table digests); ``pinned["seed"]`` the totals of the default seed,
    compared only when this run used it.
    """
    wanted = dict(pinned.get("any_seed", {}))
    if default_seed:
        wanted.update(pinned.get("seed", {}))
    return [
        f"{key}: got {exact.get(key)!r}, want {want!r}"
        for key, want in sorted(wanted.items())
        if exact.get(key) != want
    ]


def run_repeat(plan: Dict[str, Any], *, traced: bool, spawned_at: float,
               expected: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Execute one repeat of *plan* in this process.

    *expected* is the parsed expected.json; what it pins for this plan's
    workload and size is compared, and every mismatch is a failed check
    (so it shows in ``failed`` and fails the run loudly).
    """
    tracer = tracing.Tracer() if traced else tracing.NoTracer()
    rep = Repeat(plan, tracer, spawned_at)
    _RUNNERS[plan["workload"]](rep)
    out = rep.finish()
    if expected is not None:
        name = plan["workload"]
        pinned = expected["workloads"].get(name, {}).get(size_key(name, plan["scale"]), {})
        wrong = expected_mismatches(out["exact"], pinned, plan["seed"] == expected["seed"])
        out["checks"]["expected_json"] = not wrong
        for message in wrong:
            out["failed"].append({"op": -1, "kind": "check",
                                  "error": f"expected.json mismatch: {message}", "detail": ""})
    return out


# -- fig7-bringup-5832 ------------------------------------------------------


def _tables_digest(tables) -> str:
    return hashlib.sha256(tables.ports.tobytes()).hexdigest()


def _run_fig7(rep: Repeat) -> None:
    plan, T = rep.plan, rep.tracer
    engines: Dict[str, Dict[str, Any]] = {}
    pct: Dict[str, float] = {}
    built = None
    sm = None  # the SM that discovers, distributes and repairs

    def build():
        with T.span("fabric:build", "fabric"):
            return build_fabric(plan["fabric"])

    def fresh_sm(engine: str, *, topology: bool):
        # A fresh SM has a fresh RoutingState: nothing is cached.
        new = SubnetManager(built.topology, engine=engine, built=built)
        rep.track_sm(new, topology=topology)
        return new

    for spec in plan["ops"]:
        kind = spec["op"]
        index = len(rep.op_s)
        if kind == "build":
            built = rep.op(kind, build)
            sm = fresh_sm("minhop", topology=True)
        elif kind == "discover":
            report = rep.op(kind, sm.discover)
            if report is not None:
                rep.add("sm.discovery.smps", report.smps_sent)
        elif kind == "assign_lids":
            rep.op(kind, sm.assign_lids)
        elif kind.startswith("route_cold."):
            engine = kind.split(".", 1)[1]
            # minhop runs on the main SM (its cache has served nothing
            # but the transport's one BFS row), so it has tables to send.
            router = sm if engine == "minhop" else fresh_sm(engine, topology=False)
            tables = rep.op(kind, router.compute_routing)
            if tables is not None:
                engines[engine] = {"sha256": _tables_digest(tables), "num_vls": tables.num_vls}
                pct[engine] = tables.compute_seconds
                rep.add("sm.routing.pct_s", tables.compute_seconds)
        elif kind == "distribute_full":
            dist = rep.op(kind, lambda: sm.distribute(force_full=True))
            if dist is not None:
                rep.note_distribution(dist)
        elif kind == "reconfigure_warm":
            report = rep.op(kind, sm.full_reconfigure)
            if report is not None:
                rep.note_configure(report)
                rep.add("sm.routing.warm_s", report.path_compute_seconds)
        elif kind == "link_fail":
            a, pa, _, _ = spec["cable"]
            link = sm.topology.node(a).port(pa).link
            report = rep.op(kind, lambda: sm.handle_link_failure(link))
            if report is not None:
                rep.note_configure(report)
        elif kind == "link_restore":
            a, pa, b, pb = spec["cable"]
            mutation = TopologyMutation(kind="restore_link", a=a, port_a=pa, b=b, port_b=pb)
            report = rep.op(kind, lambda: sm.handle_topology_change(mutation, verify=False))
            if report is not None:
                rep.note_configure(report)
        if kind in ("distribute_full", "link_fail", "link_restore"):
            rep.check("hardware_equals_sm_tables",
                      sm.distributor.pending_blocks(sm.current_tables) == 0, op=index)
        if kind in ("reconfigure_warm", "link_restore"):
            # Unchanged (or restored) graph: the warm path must land on
            # the cold tables bit for bit.
            rep.check(f"{kind}_equals_cold_minhop",
                      _tables_digest(sm.current_tables) == engines.get("minhop", {}).get("sha256"),
                      op=index)
    rep.end_timed()
    for engine, seconds in pct.items():
        rep.counts[f"sm.routing.pct_s.{engine}"] = seconds
    if plan["fabric"][0] == "paper":  # too close to call on scaled fabrics
        order = [pct[e] for e in ALL_ENGINES if e in pct]
        rep.check("pct_order_ftree_minhop_dfsssp_lash", order == sorted(order))
    rep.exact["engines"] = engines


# -- clouds (vm-churn-648, fault-rewire-3l-wide) -----------------------------


def _build_cloud(rep: Repeat, fabric: List[Any], scheme: str, vfs: int,
                 preload: List[Dict[str, Any]], *, trace: bool = True) -> CloudManager:
    """Fabric + cloud + bring-up + preloaded VMs; its SMPs are accounted
    from the first one on, and with *trace* its layers are shimmed."""
    built = build_fabric(fabric)
    cloud = CloudManager(built.topology, built=built, lid_scheme=scheme, num_vfs=vfs)
    rep.track_sm(cloud.sm, trace=trace)
    if trace and rep.tracer.enabled:
        tracing.attach_cloud(rep.tracer, cloud)
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    for boot in preload:
        cloud.boot_vm(boot["vm"], on=boot["on"], tenant=boot["tenant"])
    return cloud


def _predict(cloud: CloudManager, vm_name: str, dest_name: str) -> Tuple[int, int]:
    """``(n', LFT SMPs)`` the migration about to run should cost."""
    vm = cloud.vms[vm_name]
    dest = cloud.hypervisors[dest_name]
    reconfigurer = cloud.scheme.reconfigurer
    if cloud.scheme.name == "prepopulated":
        return reconfigurer.predict_swap(vm.lid, dest.vswitch.first_free_vf().lid)
    return reconfigurer.predict_copy(dest.pf_lid, vm.lid)


def _direct_op(rep: Repeat, cloud: CloudManager, spec: Dict[str, Any]) -> None:
    kind = spec["op"]
    index = len(rep.op_s)
    if kind == "boot":
        rep.op(kind, lambda: cloud.boot_vm(spec["vm"], on=spec["on"], tenant=spec["tenant"]))
    elif kind == "stop":
        rep.op(kind, lambda: cloud.stop_vm(spec["vm"]))
    else:
        predicted = _predict(cloud, spec["vm"], spec["dest"])
        report = rep.op(kind, lambda: cloud.live_migrate(spec["vm"], spec["dest"]))
        if report is not None:
            rep.check("migration_smps_equal_prediction",
                      rep.note_migration(report, cloud.scheme.name, predicted), op=index)


#: Load stays inside the queue bound (bursts of 16 against a shed
#: threshold of 48) and quotas are out of the way: nothing may be shed.
_SERVICE_KWARGS: Dict[str, Any] = {
    "batch_size": 8,
    "max_queue_depth": 64,
    "default_quota": TenantQuota(max_vms=10**6, max_vfs=10**6, max_migrations_in_flight=10**6),
}


def _service_params(spec: Dict[str, Any]) -> Dict[str, str]:
    params = {"name": spec["vm"]}
    if spec["op"] == "boot":
        params["on"] = spec["on"]
    elif spec["op"] == "migrate":
        params["dest"] = spec["dest"]
    return params


def _service_burst(rep: Repeat, service: ControlPlaneService, burst: List[Dict[str, Any]],
                   serial: int, *, crash: Optional[Tuple[str, CloudManager]] = None,
                   ) -> ControlPlaneService:
    """One closed-loop burst: submit all, pump until all are terminal.

    A request's latency runs from its ``submit`` to the end of the pump
    that made it terminal; the burst as a whole is one timed step. With
    *crash* ``(journal path, cloud)`` the worker is killed after the
    submits and a new one is recovered from the JSONL file before
    pumping; the recovery is one more op inside the same step.
    """
    rep.begin_timed()
    hub = get_hub()
    T = rep.tracer
    first = len(rep.op_s)
    ids = [f"{spec['tenant']}/bench/{serial + i}" for i, spec in enumerate(burst)]
    submit_wall: List[float] = []
    submit_sim: List[float] = []
    done_wall: List[float] = []
    done_sim: List[float] = []
    refused: Dict[int, str] = {}
    recovery = None
    with T.span("op:burst", "bench"):
        start = time.perf_counter()
        for i, spec in enumerate(burst):
            submit_sim.append(hub.now())
            submit_wall.append(time.perf_counter())
            try:
                status = service.submit(spec["tenant"], spec["op"], request_id=ids[i],
                                        **_service_params(spec)).status
            except Exception as exc:  # the op boundary: record, keep going
                status = f"{type(exc).__name__}: {exc}"
            if status != "accepted":
                refused[i] = status
        if crash is not None:
            path, cloud = crash
            sink = service.journal.sink
            service.kill()
            t0 = time.perf_counter()
            with T.span("service:recover_service", "service"):
                journal = IntentJournal.from_jsonl(path)
                journal.sink = sink
                service, recovery = recover_service(journal, cloud, **_SERVICE_KWARGS)
            recover_s = time.perf_counter() - t0
            if T.enabled:
                tracing.attach_service(T, service)
        pumps = 0
        while service.queue_depth:
            depth = service.queue_depth
            service.pump()
            pumps += 1
            finished = depth - service.queue_depth
            done_wall += [time.perf_counter()] * finished
            done_sim += [hub.now()] * finished
        elapsed = time.perf_counter() - start
    rep.step_s.append(elapsed)
    for i, status in refused.items():
        rep.fail(first + i, burst[i]["op"], f"submit answered {status}")
    accepted = [i for i in range(len(burst)) if i not in refused]
    for slot, i in enumerate(accepted):
        # Requests leave the queue in submit order, a batch per pump.
        finished = done_wall[slot] if slot < len(done_wall) else start + elapsed
        rep.op_kinds.append(f"svc.{burst[i]['op']}")
        rep.op_s.append(finished - submit_wall[i])
        if slot < len(done_sim):
            rep.add("service.queue_wait_sim_s", done_sim[slot] - submit_sim[i])
        response = service.response_for(ids[i])
        if response is None or response.status != "completed":
            rep.fail(len(rep.op_s) - 1, burst[i]["op"],
                     f"request ended {response.status if response else 'unanswered'}")
    rep.add("service.submits", len(burst))
    rep.add("service.pumps", pumps)
    if recovery is not None:
        rep.op_kinds.append("recover_warm")
        rep.op_s.append(recover_s)
        rep.add("service.recover_warm_s", recover_s)
        rep.check("warm_recovery_requeued_the_burst",
                  recovery.ok and recovery.requeued == len(accepted), op=len(rep.op_s) - 1)
    return service


def _run_churn(rep: Repeat) -> None:
    plan, T = rep.plan, rep.tracer
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
    try:
        journal_path = os.path.join(workdir, "intents.jsonl")
        clouds = [
            _build_cloud(rep, plan["fabric"], phase["scheme"], plan["vfs"], phase["preload"])
            for phase in plan["phases"]
        ]
        # Set-up computed each live cloud's routing once; no op may again.
        routed = [cloud.sm.routing_state.stats.snapshot() for cloud in clouds]
        served = plan["phases"][2]
        service = ControlPlaneService(
            clouds[2], journal=IntentJournal(sink=journal_path),
            genesis={"fabric": plan["fabric"], "scheme": served["scheme"]}, **_SERVICE_KWARGS,
        )
        if T.enabled:
            tracing.attach_service(T, service)

        for phase, cloud in zip(plan["phases"][:2], clouds):
            for spec in phase["ops"]:
                _direct_op(rep, cloud, spec)

        serial = 1
        for number, burst in enumerate(served["ops"]):
            crash = (journal_path, clouds[2]) if number in plan["kill_in_bursts"] else None
            service = _service_burst(rep, service, burst, serial, crash=crash)
            serial += len(burst)
        rep.counts["service.recover_warm_s"] /= len(plan["kill_in_bursts"])

        def rebuild():
            # The cold cloud is built and replayed inside this one span:
            # its bring-up (one path computation included) is part of
            # what a cold rebuild costs, so its SMPs and sim time count
            # but its layers are not shimmed apart.
            with T.span("service:rebuild_from_journal", "service"):
                return rebuild_from_journal(
                    IntentJournal.from_jsonl(journal_path),
                    build_cloud=lambda genesis: _build_cloud(
                        rep, genesis["fabric"], genesis["scheme"], plan["vfs"],
                        served["preload"], trace=False),
                    **_SERVICE_KWARGS,
                )

        index = len(rep.op_s)
        rebuilt = rep.op("rebuild_cold", rebuild)
        rep.end_timed()
        rep.counts["service.rebuild_cold_s"] = rep.op_s[index]
        if rebuilt is not None:
            cold_cloud, _, report = rebuilt
            rep.counts["service.replayed"] = report.replayed
            rep.check("cold_rebuild_fingerprint_equals_live",
                      report.ok and cloud_fingerprint(cold_cloud) == cloud_fingerprint(clouds[2]),
                      op=index)
        stats = service.stats
        rep.counts["service.journal_entries"] = service.journal.head_seq
        rep.counts["service.journal_bytes"] = os.path.getsize(journal_path)
        rep.counts["service.coalescing_ratio"] = stats.coalescing_ratio
        rep.counts["service.smp_coalescing_ratio"] = stats.smp_coalescing_ratio
        rep.exact["journal_entries"] = service.journal.head_seq
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rep.check("nothing_shed",
              stats.rejected_overload + stats.rejected_quota + stats.timed_out == 0)
    rep.check("routing_idle_after_setup", all(
        not any(cloud.sm.routing_state.stats.delta_since(before).values())
        for cloud, before in zip(clouds, routed)
    ))
    fingerprints = {}
    for phase, cloud in zip(plan["phases"], clouds):
        rep.check(f"audit_cloud.{phase['phase']}", not audit_cloud(cloud))
        rep.check(f"verify_subnet.{phase['phase']}", verify_subnet(cloud.sm).ok)
        fingerprints[phase["phase"]] = cloud_fingerprint(cloud)
    rep.check("m_prime_le_2_prepopulated", 1 <= rep.counts["core.max_blocks.prepopulated"] <= 2)
    rep.check("m_prime_eq_1_dynamic", rep.counts["core.max_blocks.dynamic"] == 1)
    rep.exact["fingerprints"] = fingerprints


# -- fault-rewire-3l-wide ---------------------------------------------------


def _mutation(spec: Dict[str, Any]) -> TopologyMutation:
    kind = spec["op"]
    if kind in ("remove_link", "restore_link"):
        a, pa, b, pb = spec["cable"]
        return TopologyMutation(kind=kind, a=a, port_a=pa, b=b, port_b=pb)
    if kind == "remove_switch":
        return TopologyMutation(kind=kind, a=spec["switch"])
    return TopologyMutation(
        kind=kind, a=spec["switch"], num_ports=spec["num_ports"], level=spec["level"],
        cables=tuple((port, peer, peer_port) for port, peer, peer_port in spec["cables"]),
    )


def _run_rewire(rep: Repeat) -> None:
    plan, T = rep.plan, rep.tracer
    cloud = _build_cloud(rep, plan["fabric"], "dynamic", plan["vfs"], plan["preload"])
    sm = cloud.sm

    def audit():
        with T.span("analysis:verify_subnet", "analysis"):
            return verify_subnet(sm)

    mutations = 0
    for spec in plan["ops"]:
        index = len(rep.op_s)
        if spec["op"] == "audit":
            report = rep.op("audit", audit)
            if report is not None:
                rep.add("analysis.findings", len(report.problems()))
                rep.check("audits_clean", report.ok, op=index)
            continue
        mutation = _mutation(spec)
        vm, dest = spec["migrate"]
        predicted = _predict(cloud, vm, dest)

        def mutate():
            moved = cloud.live_migrate(vm, dest)
            return moved, sm.handle_topology_change(mutation, verify=False)

        result = rep.op(spec["op"], mutate)
        mutations += 1
        if result is not None:
            moved, report = result
            rep.check("migration_smps_equal_prediction",
                      rep.note_migration(moved, "dynamic", predicted), op=index)
            rep.note_configure(report)
    rep.end_timed()
    modes = {k.split(".", 1)[1]: int(v) for k, v in sorted(rep.counts.items())
             if k.startswith("repair_mode.")}
    rep.check("every_repair_mode_recorded", sum(modes.values()) == mutations)
    rep.counts["sm.routing.repair_share"] = modes.get("incremental", 0) / max(mutations, 1)
    final = verify_subnet(sm)
    rep.check("final_verify_subnet", final.ok)
    rep.check("audit_cloud", not audit_cloud(cloud))
    # As in the chaos runner's cold check: a full compute on the repaired
    # cache must equal a from-scratch compute on a fresh SM.
    warm = sm.compute_routing()
    cold = SubnetManager(sm.topology, engine="minhop", built=sm.built).compute_routing()
    rep.check("final_tables_equal_cold_recompute", warm.ports.tobytes() == cold.ports.tobytes())
    rep.exact["tables_sha256"] = _tables_digest(warm)
    rep.exact["repair_modes"] = modes
    rep.exact["fingerprint"] = cloud_fingerprint(cloud)


# -- dataplane-a2a-324 ------------------------------------------------------


def _burst_flows(spec: Dict[str, Any], lids: List[int]) -> List[Tuple[int, int]]:
    active = [lids[i] for i in spec["active"]]
    if spec["kind"] == "uniform":
        return [(a, b) for a in active for b in active if a != b]
    dest = lids[spec["dest"]]
    sources = [lid for lid in active if lid != dest]
    packets = len(active) * (len(active) - 1)
    return [(sources[i % len(sources)], dest) for i in range(packets)]


def _run_dataplane(rep: Repeat) -> None:
    plan, T = rep.plan, rep.tracer
    built = build_fabric(plan["fabric"])
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    rep.track_sm(sm)
    sm.initial_configure()
    lids = [built.topology.node(name).lid for name in plan["hosts"]]
    harness = TelemetryHarness(
        sm, endpoints=lids, channel_credits=DATAPLANE_CREDITS,
        hoq_timeout=DATAPLANE_HOQ_TIMEOUT,
    )
    if T.enabled:
        tracing.attach_telemetry(
            T, harness, DataPlaneSimulator,
            after_run=lambda sim, *_: rep.add("sim.dataplane.events", sim.engine.events_processed),
        )
    flows = [_burst_flows(spec, lids) if spec["op"] == "burst" else None for spec in plan["ops"]]
    for spec, burst in zip(plan["ops"], flows):
        index = len(rep.op_s)
        if burst is None:
            report = rep.op("sweep", harness.sweep)
            if report is not None:
                rep.add("telemetry.sweeps", 1)
                rep.add("telemetry.sweep_smps", report.smps)
                rep.add("telemetry.samples", report.samples)
                rep.check("sweeps_complete", not report.missed, op=index)
            continue
        stats = rep.op(f"burst.{spec['kind']}", lambda: harness.burst(burst))
        if stats is not None:
            rep.add("sim.dataplane.packets", stats.injected)
            rep.add("sim.dataplane.hoq_drops", stats.dropped_timeout)
            rep.check("delivered_equals_injected",
                      stats.delivered == stats.injected == len(burst), op=index)
            rep.peak(f"max_latency_sim_s.{spec['kind']}", max(stats.latencies, default=0.0))
    rep.end_timed()
    rep.check("verify_matrix", harness.verify_matrix())
    rep.check("incast_packets_waited",
              rep.counts["max_latency_sim_s.incast"] > rep.counts["max_latency_sim_s.uniform"])
    totals = dict.fromkeys(("xmit_packets", "rcv_packets", "xmit_wait", "xmit_discards"), 0)
    for node in built.topology.switches + built.topology.hcas:
        for counters in node.counters.values():
            for name in totals:
                totals[name] += getattr(counters, name)
    rep.exact["dataplane"] = {
        "injected": harness.injected,
        "delivered": harness.delivered,
        "dropped_timeout": harness.dropped_timeout,
        "dropped_no_route": harness.dropped_no_route,
        "matrix_total": harness.matrix.total,
    }
    rep.exact["counter_totals"] = totals
    rep.exact["sweep_samples"] = int(rep.counts["telemetry.samples"])


_RUNNERS = {
    "fig7-bringup-5832": _run_fig7,
    "vm-churn-648": _run_churn,
    "fault-rewire-3l-wide": _run_rewire,
    "dataplane-a2a-324": _run_dataplane,
}
