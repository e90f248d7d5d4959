"""Outside-in tracing: timing shims on public methods, spans in memory.

Nothing under ``src/`` is touched. The harness ``setattr``s a timing
wrapper onto public bound methods of the objects it built (and, for the
per-burst ``DataPlaneSimulator`` that ``TelemetryHarness.burst`` builds
internally, onto the class), runs one repeat, and removes every wrapper
again. Each wrapper is one span: name, layer, wall start/end, parent id.
A layer's ``self_s`` is the duration of its spans minus the part their
child spans cover, so the per-layer self times of one run sum to its
traced total exactly.

Per-SMP and per-span-open methods are called 10^5 times a run; those
shims are *leaves*: they are counted and timed but not stored, so the
span dump stays readable and the memory bounded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Kept spans beyond this many are counted in ``spans_dropped`` instead.
MAX_KEPT_SPANS = 20_000


class Tracer:
    """Span recorder plus the shim bookkeeping of one traced repeat."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Kept spans: ``(id, parent_id, name, layer, start, end)``.
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.spans_dropped = 0
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: span name -> [calls, self seconds]
        self.names: Dict[str, List[float]] = {}
        #: Open frames, innermost last: ``[child seconds, span id]``.
        self._stack: List[List[float]] = []
        self._next_id = 1
        #: ``(owner, attr, had_own_attr, previous value)`` per shim.
        self._shims: List[Tuple[Any, str, bool, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, keep: bool) -> Tuple[List[float], float]:
        stack = self._stack
        if keep:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = stack[-1][1] if stack else 0
        frame = [0.0, span_id]
        stack.append(frame)
        return frame, self.clock()

    def _exit(
        self, frame: List[float], start: float, name: str, layer: str, keep: bool
    ) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        self_s = duration - frame[0]
        for table, key in ((self.layers, layer), (self.names, name)):
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0]
            row[0] += 1
            row[1] += self_s
        parent = 0
        if stack:
            stack[-1][0] += duration
            parent = int(stack[-1][1])
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (int(frame[1]), parent, name, layer, start, end)
                )
            else:
                self.spans_dropped += 1

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Bracket a block of the harness's own code in a kept span."""
        frame, start = self._enter(True)
        try:
            yield
        finally:
            self._exit(frame, start, name, layer, True)

    # -- shims ---------------------------------------------------------------

    def shim(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        keep: bool = True,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper (undone by
        :meth:`remove_shims`). *owner* is an instance, or a class when
        the library builds the instances itself. *after* is called with
        the call's positional arguments once it returned, outside the
        span, to read a count off the object."""
        original = getattr(owner, attr)
        name = f"{layer}:{attr}"
        enter, leave = self._enter, self._exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, start = enter(keep)
            try:
                return original(*args, **kwargs)
            finally:
                leave(frame, start, name, layer, keep)
                if after is not None:
                    after(*args)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        own = vars(owner)
        self._shims.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def remove_shims(self) -> None:
        """Restore every shimmed attribute, newest first."""
        while self._shims:
            owner, attr, had_own, previous = self._shims.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    @property
    def shim_count(self) -> int:
        """Shims currently installed."""
        return len(self._shims)

    def restart(self) -> None:
        """Forget everything recorded so far (set-up), keep the shims."""
        if self._stack:
            raise RuntimeError("cannot restart inside an open span")
        self.spans.clear()
        self.spans_dropped = 0
        self.layers.clear()
        self.names.clear()

    # -- results -------------------------------------------------------------

    def dump(self) -> List[Dict[str, object]]:
        """Kept spans as JSON-able records, times relative to the first."""
        if not self.spans:
            return []
        origin = min(s[4] for s in self.spans)
        return [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start_s": round(start - origin, 7),
                "end_s": round(end - origin, 7),
            }
            for sid, parent, name, layer, start, end in self.spans
        ]


class NoTracer:
    """The untraced run: same interface, no spans, no shims."""

    enabled = False

    def span(self, name: str, layer: str):
        """Nothing is recorded."""
        return nullcontext()


# -- which public methods carry a shim, per kind of object the harness builds --

#: SubnetManager methods that are glue between layers ("sm") or a layer's
#: single entry point.
_SM_METHODS = (
    ("discover", "sm.discovery"),
    ("compute_routing", "sm.routing"),
    ("assign_lids", "sm"),
    ("initial_configure", "sm"),
    ("full_reconfigure", "sm"),
    ("handle_link_failure", "sm"),
    ("handle_topology_change", "sm"),
    ("apply_topology_mutation", "sm"),
)
_TOPOLOGY_METHODS = (
    "add_link", "remove_link", "add_switch", "remove_switch", "validate",
    "fabric_view", "terminals", "switch_lids",
)
_CLOUD_METHODS = (
    "adopt_all_hcas", "bring_up_subnet", "boot_vm", "boot_vms_batch",
    "stop_vm", "live_migrate",
)
_SCHEME_METHODS = ("initialize", "boot_vm", "boot_vms", "shutdown_vm", "migrate_lid")


def attach_hub(tracer, hub) -> None:
    """Shim the observability hub once per traced run (leaf shims)."""
    for attr in ("start_span", "end_span"):
        tracer.shim(hub, attr, "obs", keep=False)
    tracer.shim(hub.flight, "record", "obs", keep=False)


def attach_sm(tracer, sm, *, topology: bool = True) -> None:
    """Shim one subnet manager, its transport, distributor and routing
    cache, and (unless another SM on the same fabric already did) its
    topology."""
    for attr, layer in _SM_METHODS:
        tracer.shim(sm, attr, layer)
    tracer.shim(sm.distributor, "distribute", "sm.lft_distribution")
    tracer.shim(sm.transport, "send", "mad", keep=False)
    for attr in ("distances", "row"):
        tracer.shim(sm.routing_state, attr, "sm.routing")
    if topology:
        for attr in _TOPOLOGY_METHODS:
            tracer.shim(sm.topology, attr, "fabric")


def attach_cloud(tracer, cloud) -> None:
    """Shim one cloud manager (virt) and its LID scheme and migration
    orchestrator (core); its subnet manager is :func:`attach_sm`'s."""
    for attr in _CLOUD_METHODS:
        tracer.shim(cloud, attr, "virt")
    for attr in _SCHEME_METHODS:
        tracer.shim(cloud.scheme, attr, "core")
    tracer.shim(cloud.orchestrator, "migrate", "core")


def attach_service(tracer, service) -> None:
    """Shim one control-plane worker and its journal."""
    for attr in ("submit", "pump"):
        tracer.shim(service, attr, "service")
    tracer.shim(service.journal, "append", "service", keep=False)


def attach_telemetry(tracer, harness, simulator_class, *, after_run) -> None:
    """Shim a telemetry harness; the data-plane simulator it builds per
    burst is shimmed on the class. *after_run* receives each simulator
    once its event loop drained."""
    tracer.shim(harness, "burst", "telemetry")
    tracer.shim(harness, "sweep", "telemetry")
    tracer.shim(harness.matrix, "add", "telemetry", keep=False)
    tracer.shim(simulator_class, "__init__", "sim.dataplane")
    tracer.shim(simulator_class, "inject_flows", "sim.dataplane")
    tracer.shim(simulator_class, "run", "sim.dataplane", after=after_run)


def layer_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """``layer -> {calls, self_s}`` of a finished traced run."""
    return {
        layer: {"calls": int(calls), "self_s": self_s}
        for layer, (calls, self_s) in sorted(tracer.layers.items())
    }
