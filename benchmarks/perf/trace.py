"""Outside-in tracer: spans around the public callables of each layer.

The program under test is not edited.  :func:`install` replaces public
methods and functions of ``repro`` by wrappers that time one *span* per
call, inside the benchmark child process only, and :meth:`Tracer.restore`
puts every original back.

A span is ``(id, name, start, end, parent id, run id)``.  Names read
``<layer>/<operation>``; the layer part is a module of the repo and is
what the ``<layer>.self_s`` / ``<layer>.calls`` metrics aggregate over.
A stack gives each span its parent, so a layer's *self time* is its
spans' duration minus the part their child spans cover, and the self
times of one run sum to the duration of its root span exactly.  The cost
of the wrappers themselves lands in the parent span's self time;
``trace.overhead_ratio`` and ``trace.span_ns`` say how much that is.

Aggregates (calls and self seconds per name) are exact for every span.
Raw spans are kept for the first :data:`KEEP_SPANS` started only.
"""

from __future__ import annotations

import sys
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

KEEP_SPANS = 100_000

#: ``(module, class, attribute, span name)``: methods traced under one
#: fixed name.  These run in the process that owns the simulated world.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.event_queue", "EventQueue", "pop_next_before", "sim.queue/pop"),
    ("repro.sim.event_queue", "EventQueue", "cancel", "sim.queue/cancel"),
    ("repro.sim.event_queue", "EventQueue", "peek_time", "sim.queue/peek"),
    ("repro.sim.engine", "Simulator", "run", "sim.loop/run"),
    ("repro.sim.engine", "Simulator", "run_until", "sim.loop/run_until"),
    ("repro.sim.engine", "Simulator", "run_window", "sim.loop/run_window"),
    ("repro.tioa.executor", "Executor", "deliver", "tioa.exec/deliver"),
    ("repro.tioa.executor", "Executor", "wake_at", "tioa.exec/wake_at"),
    ("repro.tioa.executor", "Executor", "kick", "tioa.exec/kick"),
    ("repro.core.tracker", "Tracker", "on_wakeup", "core.tracker.wakeup/on_wakeup"),
    ("repro.core.tracker", "Tracker", "enabled_outputs", "core.tracker.enabled/scan"),
    ("repro.tioa.automaton", "TimedAutomaton", "enabled_outputs", "core.client/enabled"),
    ("repro.geocast.cgcast", "CGcast", "send_vsa", "geocast.send/vsa"),
    ("repro.geocast.cgcast", "CGcast", "send_to_clients", "geocast.send/to_clients"),
    ("repro.geocast.cgcast", "CGcast", "send_from_client", "geocast.send/from_client"),
    ("repro.geocast.cgcast", "CGcast", "apply_remote", "geocast.deliver/remote"),
    ("repro.topo.routes", "RouteTable", "path", "topo.lookup/route_path"),
    ("repro.topo.routes", "RouteTable", "distance", "topo.lookup/route_distance"),
    ("repro.topo.distances", "DistanceTable", "row", "topo.lookup/row"),
    ("repro.topo.distances", "DistanceTable", "distance", "topo.lookup/distance"),
    ("repro.topo.cache", "TopologyCache", "hierarchy", "topo.lookup/hierarchy"),
    ("repro.topo.cache", "TopologyCache", "regions_at_distance", "topo.lookup/partition"),
    ("repro.vsa.vbcast", "VBcast", "bcast", "vsa.vbcast/bcast"),
    ("repro.energy.ledger", "EnergyLedger", "charge_vbcast", "energy.charge/vbcast_tx"),
    ("repro.energy.ledger", "EnergyLedger", "charge_vbcast_rx", "energy.charge/vbcast_rx"),
    ("repro.energy.ledger", "EnergyLedger", "charge_sense", "energy.charge/sense"),
    ("repro.obs._state", "ObsGate", "emit", "obs.emit/event"),
    ("repro.core.finds", "FindCoordinator", "new_find", "core.finds/new_find"),
    ("repro.core.finds", "FindCoordinator", "client_found", "core.finds/found"),
    ("repro.core.vinestalk", "VineStalk", "issue_find", "core.client/issue_find"),
    ("repro.mobility.evader", "Evader", "enter", "core.client/evader_enter"),
    ("repro.mobility.evader", "Evader", "move_to", "core.client/evader_step"),
    ("repro.sim.sharded.context", "ShardContext", "report", "service.report/report"),
    ("repro.sim.sharded.core", "SerialTransport", "__init__", "sim.sharded.transport/spawn"),
    ("repro.sim.sharded.core", "SerialTransport", "start", "sim.sharded.transport/start"),
    ("repro.sim.sharded.core", "SerialTransport", "step_all", "sim.sharded.transport/step_all"),
    ("repro.sim.sharded.core", "SerialTransport", "finish", "sim.sharded.transport/finish"),
)

#: Methods of the driving process.  They stay traced when the world runs
#: in worker processes, where :data:`METHODS` would slow the workers
#: down and lose their spans.
DRIVER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.service", "TrackingService", "run", "service.run/run"),
    ("repro.analysis.parallel", "SweepRunner", "run", "analysis.parallel/run"),
    ("repro.sim.sharded.worker", "ProcessTransport", "__init__", "sim.sharded.transport/spawn"),
    ("repro.sim.sharded.worker", "ProcessTransport", "start", "sim.sharded.transport/start"),
    ("repro.sim.sharded.worker", "ProcessTransport", "step_all", "sim.sharded.transport/step_all"),
    ("repro.sim.sharded.worker", "ProcessTransport", "finish", "sim.sharded.transport/finish"),
    ("repro.sim.sharded.worker", "ProcessTransport", "close", "sim.sharded.transport/close"),
)

#: ``(module, function, span name)``: module-level functions, patched in
#: every loaded ``repro`` module that imported them by name.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenario", "build", "scenario.build/build"),
    ("repro.workload", "materialize", "workload.materialize/materialize"),
    ("repro.sim.sharded.workload", "schedule_workload", "workload.schedule/schedule"),
    ("repro.service.metrics", "service_metrics", "service.report/metrics"),
)

#: Event-tag prefix -> span name of the event's callback, assigned where
#: the callback enters the queue (``EventQueue.push``).  Callbacks with
#: other tags stay part of the loop's self time.
EVENT_SPANS: Tuple[Tuple[str, str], ...] = (
    ("in:", "tioa.exec/input_event"),
    ("wake:", "tioa.exec/wakeup_event"),
    ("cgcast", "geocast.deliver/event"),
    ("xshard:", "geocast.deliver/remote_event"),
    ("vbcast", "vsa.vbcast/deliver_event"),
    ("workload:", "core.client/script_event"),
)

#: Class of a C-gcast send observer's owner -> span name.
OBSERVER_SPANS: Dict[str, str] = {
    "WorkAccountant": "analysis.accounting/observe",
    "ShardContext": "sim.sharded.fingerprint/observe",
    "FindCoordinator": "core.finds/observe",
    "EnergyLedger": "energy.charge/send",
}


class Tracer:
    """A span stack with per-name aggregates and restorable patches."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Plain counts and values recorded at span boundaries.
        self.values: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.keep = keep
        self._stack: List[list] = []  # frames: [span id, child seconds]
        self._started = 0
        self._runs = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span named ``name``."""
        stack = self._stack
        span_id = self._started
        self._started = span_id + 1
        if not stack:
            self._runs += 1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            parent = -1
            if stack:
                top = stack[-1]
                top[1] += duration
                parent = top[0]
            if span_id < self.keep:
                self.spans.append((span_id, name, start, end, parent, self._runs))

    def bind(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call is a span named ``name``."""
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr = make(original)``; undone by :meth:`restore`.

        ``owner`` is a class or a module and must define ``attr`` itself,
        so that restoring is one plain assignment.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_function(self, module: str, attr: str, make: Callable) -> None:
        """Patch a module-level function wherever it was imported by name."""
        original = getattr(import_module(module), attr)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            if vars(loaded).get(attr) is original:
                self._patches.append((loaded, attr, original))
                setattr(loaded, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Aggregates, values and the kept raw spans, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "values": dict(self.values),
            "spans_started": self._started,
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": [list(span) for span in self.spans],
        }


def layer_totals(report: dict) -> Tuple[Dict[str, int], Dict[str, float]]:
    """``(calls, self seconds)`` per layer, summed over its span names."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for name, count in report["calls"].items():
        layer = name.split("/", 1)[0]
        calls[layer] = calls.get(layer, 0) + count
        self_s[layer] = self_s.get(layer, 0.0) + report["self_s"][name]
    return calls, self_s


def span_cost_ns(samples: int = 20_000) -> float:
    """Host ns one empty span costs, measured on a throwaway tracer."""
    tracer = Tracer(keep=0)
    traced = tracer.bind("noop", lambda: None)
    start = perf_counter()
    for _ in range(samples):
        traced()
    return (perf_counter() - start) / samples * 1e9


# ----------------------------------------------------------------------
# The patch table
# ----------------------------------------------------------------------
def install(tracer: Tracer, in_process: bool = True) -> None:
    """Trace every layer named in the module tables.

    ``in_process=False`` keeps only :data:`DRIVER_METHODS`: the set for a
    run whose simulated world lives in forked worker processes.
    """

    def spanned(name: str) -> Callable[[Callable], Callable]:
        return lambda original: tracer.bind(name, original)

    for module, cls, attr, name in DRIVER_METHODS:
        tracer.patch(getattr(import_module(module), cls), attr, spanned(name))
    _patch_sharded_run(tracer)
    if not in_process:
        return
    for module, cls, attr, name in METHODS:
        tracer.patch(getattr(import_module(module), cls), attr, spanned(name))
    for module, attr, name in FUNCTIONS:
        tracer.patch_function(module, attr, spanned(name))
    _patch_queue_push(tracer)
    _patch_automata(tracer)
    _patch_cgcast(tracer)
    _patch_faults(tracer)


def _patch_sharded_run(tracer: Tracer) -> None:
    """``ShardedSimulator.run``: its self time is the exchange and merge."""
    from repro.sim.sharded.core import ShardedSimulator

    def make(original: Callable) -> Callable:
        def run(simulator: Any) -> Any:
            result = tracer.call("sim.sharded.merge/run", original, simulator)
            tracer.add("sim.sharded.windows", result.windows)
            tracer.add("sim.sharded.cross_msgs", result.cross_shard_messages)
            tracer.add("sim.sharded.worker_busy_s", result.busy_s)
            tracer.add("sim.sharded.barrier_wait_s", result.barrier_wait_s)
            tracer.add("sim.sharded.run_wall_s", result.wall_s)
            return result

        return run

    tracer.patch(ShardedSimulator, "run", make)


def _patch_queue_push(tracer: Tracer) -> None:
    """``EventQueue.push``: a queue span, and the callback named by tag."""
    from repro.sim.event_queue import EventQueue

    call, bind = tracer.call, tracer.bind

    def make(original: Callable) -> Callable:
        def push(queue: Any, time: float, fn: Callable, priority: int = 0,
                 tag: Optional[str] = None) -> Any:
            if tag is not None:
                for prefix, name in EVENT_SPANS:
                    if tag.startswith(prefix):
                        fn = bind(name, fn)
                        break
            return call("sim.queue/push", original, queue, time, fn, priority, tag)

        return push

    tracer.patch(EventQueue, "push", make)


def _patch_automata(tracer: Tracer) -> None:
    """``handle_input`` / ``perform``, named by automaton and message."""
    from repro.core.messages import FIND_MESSAGE_TYPES, MOVE_MESSAGE_TYPES
    from repro.core.tracker import Tracker
    from repro.tioa.automaton import TimedAutomaton

    received = {
        cls: f"core.tracker.recv_move/{cls.__name__}" for cls in MOVE_MESSAGE_TYPES
    }
    received.update(
        (cls, f"core.tracker.recv_find/{cls.__name__}") for cls in FIND_MESSAGE_TYPES
    )
    call = tracer.call

    def make_input(original: Callable) -> Callable:
        def handle_input(automaton: Any, action: Any) -> None:
            if isinstance(automaton, Tracker):
                payload = action.payload
                message = payload[0][1] if payload else None
                name = received.get(type(message), "core.tracker.recv_other/input")
            else:
                name = "core.client/input"
            return call(name, original, automaton, action)

        return handle_input

    def make_perform(original: Callable) -> Callable:
        def perform(automaton: Any, action: Any) -> None:
            name = (
                "core.tracker.perform/perform"
                if isinstance(automaton, Tracker)
                else "core.client/perform"
            )
            return call(name, original, automaton, action)

        return perform

    tracer.patch(TimedAutomaton, "handle_input", make_input)
    tracer.patch(TimedAutomaton, "perform", make_perform)


def _patch_cgcast(tracer: Tracer) -> None:
    """C-gcast: distance memo hits, observers and client sinks by owner."""
    from repro.geocast.cgcast import CGcast

    call, bind, add = tracer.call, tracer.bind, tracer.add
    seen: set = set()

    def make_units(original: Callable) -> Callable:
        def vsa_distance_units(cgcast: Any, src: Any, dest: Any) -> int:
            # A fresh CGcast starts with an empty (src, dest) memo, so the
            # first sight of a pair on one instance is exactly a miss.
            key = (id(cgcast), src, dest)
            if key in seen:
                add("topo.cache.hits")
            else:
                seen.add(key)
                add("topo.cache.misses")
            return call("geocast.distance/units", original, cgcast, src, dest)

        return vsa_distance_units

    def make_observe(original: Callable) -> Callable:
        def observe(cgcast: Any, observer: Callable) -> None:
            owner = type(getattr(observer, "__self__", None)).__name__
            name = OBSERVER_SPANS.get(owner, "analysis.accounting/other")
            return original(cgcast, bind(name, observer))

        return observe

    def make_sink(original: Callable) -> Callable:
        def register_client_sink(cgcast: Any, region: Any, sink: Callable) -> None:
            return original(cgcast, region, bind("core.client/sink", sink))

        return register_client_sink

    tracer.patch(CGcast, "vsa_distance_units", make_units)
    tracer.patch(CGcast, "observe", make_observe)
    tracer.patch(CGcast, "register_client_sink", make_sink)


def _patch_faults(tracer: Tracer) -> None:
    """``FaultInjector.arm``: wrap the filters it installs on the channels."""
    from repro.faults.injector import FaultInjector

    call, add = tracer.call, tracer.add

    def filtered(name: str, original: Callable) -> Callable:
        def fault_filter(*args: Any) -> Any:
            delays = call(name, original, *args)
            if delays is not None:
                add("faults.perturbed")
            return delays

        return fault_filter

    def make(original: Callable) -> Callable:
        def arm(injector: Any) -> Any:
            result = original(injector)
            system = injector.system
            channels = [(system.cgcast, "faults.filter/cgcast")]
            vbcast = getattr(system.network, "vbcast", None)
            if vbcast is not None:
                channels.append((vbcast, "faults.filter/vbcast"))
            for channel, name in channels:
                if channel.fault_filter is not None:
                    channel.fault_filter = filtered(name, channel.fault_filter)
            if system.gps_fault_delay is not None:
                system.gps_fault_delay = tracer.bind(
                    "faults.filter/gps", system.gps_fault_delay
                )
            return result

        return arm

    tracer.patch(FaultInjector, "arm", make)
