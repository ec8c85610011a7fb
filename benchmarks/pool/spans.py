"""Span recorder: times the public calls into each layer from outside.

Nothing under ``src/`` knows about this file.  Before the pool is built
the recorder replaces, at class or module level, the public callables
listed in :data:`LAYER_CALLS` with wrappers that append one span
``(name, start, end, parent)`` per call to four flat arrays, and wraps
every handler passed to ``Network.register`` (named by the recipient's
address prefix and, for the collector, the message class).  ``restore``
puts every original back.

Calls made around a million times per run (``ClassAd.__setitem__``,
``ClassAd.evaluate``, compiled closures) are deliberately not wrapped:
their time is their caller's self time, and wrapping them would cost
more than they do.

A module-level function is imported by name into the modules that use
it (``from ..protocols import stable_equal``), so it is replaced in
every loaded ``repro`` module that holds it, not only where it is
defined.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> (module, class or None, attribute) of each call whose
#: spans carry that name.
LAYER_CALLS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "sim.engine.dispatch": (("repro.sim.engine", "Simulator", "run_until"),),
    "sim.network.send": (("repro.sim.network", "Network", "send"),),
    "sim.trace.emit": (("repro.sim.trace", "Trace", "emit"),),
    "condor.machine.build_ad": (("repro.condor.machine", "MachineAgent", "build_ad"),),
    "condor.machine.advertise": (("repro.condor.machine", "MachineAgent", "advertise"),),
    "condor.schedd.advertise_queue": (
        ("repro.condor.schedd", "CustomerAgent", "advertise_queue"),
    ),
    "condor.schedd.submit": (("repro.condor.schedd", "CustomerAgent", "submit"),),
    "condor.collector.views": (
        ("repro.condor.collector", "Collector", "machine_ads"),
        ("repro.condor.collector", "Collector", "job_ads_by_owner"),
        ("repro.condor.collector", "Collector", "provider_index"),
    ),
    "condor.negotiator.run_cycle": (("repro.condor.negotiator", "Negotiator", "run_cycle"),),
    "matchmaking.matchmaker.negotiation_cycle": (
        ("repro.matchmaking.matchmaker", None, "negotiation_cycle"),
    ),
    "matchmaking.index.delta": (
        ("repro.matchmaking.index", "MaintainedIndex", "advertise"),
        ("repro.matchmaking.index", "MaintainedIndex", "withdraw"),
    ),
    "matchmaking.index.candidates": (
        ("repro.matchmaking.index", "ProviderIndex", "candidates_for"),
    ),
    "protocols.advertising.stable_equal": (
        ("repro.protocols.advertising", None, "stable_equal"),
    ),
    "protocols.advertising.validate_ad": (
        ("repro.protocols.advertising", None, "validate_ad"),
    ),
    "protocols.advertising.store_insert": (
        ("repro.protocols.advertising", "AdStore", "insert"),
    ),
    "protocols.advertising.store_touch": (
        ("repro.protocols.advertising", "AdStore", "touch"),
    ),
    "protocols.advertising.store_expire": (
        ("repro.protocols.advertising", "AdStore", "expire"),
    ),
    "protocols.claiming.verify_claim": (("repro.protocols.claiming", None, "verify_claim"),),
    "protocols.retry.send": (("repro.protocols.retry", "Retransmitter", "send"),),
    "classads.fingerprint": (("repro.classads.fingerprint", None, "fingerprint"),),
    "classads.parse": (("repro.classads.parser", None, "parse"),),
}

#: Handler spans, by the prefix of the address the handler listens on.
HANDLER_LAYERS = {
    "startd": "condor.machine.recv",
    "schedd": "condor.schedd.recv",
}
#: The collector's handler is split by the class of the message.
COLLECTOR_LAYERS = {
    "Advertisement": "condor.collector.recv_advertisement",
    "Refresh": "condor.collector.recv_refresh",
    "Withdrawal": "condor.collector.recv_withdrawal",
}

#: Names of the spans the benchmark opens itself: one around set-up and
#: one around each step of the measured window.  The output checks run
#: between steps, so their spans have no parent and are never summed.
SETUP, STEP = "bench.setup", "bench.step"

#: Every name that gets a ``_self_s`` and a ``_calls`` per-layer metric.
LAYERS: Tuple[str, ...] = (
    tuple(LAYER_CALLS) + tuple(HANDLER_LAYERS.values()) + tuple(COLLECTOR_LAYERS.values())
)


class Recorder:
    """Flat-array span store plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        #: (holder, attribute, original) for every replaced attribute.
        self.patched: List[Tuple[object, str, object]] = []
        # Counters taken at the same boundaries as the spans.
        self.first_sends: Dict[Tuple[str, str], int] = {}
        self.retransmits = 0

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span by hand (the benchmark's own set-up and step spans)."""
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was innermost")

    def wrap(self, fn: Callable, name: str, before: Optional[Callable] = None) -> Callable:
        """*fn* with a span named *name* around every call.

        *before*, if given, sees the call's positional arguments first; it
        takes counts at the boundary and is itself inside the span.
        """
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        def span_wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                if before is not None:
                    before(*args)
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one span adds to a call, measured here and now.

        Times *calls* calls of an empty function bare and wrapped (into a
        scratch recorder) and takes the median difference over *repeats*.
        Measured in the process and at the moment the window was, so the
        box's slow drift mostly cancels out of spans x cost / window.
        """
        scratch = Recorder(self.clock)

        def bare():
            pass

        wrapped = scratch.wrap(bare, "calibration")
        clock = self.clock
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                bare()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(costs)[repeats // 2]

    # -- patching --------------------------------------------------------

    def _replace(self, holder: object, attr: str, new: object) -> None:
        self.patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS` and ``Network.register``.

        ``repro`` must be imported already and no pool built yet: agents
        bind their periodic callbacks when they are constructed.
        """
        if self.patched:
            raise RuntimeError("recorder already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "repro" and m]
        for name, calls in LAYER_CALLS.items():
            for module_name, class_name, attr in calls:
                module = sys.modules[module_name]
                if class_name is not None:
                    cls = getattr(module, class_name)
                    before = self._count_send if name == "sim.network.send" else None
                    self._replace(cls, attr, self.wrap(cls.__dict__[attr], name, before))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(original, name)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, wrapped)
        network = sys.modules["repro.sim.network"].Network
        register = network.__dict__["register"]
        recorder = self

        def register_with_span(net, address, handler):
            register(net, address, recorder.wrap_handler(address, handler))

        register_with_span.__wrapped__ = register
        self._replace(network, "register", register_with_span)

    def wrap_handler(self, address: str, handler: Callable) -> Callable:
        prefix = address.split("@", 1)[0]
        layer = HANDLER_LAYERS.get(prefix)
        if layer is not None:
            return self.wrap(handler, layer)
        if prefix != "collector":
            return handler  # the negotiator takes no inbound traffic
        by_class = {
            cls: self.wrap(handler, layer) for cls, layer in COLLECTOR_LAYERS.items()
        }

        def collector_handler(message):
            by_class.get(type(message).__name__, handler)(message)

        return collector_handler

    def _count_send(self, net, message) -> None:
        """First sends by (message class, sender role) and re-sends, seen
        at ``Network.send``.  A retransmit re-sends the same frozen object,
        so a mark in the object's ``__dict__`` tells the two apart."""
        marks = message.__dict__
        if "_bench_sent" in marks:
            self.retransmits += 1
            return
        marks["_bench_sent"] = True
        key = (type(message).__name__, message.sender.partition("@")[0])
        self.first_sends[key] = self.first_sends.get(key, 0) + 1

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self.patched:
            holder, attr, original = self.patched.pop()
            setattr(holder, attr, original)

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self, root: int) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)`` over *root* and its descendants.

        Self time is a span's duration minus the durations of its direct
        children.  Spans are stored in start order, so the descendants of
        *root* are the run of spans after it whose parent is not older
        than *root*.
        """
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        self_s = [0.0] * len(names)
        calls = [0] * len(names)
        root_id = name_ids[root]
        self_s[root_id] = ends[root] - starts[root]
        calls[root_id] = 1
        for i in range(root + 1, len(starts)):
            parent = parents[i]
            if parent < root:
                break
            duration = ends[i] - starts[i]
            nid = name_ids[i]
            self_s[nid] += duration
            calls[nid] += 1
            self_s[name_ids[parent]] -= duration
        return {names[n]: (self_s[n], calls[n]) for n in range(len(names)) if calls[n]}

    def spans_under(self, root: int) -> List[Tuple[str, float, float, int]]:
        """``(name, start, end, parent)`` of *root* and its descendants,
        times relative to the root's start and parents re-based onto the
        returned list (the root's parent is -1)."""
        base = self.starts[root]
        out = [(self.names[self.name_ids[root]], 0.0, self.ends[root] - base, -1)]
        for i in range(root + 1, len(self.starts)):
            parent = self.parents[i]
            if parent < root:
                break
            out.append(
                (
                    self.names[self.name_ids[i]],
                    self.starts[i] - base,
                    self.ends[i] - base,
                    parent - root,
                )
            )
        return out
