"""Outside-in layer tracing: spans around calls into each layer's functions.

Nothing in the program is edited. :meth:`LayerTracer.install` replaces
the public functions and methods of each layer (module globals and class
attributes) with timing wrappers, and :meth:`LayerTracer.uninstall` puts
the originals back. A wrapper records one span per call that crosses
into a *different* layer; a call inside the same layer (a method calling
its sibling, ``value_size`` recursing) is passed straight through, so a
layer's self time is the CPU spent in its code between calls out of it.

Each span records its name, start and end on both clocks (virtual ms from
the kernel, host CPU seconds from ``time.thread_time``), the span that
caused it, and the request it serves. Host self time is the span's CPU
minus its same-thread children. The kernel lets one pooled thread run at
a time and a thread runs one simulated process from start to end, so a
per-thread span stack is a per-process stack: a spawned process's root
span links to the span that spawned it and inherits its request id.

Kernel-level CPU that happens outside any process body (the dispatch a
finishing process performs on its way out) is caught by wrapping
``SimKernel._dispatch``; a process body's own code outside every layer
(application handlers, the open-loop client closure) lands in the
``unattributed`` root span of that process.

Spans stay in memory (flat typed arrays) and :meth:`LayerTracer.write`
dumps them when the run ends. Item-helper calls (``kvstore.item``) are
tiny and make up most calls, so they are counted and timed per name but
not kept as individual spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import struct
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.core import context as core_context
from repro.core import (collector, daal, gc, intents, invoke, ops,
                        tailcache, txn)
from repro.core.runtime import BeldiRuntime
from repro.kvstore import item as kv_item
from repro.kvstore.errors import ConditionFailed, TransactionCanceled
from repro.kvstore.metering import (DOLLARS_PER_READ_UNIT,
                                    DOLLARS_PER_WRITE_UNIT, Metering)
from repro.kvstore.replication import (ReplicaGroup, ReplicatedStore,
                                       ReplicatedTableView)
from repro.kvstore.sharding import ShardedStore, ShardedTableView
from repro.kvstore.store import KVStore
from repro.kvstore.table import Table
from repro.platform.context import InvocationContext
from repro.platform.platform import ServerlessPlatform
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.state import ResilienceState
from repro.resilience.wrapper import ResilientStore
from repro.sim.kernel import SimEvent, SimKernel, _WorkerThread
from repro.sim.latency import LatencyModel, ServiceCapacity
from repro.workload import openloop
from repro.workload.recorder import LatencyRecorder

UNATTRIBUTED = "unattributed"
STORE_LAYERS = frozenset({"resilience", "kvstore.route", "kvstore.replica",
                          "kvstore.node", "kvstore.table", "kvstore.item"})
#: Layers whose spans are aggregated but not stored one by one.
LEAF_LAYERS = frozenset({"kvstore.item"})

#: Request classes a span can belong to: a client request (ids >= 1 all
#: map to 1), none, or a garbage / intent collector run.
REQUEST, NO_REQUEST, GC_REQUEST, IC_REQUEST = 1, 0, -2, -3
_REQ_CODE = {NO_REQUEST: 1, GC_REQUEST: 2, IC_REQUEST: 3}
#: One kept span: ids, request, caller's layer code, 1 if it raised a
#: condition failure, virtual duration (ms), host CPU clock at start and
#: end and self CPU (s, per thread), virtual start (ms).
SPAN_FIELDS = ("sid", "parent", "name", "req", "caller", "failed",
               "virtual_ms", "h0", "h1", "self_s", "v0")
SPAN_ROW = struct.Struct("<qqiqbbddddd")

#: (layer, classes whose public methods are wrapped, extra private names).
CLASS_TARGETS = [
    ("workload", openloop.AdmissionWindow, ()),
    ("workload", LatencyRecorder, ()),
    ("platform", ServerlessPlatform, ()),
    ("platform", InvocationContext, ()),
    ("core", core_context.BeldiContext, ()),
    ("core", tailcache.TailCache, ()),
    ("resilience", ResilientStore, ()),
    ("resilience", ResilienceState, ()),
    ("resilience", RetryPolicy, ()),
    ("resilience", CircuitBreaker, ()),
    ("kvstore.route", ShardedStore, ()),
    ("kvstore.route", ReplicatedStore, ()),
    ("kvstore.route", ShardedTableView, ()),
    ("kvstore.replica", ReplicaGroup, ()),
    ("kvstore.replica", ReplicatedTableView, ()),
    ("kvstore.node", KVStore, ()),
    ("kvstore.table", Table, ()),
    ("sim", SimKernel, ("_dispatch",)),
    ("sim", SimEvent, ()),
    ("sim", LatencyModel, ()),
]
#: (layer, modules whose public functions are wrapped).
MODULE_TARGETS = [
    ("workload", openloop),
    ("core", ops),
    ("core", daal),
    ("core", txn),
    ("core", invoke),
    ("core", intents),
    ("kvstore.item", kv_item),
]
#: Handled by dedicated wrappers below (request ids, GC/IC tagging, lock
#: wait, queue wait, $ attribution) instead of the generic sweep.
SPECIAL = {
    (SimKernel, "spawn"), (core_context.BeldiContext, "sleep"),
    (txn, "finish_transaction"), (txn, "tx_lock"),
    # A no-op outside schedule exploration: left to its caller.
    (SimKernel, "interleave_point"),
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list = []      # frames: [sid, layer, child_cpu]
        self.req = NO_REQUEST
        self.root_parent = 0
        self.lock_depth = 0
        self.rooted = 0.0          # CPU of root spans closed on this thread


class LayerTracer:
    """Install/uninstall timing wrappers; aggregate and keep spans."""

    def __init__(self) -> None:
        self.active = False
        self.kernel: Any = None
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self._holders: dict[int, list] = {}
        self._charge_lock = threading.Lock()
        self._state = _ThreadState()
        self._sid = itertools.count(1)
        self._req = itertools.count(1)
        self.layers: list = [None]
        #: Kept spans, one packed ``SPAN_ROW`` each.
        self.spans = bytearray()
        #: Leaf calls, (name id << 8 | caller's layer code << 3 | request
        #: class code) -> [calls, self CPU s, virtual ms, failures].
        self.agg: dict[int, list] = {}
        self.reset()

    def reset(self) -> None:
        del self.spans[:]
        self.agg.clear()
        self.gen_late_ms = 0.0
        self.gc_runs = 0
        self.ic_runs = 0
        self.txn = {"commit": 0, "abort": 0}
        self.lock_wait_ms = 0.0
        self.queue_wait_ms = 0.0
        self.service_ms = 0.0
        self.services = 0
        self.dollars: dict[int, float] = {}

    # -- recording ------------------------------------------------------
    def _layer_code(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def span(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` wrapped to record one span per cross-layer call.

        The kernel runs one pooled thread at a time. The only overlap is a
        thread that has just passed the baton closing its own kept spans
        (one atomic ``bytearray.extend`` each), so the shared records need
        no lock.
        """
        nid = self._name_id(name, layer)
        code = self._layer_code(layer)
        state = self._state
        tracer = self
        keep = layer not in LEAF_LAYERS
        thread_time = time.thread_time
        keep_span = self.spans.extend
        pack = SPAN_ROW.pack
        sid_next = self._sid.__next__
        agg = self.agg

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = state.stack
            if stack:
                top = stack[-1]
                if top[1] == code:
                    return fn(*args, **kwargs)
                parent, caller = top[0], top[1]
            else:
                parent, caller = state.root_parent, 0
            frame = [sid_next(), code, 0.0]
            stack.append(frame)
            kernel = tracer.kernel
            v0 = kernel.now
            failed = 0
            h0 = thread_time()
            try:
                return fn(*args, **kwargs)
            except (ConditionFailed, TransactionCanceled):
                failed = 1
                raise
            finally:
                h1 = thread_time()
                stack.pop()
                spent = h1 - h0
                if stack:
                    stack[-1][2] += spent
                else:
                    state.rooted += spent
                if keep:
                    keep_span(pack(frame[0], parent, nid, state.req, caller,
                                   failed, kernel.now - v0, h0, h1,
                                   spent - frame[2], v0))
                else:
                    key = (nid << 8) | (caller << 3) | _REQ_CODE.get(
                        state.req, 0)
                    row = agg.get(key)
                    if row is None:
                        row = agg[key] = [0, 0.0, 0.0, 0]
                    row[0] += 1
                    row[1] += spent - frame[2]
                    row[2] += kernel.now - v0

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _charge(self, name: str, layer: str, cpu: float) -> None:
        """Book CPU spent outside any wrapped call to ``name``. New
        threads call this while bootstrapping, possibly side by side."""
        key = (self._name_id(name, layer) << 8) | _REQ_CODE[NO_REQUEST]
        with self._charge_lock:
            row = self.agg.setdefault(key, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += cpu

    # -- installing -----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original: Callable, wrapped: Callable
                          ) -> None:
        """Swap ``original`` for ``wrapped`` in every module global that
        holds it (``from x import f`` binds a module-level copy)."""
        for module, attr in self._holders.get(id(original), ()):
            if module.__dict__.get(attr) is original:
                self._set(module, attr, wrapped)

    def install(self) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value):
                    self._holders.setdefault(id(value), []).append(
                        (module, attr))
        for layer, module in MODULE_TARGETS:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or (module, attr) in SPECIAL):
                    continue
                self._replace_function(
                    value, self.span(value, f"{layer}.{short}.{attr}",
                                     layer))
        for layer, cls, extra in CLASS_TARGETS:
            for attr, value in list(vars(cls).items()):
                if ((attr.startswith("_") and attr not in extra)
                        or not inspect.isfunction(value)
                        or (cls, attr) in SPECIAL):
                    continue
                self._set(cls, attr, self.span(
                    value, f"{layer}.{cls.__name__}.{attr}", layer))
        self._install_special()

    def uninstall(self) -> None:
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install_special(self) -> None:
        state = self._state
        tracer = self

        # Gateway: every client call is a new request id.
        call = self.span(BeldiRuntime.client_call,
                         "platform.BeldiRuntime.client_call", "platform")
        next_req = self._req.__next__

        def client_call(runtime, ssf_name, payload=None):
            previous = state.req
            state.req = next_req()
            try:
                return call(runtime, ssf_name, payload)
            finally:
                state.req = previous

        functools.update_wrapper(client_call, BeldiRuntime.client_call)
        self._set(BeldiRuntime, "client_call", client_call)
        self._set(BeldiRuntime, "_handle_call", self.span(
            BeldiRuntime._handle_call, "core.BeldiRuntime._handle_call",
            "core"))

        # Processes: inherit the spawner's request and parent span, and
        # run under an ``unattributed`` root span.
        root = self.span(lambda body, a, k: body(*a, **k),
                         "unattributed.process", UNATTRIBUTED)
        spawn = SimKernel.spawn

        def traced_spawn(kernel, body, *args, name=None, delay=0.0,
                         **kwargs):
            req = state.req
            parent = state.stack[-1][0] if state.stack else \
                state.root_parent
            label = name or getattr(body, "__name__", "process")
            intended = kernel.now + delay
            client = label == "ol-client"

            def process(*a, **k):
                state.stack = []
                state.req = req
                state.root_parent = parent
                state.lock_depth = 0
                if client and tracer.active:
                    tracer.gen_late_ms = max(tracer.gen_late_ms,
                                             kernel.now - intended)
                return root(body, a, k)

            return spawn(kernel, process, *args, name=label, delay=delay,
                         **kwargs)

        functools.update_wrapper(traced_spawn, spawn)
        loop = _WorkerThread._loop

        def worker_loop(worker):
            # A new pooled thread's start-up (stack faults, interpreter
            # bootstrap) runs before any span can open on it.
            if tracer.active:
                tracer._charge("sim.thread_start", "sim", time.thread_time())
            return loop(worker)

        self._set(_WorkerThread, "_loop", worker_loop)
        run_one = _WorkerThread._run_one
        thread_time = time.thread_time

        def worker_run_one(worker, proc):
            # Waking for the first resume and finishing off the process
            # happen on the pooled thread outside the process's spans.
            if not tracer.active:
                return run_one(worker, proc)
            state.rooted = 0.0
            start = thread_time()
            try:
                return run_one(worker, proc)
            finally:
                tracer._charge("sim.worker", "sim",
                               thread_time() - start - state.rooted)

        self._set(_WorkerThread, "_run_one", worker_run_one)
        self._set(SimKernel, "spawn",
                  self.span(traced_spawn, "sim.SimKernel.spawn", "sim"))

        # Store service: split ServiceCapacity.delay's sojourn time. The
        # counting wrappers below sit outside the span wrapper, so they
        # count calls that pass through inside their own layer too.
        delay = self.span(ServiceCapacity.delay,
                          "sim.ServiceCapacity.delay", "sim")

        def split_delay(capacity, now, service_time):
            sojourn = delay(capacity, now, service_time)
            if tracer.active:
                tracer.services += 1
                tracer.service_ms += service_time
                tracer.queue_wait_ms += sojourn - service_time
            return sojourn

        functools.update_wrapper(split_delay, ServiceCapacity.delay)
        self._set(ServiceCapacity, "delay", split_delay)

        # Transactions: outcomes, and virtual time slept waiting on locks.
        finish_span = self.span(txn.finish_transaction,
                                "core.txn.finish_transaction", "core")

        def finish(*args, **kwargs):
            mode = finish_span(*args, **kwargs)
            if tracer.active and mode in tracer.txn:
                tracer.txn[mode] += 1
            return mode

        functools.update_wrapper(finish, txn.finish_transaction)
        self._replace_function(txn.finish_transaction, finish)
        tx_lock = txn.tx_lock

        def locked(*args, **kwargs):
            state.lock_depth += 1
            try:
                return tx_lock(*args, **kwargs)
            finally:
                state.lock_depth -= 1

        functools.update_wrapper(locked, tx_lock)
        self._replace_function(tx_lock, locked)
        sleep = self.span(core_context.BeldiContext.sleep,
                          "core.BeldiContext.sleep", "core")

        def ctx_sleep(ctx, duration):
            sleep(ctx, duration)
            if state.lock_depth and tracer.active:
                tracer.lock_wait_ms += duration

        self._set(core_context.BeldiContext, "sleep", ctx_sleep)

        # Collectors: tag their processes so their cost is separable.
        for module, attr, tag in (
                (gc, "make_garbage_collector", GC_REQUEST),
                (collector, "make_intent_collector", IC_REQUEST)):
            self._set(module, attr, self._collector(
                getattr(module, attr), tag))

        # Metered dollars per request class.
        for attr in ("record_read", "record_write", "record_batch_write"):
            self._set(Metering, attr, self._metered(getattr(Metering, attr)))

    def _collector(self, make: Callable, tag: int) -> Callable:
        state = self._state
        tracer = self

        def make_traced(runtime, env):
            handler = self.span(make(runtime, env),
                                f"core.{make.__module__.rsplit('.', 1)[-1]}"
                                ".handler", "core")

            def run(*args, **kwargs):
                previous = state.req
                state.req = tag
                if tracer.active:
                    if tag == GC_REQUEST:
                        tracer.gc_runs += 1
                    else:
                        tracer.ic_runs += 1
                try:
                    return handler(*args, **kwargs)
                finally:
                    state.req = previous

            return run

        return make_traced

    def _metered(self, record: Callable) -> Callable:
        state = self._state
        tracer = self

        def wrapper(metering, op, *args, **kwargs):
            rec = metering.ops.get(op)
            r0, w0 = (rec.read_units, rec.write_units) if rec else (0, 0)
            record(metering, op, *args, **kwargs)
            if tracer.active and metering.enabled:
                rec = metering.ops[op]
                cost = ((rec.read_units - r0) * DOLLARS_PER_READ_UNIT
                        + (rec.write_units - w0) * DOLLARS_PER_WRITE_UNIT)
                req = state.req if state.req < 1 else 1
                tracer.dollars[req] = tracer.dollars.get(req, 0.0) + cost

        functools.update_wrapper(wrapper, record)
        return wrapper

    # -- reading back ---------------------------------------------------
    def span_count(self) -> int:
        return len(self.spans) // SPAN_ROW.size

    def rows(self):
        """Aggregates as ``(name, layer, request class, caller layer),
        [calls, self CPU s, virtual ms, condition failures]``, over the
        kept spans and the aggregated leaf calls."""
        merged = {key: list(row) for key, row in self.agg.items()}
        for (_sid, _parent, nid, req, caller, failed, virtual, _h0, _h1,
             own, _v0) in SPAN_ROW.iter_unpack(self.spans):
            key = (nid << 8) | (caller << 3) | _REQ_CODE.get(req, 0)
            row = merged.get(key)
            if row is None:
                row = merged[key] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += own
            row[2] += virtual
            row[3] += failed
        classes = {code: req for req, code in _REQ_CODE.items()}
        for key, row in merged.items():
            nid = key >> 8
            yield ((self.names[nid], self.name_layer[nid],
                    classes.get(key & 7, REQUEST),
                    self.layers[(key >> 3) & 31]), row)

    def write(self, path: Path) -> Path:
        """Dump the kept spans: a JSON header plus the packed rows
        (``struct.iter_unpack(header["struct"], data)`` reads them)."""
        path.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": self.name_layer,
            "fields": SPAN_FIELDS,
            "spans": self.span_count(),
            "struct": SPAN_ROW.format,
            "layer_codes": self.layers,
            "parent": "sid of the causing span (0: none)",
            "req": "request id (>0), 0 none, -2 GC, -3 IC",
        }
        (path / "spans.json").write_text(json.dumps(header, indent=1))
        (path / "spans.bin").write_bytes(self.spans)
        return path
