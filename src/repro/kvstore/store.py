"""The store facade: tables + virtual latency + metering + faults.

``KVStore`` is what every other layer talks to. Each public operation:

1. optionally consults the fault policy (throttling, latency spikes),
2. sleeps a calibrated virtual latency through the time source,
3. performs the atomic table operation,
4. meters the bytes and request units consumed.

With a :class:`NullTimeSource` (the default) the store runs synchronously
with zero latency — unit tests use it directly without a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.kvstore.errors import (
    TableExists,
    TableNotFound,
    ThrottledError,
    TransactionCanceled,
    ConditionFailed,
    UnavailableError,
)
from repro.kvstore.expressions import Condition, Projection, UpdateAction
from repro.kvstore.faults import FaultPolicy, FaultTimeline
from repro.kvstore.metering import Metering
from repro.kvstore.table import KeySchema, QueryResult, ScanResult, Table
from repro.sim.kernel import SimKernel
from repro.sim.latency import LatencyModel, ServiceCapacity
from repro.sim.randsrc import RandomSource


class TimeSource:
    """Protocol: provides virtual time passage for store operations.

    ``pay`` is the store-facing entry point: identical to ``sleep``
    unless an :func:`~repro.kvstore.asyncio.overlap` scope is attached,
    in which case the duration is deferred into the scope's completion
    frontier instead of sleeping inline. ``pending_offset`` exposes the
    scope cursor so capacity queues see overlapped arrivals at their
    true issue offsets; ``clock_id`` identifies the underlying clock so
    scope settlement never double-sleeps sources sharing one kernel.
    """

    #: Active overlap scope, attached by :func:`repro.kvstore.asyncio.overlap`.
    _ov_scope = None

    def sleep(self, duration: float) -> None:
        raise NotImplementedError

    def now(self) -> float:
        raise NotImplementedError

    def pay(self, duration: float) -> None:
        """Sleep ``duration``, or defer it into the active overlap scope."""
        scope = self._ov_scope
        if scope is not None:
            scope.add(duration)
        else:
            self.sleep(duration)

    def pending_offset(self) -> float:
        """Virtual time already accumulated by the active scope's strand."""
        scope = self._ov_scope
        return scope.cursor if scope is not None else 0.0

    def clock_id(self):
        """Identity of the clock this source advances (for deduping)."""
        return id(self)


class NullTimeSource(TimeSource):
    """Zero-latency time source for direct (non-simulated) use.

    Zero- and negative-duration sleeps are no-ops, exactly as in
    :class:`KernelTimeSource` — the two sources must agree so that a
    zero-latency store meters and times identically under both.
    """

    def __init__(self) -> None:
        self._ticks = 0.0

    def sleep(self, duration: float) -> None:
        if duration > 0:
            self._ticks += duration

    def now(self) -> float:
        return self._ticks


class KernelTimeSource(TimeSource):
    """Time source backed by the simulation kernel (virtual ms)."""

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel

    def sleep(self, duration: float) -> None:
        if duration > 0 and self.kernel.current_process is not None:
            self.kernel.sleep(duration)

    def now(self) -> float:
        return self.kernel.now

    def clock_id(self):
        # All sources over one kernel share a clock: an overlap scope
        # spanning several store nodes must settle its frontier once.
        return ("kernel", id(self.kernel))


@dataclass(frozen=True)
class TransactPut:
    table: str
    item: dict
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class TransactUpdate:
    table: str
    key: Any
    updates: Sequence[UpdateAction]
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class TransactDelete:
    table: str
    key: Any
    condition: Optional[Condition] = None


TransactOp = Union[TransactPut, TransactUpdate, TransactDelete]


#: DynamoDB ``BatchWriteItem`` caps one request at 25 put/delete items.
MAX_BATCH_WRITE_ITEMS = 25


class BatchWriteResult:
    """``batch_write``'s return value: what the round trip left unserved.

    Mirrors DynamoDB ``BatchWriteItem``'s ``UnprocessedItems``: under a
    throttle the store may apply only a prefix of the batch and hand the
    rest back for the caller to retry (:func:`batch_write_all` is the
    retrying wrapper). ``unprocessed_puts`` holds the unapplied item
    dicts, ``unprocessed_deletes`` the unapplied keys, both in request
    order.
    """

    def __init__(self, unprocessed_puts: Sequence[dict] = (),
                 unprocessed_deletes: Sequence[Any] = ()) -> None:
        self.unprocessed_puts: list[dict] = list(unprocessed_puts)
        self.unprocessed_deletes: list[Any] = list(unprocessed_deletes)

    @property
    def complete(self) -> bool:
        return not self.unprocessed_puts and not self.unprocessed_deletes

    def merge_from(self, other: "BatchWriteResult") -> None:
        self.unprocessed_puts.extend(other.unprocessed_puts)
        self.unprocessed_deletes.extend(other.unprocessed_deletes)


class BatchGetResult(list):
    """``batch_get``'s return value: aligned rows plus the unserved rest.

    Behaves as a plain list of ``Optional[dict]`` aligned with the
    requested keys (missing rows are ``None``), so callers that predate
    partial results keep working unchanged. Under throttling the store
    may serve only part of the batch — DynamoDB's ``UnprocessedKeys`` —
    in which case the unserved positions are ``None`` *and* listed in
    :attr:`unprocessed_indexes`/:attr:`unprocessed_keys` for the caller
    to retry. Use :func:`batch_get_all` for a retrying wrapper.
    """

    def __init__(self, items: Sequence[Optional[dict]] = (),
                 unprocessed_indexes: Sequence[int] = (),
                 keys: Sequence[Any] = ()) -> None:
        super().__init__(items)
        self.unprocessed_indexes: list[int] = list(unprocessed_indexes)
        self.unprocessed_keys: list[Any] = [
            keys[i] for i in self.unprocessed_indexes] if keys else []

    @property
    def complete(self) -> bool:
        return not self.unprocessed_indexes


class KVStore:
    """A collection of tables behind one latency/metering boundary.

    ``shard_id`` names this node inside a
    :class:`~repro.kvstore.sharding.ShardedStore` (``None`` for a
    standalone store) and scopes shard-targeted fault policies.
    ``capacity`` bounds the node's parallelism: when set, operations
    queue through a :class:`~repro.sim.latency.ServiceCapacity` with that
    many servers, so a saturated node exhibits queueing delay instead of
    unbounded concurrency.
    """

    def __init__(self, time_source: Optional[TimeSource] = None,
                 latency: Optional[LatencyModel] = None,
                 rand: Optional[RandomSource] = None,
                 faults: Optional[FaultPolicy] = None,
                 shard_id: Optional[int] = None,
                 capacity: Optional[int] = None) -> None:
        self.time = time_source or NullTimeSource()
        self.latency = latency or LatencyModel.zero()
        self.rand = rand or RandomSource(0, "kvstore")
        self.faults = faults
        self.shard_id = shard_id
        #: Scheduled fault windows (:class:`FaultTimeline`), installed by
        #: the runtime or a test; ``None`` (the default) skips the hook
        #: with one attribute check.
        self.timeline: Optional[FaultTimeline] = None
        #: ``"leader"`` / ``"follower"`` when this node serves inside a
        #: :class:`~repro.kvstore.replication.ReplicaGroup` (set by the
        #: group; endpoint-static across failovers). Scopes role-targeted
        #: fault windows.
        self.replica_role: Optional[str] = None
        # capacity=0 must reach ServiceCapacity's ValueError, not
        # silently mean "unbounded" — only None disables queueing.
        self.queue = (ServiceCapacity(capacity)
                      if capacity is not None else None)
        self.metering = Metering()
        #: Observability hub (``repro.obs``), attached by an
        #: observability-enabled runtime; ``None`` (the default) skips
        #: every recording hook with one attribute check.
        self.obs = None
        self._tables: dict[str, Table] = {}

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> Table:
        if name in self._tables:
            raise TableExists(f"table {name!r} already exists")
        kwargs = {}
        if max_item_bytes is not None:
            kwargs["max_item_bytes"] = max_item_bytes
        table = Table(name, KeySchema(hash_key, range_key), **kwargs)
        self._tables[name] = table
        return table

    def ensure_table(self, name: str, hash_key: str,
                     range_key: Optional[str] = None,
                     max_item_bytes: Optional[int] = None) -> Table:
        if name in self._tables:
            return self._tables[name]
        return self.create_table(name, hash_key, range_key, max_item_bytes)

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise TableNotFound(f"no table named {name!r}")
        return table

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- latency/fault boundary --------------------------------------------------
    def _throttled(self, op: str) -> bool:
        return (self.faults is not None
                and self.faults.should_throttle(self.rand, op,
                                                shard=self.shard_id))

    def _timeline_check(self, op: str) -> None:
        """Apply scheduled fault windows before the operation runs.

        Raises before any table effect, so every error here is safe to
        retry verbatim. An empty timeline returns after one check.
        """
        timeline = self.timeline
        if timeline is None or not timeline.windows:
            return
        now = self.time.now()
        timeline.observe(self, now)
        if timeline.outage_active(now, op, self.shard_id,
                                  self.replica_role):
            raise UnavailableError(
                f"{op} unavailable (scheduled outage on "
                f"shard {self.shard_id})")
        rate = timeline.burst_rate(now, op, self.shard_id,
                                   self.replica_role)
        if rate > 0 and self.rand.random() < rate:
            raise ThrottledError(f"{op} throttled (error burst)")

    def _charge(self, op: str, units: float = 0.0) -> None:
        """Pay the virtual-time cost of one (admitted) operation.

        Under an :func:`~repro.kvstore.asyncio.overlap` scope the cost is
        deferred into the scope's frontier (``pay``) rather than slept
        inline; the capacity queue still sees the true arrival offset, so
        overlapped operations queue exactly as concurrent arrivals would.
        """
        multiplier = 1.0
        if self.faults is not None:
            multiplier = self.faults.latency_multiplier(
                self.rand, op, shard=self.shard_id)
        if self.timeline is not None and self.timeline.windows:
            multiplier *= self.timeline.latency_multiplier(
                self.time.now(), op, self.shard_id, self.replica_role)
        service = self.latency.sample(op, units=units) * multiplier
        if self.queue is not None and service > 0:
            service = self.queue.delay(
                self.time.now() + self.time.pending_offset(), service)
        self.time.pay(service)

    def _span(self, op: str, table: str, start: float, **args) -> None:
        """Record one store round-trip span (no-op without a tracer).

        Span names mirror the metering op keys exactly, so every
        metered request has exactly one ``store.<op>`` span — the
        parity the observability tests pin.
        """
        obs = self.obs
        if obs is not None:
            obs.tracer.record_span(
                f"store.{op}", cat="store", start=start,
                end=self.time.now(), shard=self.shard_id, table=table,
                **args)

    def _pay(self, op: str, units: float = 0.0) -> None:
        self._timeline_check(op)
        if self._throttled(op):
            raise ThrottledError(f"{op} throttled")
        self._charge(op, units=units)

    # -- point ops ---------------------------------------------------------------
    def get(self, table: str, key: Any,
            projection: Optional[Projection] = None,
            consistency: Optional[str] = None) -> Optional[dict]:
        """Point read.

        ``consistency`` is the DynamoDB knob: ``None``/``"strong"`` is a
        strongly consistent read (full price); ``"eventual"`` meters at
        half a read unit. On a plain :class:`KVStore` both serve the same
        (single, current) state — a
        :class:`~repro.kvstore.replication.ReplicaGroup` additionally
        routes eventual reads to a possibly-lagging follower.
        """
        tbl = self.table(table)
        start = self.time.now()
        self._pay("db.read")
        item, nbytes = tbl.get_sized(key, projection=projection)
        self.metering.record_read("read", table, nbytes,
                                  consistency=consistency)
        self._span("read", table, start)
        return item

    def batch_get(self, table: str, keys: Sequence[Any],
                  projection: Optional[Projection] = None,
                  consistency: Optional[str] = None
                  ) -> BatchGetResult:
        """Read many rows of one table in a single round trip.

        Models DynamoDB ``BatchGetItem`` restricted to one table: the
        whole batch pays one latency/fault draw and meters as a single
        request whose read units cover every served row. Results align
        with ``keys``; missing rows come back as ``None``. An empty
        batch is free.

        Throttling is DynamoDB-style **partial**: a throttle draw serves
        only a prefix of the batch and reports the remainder through
        :attr:`BatchGetResult.unprocessed_indexes` — callers retry the
        rest (see :func:`batch_get_all`). Only when *nothing* could be
        served (always the case for a single-key batch) does the call
        raise :class:`ThrottledError`, matching the point-read contract.
        """
        if not keys:
            return BatchGetResult()
        tbl = self.table(table)
        start = self.time.now()
        self._timeline_check("db.batch_read")
        served = len(keys)
        if self._throttled("db.batch_read"):
            served = self.rand.randint(0, len(keys) - 1)
            if served == 0:
                raise ThrottledError("db.batch_read throttled")
        self._charge("db.batch_read", units=served)
        items: list[Optional[dict]] = []
        total_bytes = 0
        for key in keys[:served]:
            item, nbytes = tbl.get_sized(key, projection=projection)
            items.append(item)
            total_bytes += nbytes
        items.extend(None for _ in range(len(keys) - served))
        self.metering.record_read("batch_get", table, total_bytes,
                                  items=served, consistency=consistency)
        self._span("batch_get", table, start, items=served)
        return BatchGetResult(items,
                              unprocessed_indexes=range(served, len(keys)),
                              keys=keys)

    def batch_write(self, table: str, puts: Sequence[dict] = (),
                    deletes: Sequence[Any] = ()) -> BatchWriteResult:
        """Write/delete many rows of one table in a single round trip.

        Models DynamoDB ``BatchWriteItem`` restricted to one table: up to
        :data:`MAX_BATCH_WRITE_ITEMS` **unconditional** puts and deletes
        (DynamoDB supports no conditions in a batch) paying one
        latency/fault draw, metered as a single request whose write units
        cover every applied item — identical units to the sequential
        path, fewer round trips. An empty batch is free. A batch may not
        put and delete the same key (DynamoDB rejects such requests).

        Throttling is DynamoDB-style **partial**: a throttle draw applies
        only a prefix (puts first, then deletes, in request order) and
        reports the rest through :class:`BatchWriteResult` — callers
        retry via :func:`batch_write_all`. Only when *nothing* could be
        applied does the call raise :class:`ThrottledError`, matching the
        point-write contract.
        """
        puts = list(puts)
        deletes = list(deletes)
        total = len(puts) + len(deletes)
        if total == 0:
            return BatchWriteResult()
        if total > MAX_BATCH_WRITE_ITEMS:
            raise ValueError(
                f"batch_write accepts at most {MAX_BATCH_WRITE_ITEMS} "
                f"items per request, got {total}")
        tbl = self.table(table)
        # DynamoDB rejects any repeated key in one BatchWriteItem —
        # duplicate puts, duplicate deletes, or a put+delete pair.
        touched = set()
        for token in ([repr(tbl.schema.extract(item)) for item in puts]
                      + [repr(tbl.schema.normalize(key))
                         for key in deletes]):
            if token in touched:
                raise ValueError(
                    "batch_write may not touch the same key twice in "
                    "one request")
            touched.add(token)
        start = self.time.now()
        self._timeline_check("db.batch_write")
        served = total
        if self._throttled("db.batch_write"):
            served = self.rand.randint(0, total - 1)
            if served == 0:
                raise ThrottledError("db.batch_write throttled")
        self._charge("db.batch_write", units=served)
        sizes: list[int] = []
        served_puts = min(served, len(puts))
        for item in puts[:served_puts]:
            sizes.append(tbl.put(item))
        served_deletes = served - served_puts
        for key in deletes[:served_deletes]:
            sizes.append(tbl.discard(key))
        self.metering.record_batch_write("batch_write", table, sizes)
        self._span("batch_write", table, start, items=served)
        return BatchWriteResult(
            unprocessed_puts=puts[served_puts:],
            unprocessed_deletes=deletes[served_deletes:])

    def put(self, table: str, item: dict,
            condition: Optional[Condition] = None) -> None:
        tbl = self.table(table)
        op = "db.cond_write" if condition is not None else "db.write"
        start = self.time.now()
        self._pay(op)
        size = tbl.put(item, condition=condition)
        kind = "cond_write" if condition is not None else "write"
        self.metering.record_write(kind, table, size)
        self._span(kind, table, start)

    def update(self, table: str, key: Any,
               updates: Sequence[UpdateAction],
               condition: Optional[Condition] = None) -> dict:
        tbl = self.table(table)
        op = "db.cond_write" if condition is not None else "db.write"
        start = self.time.now()
        self._pay(op)
        new_item, size = tbl.update_sized(key, updates, condition=condition)
        kind = "cond_write" if condition is not None else "write"
        self.metering.record_write(kind, table, size)
        self._span(kind, table, start)
        return new_item

    def delete(self, table: str, key: Any,
               condition: Optional[Condition] = None) -> Optional[dict]:
        tbl = self.table(table)
        start = self.time.now()
        self._pay("db.delete")
        removed, size = tbl.delete_sized(key, condition=condition)
        self.metering.record_write("delete", table, size)
        self._span("delete", table, start)
        return removed

    # -- queries/scans --------------------------------------------------------------
    def query(self, table: str, hash_value: Any,
              range_condition: Optional[Condition] = None,
              filter_condition: Optional[Condition] = None,
              projection: Optional[Projection] = None,
              limit: Optional[int] = None,
              exclusive_start: Optional[Any] = None,
              reverse: bool = False,
              consistency: Optional[str] = None) -> QueryResult:
        tbl = self.table(table)
        start = self.time.now()
        result = tbl.query(hash_value, range_condition=range_condition,
                           filter_condition=filter_condition,
                           projection=projection, limit=limit,
                           exclusive_start=exclusive_start, reverse=reverse)
        self._pay("db.query", units=result.scanned_count)
        self.metering.record_read("query", table, result.consumed_bytes,
                                  items=max(1, result.scanned_count),
                                  consistency=consistency)
        self._span("query", table, start)
        return result

    def scan(self, table: str,
             filter_condition: Optional[Condition] = None,
             projection: Optional[Projection] = None,
             limit: Optional[int] = None,
             exclusive_start: Optional[Any] = None,
             consistency: Optional[str] = None) -> ScanResult:
        tbl = self.table(table)
        start = self.time.now()
        result = tbl.scan(filter_condition=filter_condition,
                          projection=projection, limit=limit,
                          exclusive_start=exclusive_start)
        self._pay("db.scan", units=result.scanned_count)
        self.metering.record_read("scan", table, result.consumed_bytes,
                                  items=max(1, result.scanned_count),
                                  consistency=consistency)
        self._span("scan", table, start)
        return result

    def query_index(self, table: str, index_name: str, value: Any,
                    projection: Optional[Projection] = None,
                    consistency: Optional[str] = None) -> list[dict]:
        tbl = self.table(table)
        start = self.time.now()
        items, nbytes = tbl.query_index_sized(index_name, value,
                                              projection=projection)
        self._pay("db.query", units=len(items))
        self.metering.record_read("query_index", table, nbytes,
                                  items=max(1, len(items)),
                                  consistency=consistency)
        self._span("query_index", table, start)
        return items

    # -- cross-table transactions ------------------------------------------------------
    def transact_write(self, ops: Sequence[TransactOp]) -> None:
        """All-or-nothing conditional writes across tables.

        Models DynamoDB ``TransactWriteItems``; used only by the paper's
        cross-table-transaction baseline variant (Figs. 13 and 16), never by
        Beldi's linked-DAAL path.
        """
        if not ops:
            return
        self._pay("db.txn", units=len(ops))
        tables = [self.table(op.table) for op in ops]
        # Acquire in deterministic order to avoid lock-order inversion.
        unique = {id(t): t for t in tables}
        ordered = sorted(unique.values(), key=lambda t: t.name)
        acquired = []
        try:
            for tbl in ordered:
                tbl._lock.acquire()
                acquired.append(tbl)
            self._transact_locked(ops)
        finally:
            for tbl in reversed(acquired):
                tbl._lock.release()

    def _transact_locked(self, ops: Sequence[TransactOp]) -> None:
        self._transact_check(ops)
        self._transact_apply(ops)

    def _transact_check(self, ops: Sequence[TransactOp]) -> None:
        """Phase 1: check all conditions against current state.

        Callers must hold every involved table's lock (this store's
        ``transact_write`` does; a ``ShardedStore`` holds the locks
        across all involved nodes before checking any of them)."""
        for op in ops:
            tbl = self.table(op.table)
            entry = tbl.row_entry(tbl.schema.extract(op.item)
                                  if isinstance(op, TransactPut) else op.key)
            if op.condition is not None and not op.condition.evaluate(
                    None if entry is None else entry[0]):
                raise TransactionCanceled(
                    f"condition failed on {op.table}")

    def _transact_apply(self, ops: Sequence[TransactOp]) -> None:
        """Phase 2: apply (conditions re-checked by the table; they
        cannot fail because every table lock is held)."""
        start = self.time.now()
        total_bytes = 0
        for op in ops:
            tbl = self.table(op.table)
            if isinstance(op, TransactPut):
                total_bytes += tbl.put(op.item, condition=op.condition)
            elif isinstance(op, TransactUpdate):
                total_bytes += tbl.update_sized(
                    op.key, op.updates, condition=op.condition)[1]
            else:
                tbl.delete(op.key, condition=op.condition)
        self.metering.record_write("transact_write", ops[0].table,
                                   total_bytes)
        self._span("transact_write", ops[0].table, start, items=len(ops))

    # -- stats ---------------------------------------------------------------------------
    def time_sources(self) -> list[TimeSource]:
        """The time sources an overlap scope must cover (just ours)."""
        return [self.time]

    def storage_bytes(self, table: Optional[str] = None) -> int:
        if table is not None:
            return self.table(table).storage_bytes()
        return sum(t.storage_bytes() for t in self._tables.values())

    def item_count(self, table: str) -> int:
        return self.table(table).item_count()


def batch_get_all(store, table: str, keys: Sequence[Any],
                  projection: Optional[Projection] = None,
                  attempts: int = 4) -> list[Optional[dict]]:
    """``batch_get`` that retries the unprocessed remainder to completion.

    Issues up to ``attempts`` batched round trips, each covering only the
    keys the previous one left unprocessed; whatever still remains after
    that falls back to point ``get``\\ s (the pre-batching behavior, with
    its usual throttling semantics). The returned plain list aligns with
    ``keys``. This is the retry loop DynamoDB's SDKs run for
    ``UnprocessedKeys``, and what the transaction-commit and GC callers
    use so a partial throttle never fails a whole batch.
    """
    results: list[Optional[dict]] = [None] * len(keys)
    pending = list(range(len(keys)))
    for _ in range(attempts):
        if not pending:
            return results
        try:
            got = store.batch_get(table, [keys[i] for i in pending],
                                  projection=projection)
        except ThrottledError:
            continue  # nothing served this round; retry the same set
        unprocessed = set(got.unprocessed_indexes)
        still_pending = []
        for position, index in enumerate(pending):
            if position in unprocessed:
                still_pending.append(index)
            else:
                results[index] = got[position]
        pending = still_pending
    for index in pending:
        results[index] = store.get(table, keys[index],
                                   projection=projection)
    return results


def batch_write_all(store, table: str, puts: Sequence[dict] = (),
                    deletes: Sequence[Any] = (),
                    attempts: int = 4) -> None:
    """``batch_write`` that chunks, then retries the remainder to done.

    Splits arbitrarily large put/delete sets into
    :data:`MAX_BATCH_WRITE_ITEMS`-item requests, re-issues whatever each
    round left unprocessed (throttled whole batches included), and after
    ``attempts`` rounds falls back to point ``put``/``delete`` calls —
    the pre-batching behavior, with its usual throttling semantics. This
    is the retry loop DynamoDB's SDKs run for ``UnprocessedItems``; the
    GC and the parallel-invoke claim path use it so a partial throttle
    never fails a whole batch.
    """
    pending_puts = list(puts)
    pending_deletes = list(deletes)
    for _ in range(attempts):
        if not pending_puts and not pending_deletes:
            return
        retry_puts: list[dict] = []
        retry_deletes: list[Any] = []
        queue_puts, queue_deletes = pending_puts, pending_deletes
        while queue_puts or queue_deletes:
            chunk_puts = queue_puts[:MAX_BATCH_WRITE_ITEMS]
            queue_puts = queue_puts[len(chunk_puts):]
            room = MAX_BATCH_WRITE_ITEMS - len(chunk_puts)
            chunk_deletes = queue_deletes[:room]
            queue_deletes = queue_deletes[len(chunk_deletes):]
            try:
                result = store.batch_write(table, chunk_puts,
                                           chunk_deletes)
            except ThrottledError:
                retry_puts.extend(chunk_puts)
                retry_deletes.extend(chunk_deletes)
                continue
            retry_puts.extend(result.unprocessed_puts)
            retry_deletes.extend(result.unprocessed_deletes)
        pending_puts, pending_deletes = retry_puts, retry_deletes
    for item in pending_puts:
        store.put(table, item)
    for key in pending_deletes:
        store.delete(table, key)


__all__ = [
    "BatchGetResult",
    "BatchWriteResult",
    "ConditionFailed",
    "KVStore",
    "KernelTimeSource",
    "MAX_BATCH_WRITE_ITEMS",
    "NullTimeSource",
    "TimeSource",
    "TransactDelete",
    "TransactPut",
    "TransactUpdate",
    "batch_get_all",
    "batch_write_all",
]
