"""Tables: key schemas, atomic row operations, queries, scans, indexes.

A table partitions items by a **hash key** and orders them within a
partition by an optional **range key**. Every mutation is atomic at item
granularity — this is the "atomicity scope" Beldi's linked DAAL is built
around. Conditions are checked and updates applied inside one critical
section, so concurrent simulated writers observe linearizable rows.

Stored rows are immutable. Each partition entry is a ``(row, size)``
pair: the row as ingested (validated and deep-copied once, see
:func:`~repro.kvstore.item.ingest_item`) and its cached
``item_size``. Nothing mutates a stored row in place: ``update`` builds
a new row that shares untouched subtrees with the old one and copies
only the containers along each updated path
(:func:`~repro.kvstore.expressions.apply_updates_cow`), keeping the
size exact from per-path deltas. Replicas install the leader's entry
object itself (:meth:`Table.row_entry` / :meth:`Table.install_row`),
so followers and replication-log records share the leader's row. The
cached size is the only source the store meters from; every row handed
to a caller is a deep copy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.kvstore.errors import (
    ConditionFailed,
    ItemTooLarge,
    ValidationError,
)
from repro.kvstore.expressions import (
    Condition,
    Projection,
    UpdateAction,
    apply_updates_cow,
)
from repro.kvstore.item import (
    compare_values,
    copy_item,
    ingest_item,
    item_size,
)

DEFAULT_MAX_ITEM_BYTES = 400 * 1024  # DynamoDB's row cap

#: Key attribute values must be hashable scalars.
_UNKEYABLE = (list, dict, set, frozenset)

#: A stored row and its cached ``item_size``; never mutated.
RowEntry = tuple[dict, int]


def _row(entry: Optional[RowEntry]) -> Optional[dict]:
    return None if entry is None else entry[0]


def _check_key_part(value: Any) -> Any:
    if isinstance(value, _UNKEYABLE):
        raise ValidationError(
            f"key attributes must be scalar, got {value!r}")
    return value


@dataclass(frozen=True)
class KeySchema:
    """Hash key plus optional range key, by attribute name."""

    hash_key: str
    range_key: Optional[str] = None

    def extract(self, item: dict) -> tuple:
        if self.hash_key not in item:
            raise ValidationError(f"item missing hash key {self.hash_key!r}")
        hash_value = _check_key_part(item[self.hash_key])
        if self.range_key is None:
            return (hash_value,)
        if self.range_key not in item:
            raise ValidationError(
                f"item missing range key {self.range_key!r}")
        return (hash_value, _check_key_part(item[self.range_key]))

    def key_dict(self, key: tuple) -> dict:
        if self.range_key is None:
            return {self.hash_key: key[0]}
        return {self.hash_key: key[0], self.range_key: key[1]}

    def normalize(self, key: Any) -> tuple:
        """Accept a scalar, tuple, or dict and return the canonical tuple."""
        if isinstance(key, dict):
            return self.extract(key)
        if isinstance(key, tuple):
            expected = 1 if self.range_key is None else 2
            if len(key) != expected:
                raise ValidationError(
                    f"key tuple must have {expected} parts, got {len(key)}")
            for part in key:
                _check_key_part(part)
            return key
        if self.range_key is not None:
            raise ValidationError(
                "table has a range key; pass a (hash, range) tuple")
        return (_check_key_part(key),)


@dataclass
class QueryResult:
    items: list[dict]
    last_evaluated_key: Optional[tuple] = None
    scanned_count: int = 0
    consumed_bytes: int = 0


# Scans and queries share a result shape.
ScanResult = QueryResult


@dataclass
class _SecondaryIndex:
    """A sparse global secondary index on one top-level attribute.

    Items that lack the attribute simply do not appear — the trick Beldi's
    intent collector uses to find pending intents cheaply (index on a
    ``Pending`` marker that is removed once the intent is done).
    """

    name: str
    attribute: str
    entries: dict[Any, set] = field(default_factory=dict)

    def remove(self, key: tuple, old_value: Any) -> None:
        bucket = self.entries.get(old_value)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self.entries[old_value]

    def insert(self, key: tuple, new_value: Any) -> None:
        self.entries.setdefault(new_value, set()).add(key)

    def lookup(self, value: Any) -> set:
        return self.entries.get(value, set())


def _hashable_index_value(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        raise ValidationError("index attributes must be scalar")
    return value


class Table:
    """One table: storage, indexes, atomic ops.

    All public methods are thread-safe; the simulation kernel already
    serializes processes, but unit tests exercise tables directly from
    multiple OS threads.
    """

    def __init__(self, name: str, schema: KeySchema,
                 max_item_bytes: int = DEFAULT_MAX_ITEM_BYTES) -> None:
        self.name = name
        self.schema = schema
        self.max_item_bytes = max_item_bytes
        #: hash value -> range value (``None`` without a range key) ->
        #: the stored :data:`RowEntry`.
        self._partitions: dict[Any, dict[Any, RowEntry]] = {}
        self._indexes: dict[str, _SecondaryIndex] = {}
        self._lock = threading.RLock()
        # Range-key order per partition, maintained incrementally so hot
        # partitions (long DAAL chains) do not pay a sort per query.
        self._sorted_cache: dict[Any, list] = {}

    # -- index management ----------------------------------------------------
    def add_index(self, name: str, attribute: str) -> None:
        with self._lock:
            if name in self._indexes:
                raise ValidationError(f"index {name!r} already exists")
            index = _SecondaryIndex(name, attribute)
            for key, (row, _size) in self._iter_raw():
                if attribute in row:
                    index.insert(key, _hashable_index_value(row[attribute]))
            self._indexes[name] = index

    def _index_remove(self, key: tuple, item: Optional[dict]) -> None:
        if item is None:
            return
        for index in self._indexes.values():
            if index.attribute in item:
                index.remove(key, _hashable_index_value(
                    item[index.attribute]))

    def _index_insert(self, key: tuple, item: Optional[dict]) -> None:
        if item is None:
            return
        for index in self._indexes.values():
            if index.attribute in item:
                index.insert(key, _hashable_index_value(
                    item[index.attribute]))

    # -- raw storage helpers --------------------------------------------------
    def _iter_raw(self) -> Iterable[tuple[tuple, RowEntry]]:
        for hash_value, partition in self._partitions.items():
            for range_value, entry in partition.items():
                if self.schema.range_key is None:
                    yield (hash_value,), entry
                else:
                    yield (hash_value, range_value), entry

    def _get_raw(self, key: tuple) -> Optional[RowEntry]:
        partition = self._partitions.get(key[0])
        if partition is None:
            return None
        range_value = key[1] if self.schema.range_key is not None else None
        return partition.get(range_value)

    def _put_raw(self, key: tuple, entry: RowEntry) -> None:
        partition = self._partitions.setdefault(key[0], {})
        range_value = key[1] if self.schema.range_key is not None else None
        if range_value not in partition:
            self._sorted_cache.pop(key[0], None)
        partition[range_value] = entry

    def _delete_raw(self, key: tuple) -> None:
        partition = self._partitions.get(key[0])
        if partition is None:
            return
        range_value = key[1] if self.schema.range_key is not None else None
        if range_value in partition:
            self._sorted_cache.pop(key[0], None)
        partition.pop(range_value, None)
        if not partition:
            del self._partitions[key[0]]

    def _store(self, key: tuple, existing: Optional[RowEntry],
               entry: RowEntry) -> None:
        """Replace ``existing`` (the current entry, or ``None``)."""
        if existing is not None:
            self._index_remove(key, existing[0])
        self._put_raw(key, entry)
        self._index_insert(key, entry[0])

    def _remove(self, key: tuple) -> Optional[RowEntry]:
        existing = self._get_raw(key)
        if existing is not None:
            self._index_remove(key, existing[0])
            self._delete_raw(key)
        return existing

    def _sorted_range_keys(self, hash_value: Any) -> list:
        cached = self._sorted_cache.get(hash_value)
        if cached is None:
            partition = self._partitions.get(hash_value, {})
            cached = sorted(partition.keys(), key=_sort_token)
            self._sorted_cache[hash_value] = cached
        return cached

    def _check_size(self, size: int) -> None:
        if size > self.max_item_bytes:
            raise ItemTooLarge(
                f"item of {size} bytes exceeds {self.max_item_bytes} "
                f"byte cap in table {self.name!r}")

    # -- point operations ------------------------------------------------------
    def get(self, key: Any,
            projection: Optional[Projection] = None) -> Optional[dict]:
        return self.get_sized(key, projection)[0]

    def get_sized(self, key: Any, projection: Optional[Projection] = None
                  ) -> tuple[Optional[dict], int]:
        """``get`` plus the metered size of what it returns (0 if absent)."""
        key = self.schema.normalize(key)
        with self._lock:
            entry = self._get_raw(key)
            if entry is None:
                return None, 0
            row, size = entry
            if projection is not None:
                projected = projection.apply(row)
                return projected, item_size(projected)
            return copy_item(row), size

    def put(self, item: dict, condition: Optional[Condition] = None) -> int:
        """Store a private copy of ``item``; returns its size in bytes."""
        row, size = ingest_item(item)
        key = self.schema.extract(item)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(
                    _row(existing)):
                raise ConditionFailed(
                    f"put condition failed on {self.name}:{key}")
            self._check_size(size)
            self._store(key, existing, (row, size))
        return size

    def update(self, key: Any, updates: Sequence[UpdateAction],
               condition: Optional[Condition] = None) -> dict:
        """Atomically check ``condition`` and apply ``updates``.

        Creates the item (with just its key attributes) when absent,
        matching DynamoDB ``UpdateItem`` semantics. Returns the new item.
        """
        return self.update_sized(key, updates, condition)[0]

    def update_sized(self, key: Any, updates: Sequence[UpdateAction],
                     condition: Optional[Condition] = None
                     ) -> tuple[dict, int]:
        """``update`` plus the new row's size in bytes."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(
                    _row(existing)):
                raise ConditionFailed(
                    f"update condition failed on {self.name}:{key}")
            key_attributes = self.schema.key_dict(key)
            if existing is None:
                draft = dict(key_attributes)
                size = item_size(draft)
            else:
                draft, size = dict(existing[0]), existing[1]
            size = apply_updates_cow(draft, size, updates)
            for name, value in key_attributes.items():
                if draft.get(name) != value:
                    raise ValidationError(
                        f"update may not modify key attribute {name!r}")
            self._check_size(size)
            self._store(key, existing, (draft, size))
            return copy_item(draft), size

    def delete(self, key: Any,
               condition: Optional[Condition] = None) -> Optional[dict]:
        return self.delete_sized(key, condition)[0]

    def delete_sized(self, key: Any, condition: Optional[Condition] = None
                     ) -> tuple[Optional[dict], int]:
        """``delete`` plus the removed row's size (0 if absent)."""
        key = self.schema.normalize(key)
        with self._lock:
            existing = self._get_raw(key)
            if condition is not None and not condition.evaluate(
                    _row(existing)):
                raise ConditionFailed(
                    f"delete condition failed on {self.name}:{key}")
            if existing is None:
                return None, 0
            self._remove(key)
            return copy_item(existing[0]), existing[1]

    def discard(self, key: Any) -> int:
        """Unconditional delete that copies nothing.

        Returns the removed row's size (0 if absent).
        """
        key = self.schema.normalize(key)
        with self._lock:
            removed = self._remove(key)
        return 0 if removed is None else removed[1]

    # -- shared rows (replication) ---------------------------------------------
    def row_entry(self, key: Any) -> Optional[RowEntry]:
        """The stored ``(row, size)`` for ``key`` itself, not a copy.

        The row is immutable: holders may keep and share it, and must
        never change it.
        """
        key = self.schema.normalize(key)
        with self._lock:
            return self._get_raw(key)

    def install_row(self, key: tuple, entry: RowEntry) -> None:
        """Store another table's :meth:`row_entry` as is.

        A follower applying its leader's row: no validate, copy or size
        step. ``key`` must be the normalized key of ``entry``'s row.
        """
        with self._lock:
            self._store(key, self._get_raw(key), entry)

    # -- queries and scans -------------------------------------------------------
    def query(self, hash_value: Any,
              range_condition: Optional[Condition] = None,
              filter_condition: Optional[Condition] = None,
              projection: Optional[Projection] = None,
              limit: Optional[int] = None,
              exclusive_start: Optional[Any] = None,
              reverse: bool = False) -> QueryResult:
        """All items in one partition, ordered by range key."""
        with self._lock:
            partition = self._partitions.get(hash_value, {})
            if self.schema.range_key is None:
                ordered = list(partition.values())
            else:
                range_keys = self._sorted_range_keys(hash_value)
                if reverse:
                    range_keys = list(reversed(range_keys))
                ordered = [partition[rk] for rk in range_keys]
            return self._page(ordered, range_condition, filter_condition,
                              projection, limit, exclusive_start)

    def scan(self, filter_condition: Optional[Condition] = None,
             projection: Optional[Projection] = None,
             limit: Optional[int] = None,
             exclusive_start: Optional[Any] = None) -> ScanResult:
        """Full-table scan in deterministic key order with paging.

        DynamoDB applies ``limit`` *before* the filter; the GC's paging
        (Appendix A, ``LastEvaluatedKey``) depends on that, so we mimic it.
        """
        with self._lock:
            ordered = [entry for _key, entry in
                       sorted(self._iter_raw(),
                              key=lambda kv: _sort_token_tuple(kv[0]))]
            return self._page(ordered, None, filter_condition, projection,
                              limit, exclusive_start)

    def _page(self, ordered: list[RowEntry],
              range_condition: Optional[Condition],
              filter_condition: Optional[Condition],
              projection: Optional[Projection], limit: Optional[int],
              exclusive_start: Optional[Any]) -> QueryResult:
        key_of = self.schema.extract
        start_index = 0
        if exclusive_start is not None:
            for i, (item, _size) in enumerate(ordered):
                if key_of(item) == tuple(exclusive_start):
                    start_index = i + 1
                    break
            else:
                start_index = len(ordered)
        items: list[dict] = []
        scanned = 0
        consumed = 0
        last_key: Optional[tuple] = None
        for item, size in ordered[start_index:]:
            if limit is not None and scanned >= limit:
                break
            scanned += 1
            last_key = key_of(item)
            if range_condition is not None and not range_condition.evaluate(
                    item):
                continue
            if filter_condition is not None and not filter_condition.evaluate(
                    item):
                continue
            if projection is not None:
                out = projection.apply(item)
                consumed += item_size(out)
                items.append(out)
            else:
                consumed += size
                items.append(copy_item(item))
        exhausted = (limit is None or scanned < limit
                     or start_index + scanned >= len(ordered))
        return QueryResult(
            items=items,
            last_evaluated_key=None if exhausted else last_key,
            scanned_count=scanned,
            consumed_bytes=consumed)

    def query_index(self, index_name: str, value: Any,
                    projection: Optional[Projection] = None) -> list[dict]:
        """All items whose indexed attribute equals ``value``."""
        return self.query_index_sized(index_name, value, projection)[0]

    def query_index_sized(self, index_name: str, value: Any,
                          projection: Optional[Projection] = None
                          ) -> tuple[list[dict], int]:
        """``query_index`` plus the total size of the returned items."""
        with self._lock:
            index = self._indexes.get(index_name)
            if index is None:
                raise ValidationError(f"no index named {index_name!r}")
            keys = sorted(index.lookup(value), key=_sort_token_tuple)
            results = []
            total = 0
            for key in keys:
                entry = self._get_raw(key)
                if entry is None:
                    continue
                row, size = entry
                if projection is not None:
                    projected = projection.apply(row)
                    results.append(projected)
                    total += item_size(projected)
                else:
                    results.append(copy_item(row))
                    total += size
            return results, total

    # -- stats -----------------------------------------------------------------
    def item_count(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._partitions.values())

    def storage_bytes(self) -> int:
        with self._lock:
            return sum(size for _key, (_row, size) in self._iter_raw())


def _sort_token(value: Any) -> tuple:
    """Total order over heterogeneous key values (type rank, then value)."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    return (5, str(value))


def _sort_token_tuple(key: tuple) -> tuple:
    return tuple(_sort_token(part) for part in key)
