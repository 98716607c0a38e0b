"""Property tests for immutable, size-cached store rows.

Random put/update/delete/batch_write sequences, with nested
``Set``/``Remove``/``Add``/``Delete`` paths (list indexes, missing
intermediates, set values), run against a replicated, sharded store
with real replication lag, leader failovers and chain migrations.
After every step:

- every stored row's cached size equals ``item_size(row)`` on the
  leader and on every follower;
- no row object ever stored (and so no pending replication-log record,
  which holds the leader's row) has changed since it was first seen;
- ``storage_bytes()`` equals a full recount;
- scribbling over any dict returned by ``get``/``query``/``update``/
  ``delete`` leaves the store unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    Add,
    ChainMigrator,
    Delete,
    IfNotExists,
    KVStore,
    ListAppend,
    PathRef,
    Remove,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    Value,
    item_size,
)
from repro.kvstore.errors import ValidationError
from repro.kvstore.expressions import UpdateAction, path
from repro.kvstore.item import copy_item
from repro.kvstore.store import NullTimeSource
from repro.sim import LatencyModel, RandomSource

SETTINGS = dict(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])
SHIP_LAG = 251.0  # > DEFAULT_MAX_LAG_MS: every shipped record is visible

HASHES = ["h0", "h1", "h2"]
RANGES = ["r0", "r1"]
TOPS = ["A", "B", "Ünï"]
MAP_KEYS = ["x", "y"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.binary(max_size=4))
set_values = st.one_of(
    st.frozensets(st.integers(0, 5), max_size=3).map(set),
    st.frozensets(st.sampled_from("abc"), max_size=3).map(set))
values = st.recursive(
    st.one_of(scalars, set_values),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(MAP_KEYS), inner, max_size=2)),
    max_leaves=6)
paths = st.builds(
    lambda top, rest: path(top, *rest), st.sampled_from(TOPS),
    st.lists(st.one_of(st.sampled_from(MAP_KEYS), st.integers(0, 2)),
             max_size=2))
keys = st.tuples(st.sampled_from(HASHES), st.sampled_from(RANGES))


class AppendInPlace(UpdateAction):
    """An action defined outside the store, changing nested values in
    place: the update must hand it a private deep copy."""

    def apply(self, item):
        value = item.get("A")
        if isinstance(value, list):
            value.append(1)
        elif isinstance(value, dict):
            value["x"] = [value.get("x")]
        else:
            item["A"] = [value]


actions = st.one_of(
    st.builds(Set, paths, values),
    st.builds(Remove, paths),
    st.builds(Add, paths, st.one_of(st.integers(-5, 5), set_values)),
    st.builds(Delete, paths, set_values),
    st.builds(lambda p, v: Set(p, IfNotExists(p, Value(v))), paths, values),
    st.builds(lambda p, v: Set(p, ListAppend(PathRef(p), Value([v]))),
              paths, scalars),
    st.just(AppendInPlace()))


def _item(key, attrs):
    return {"Key": key[0], "RowId": key[1], **attrs}


def _batch_write(puts, deletes):
    # One batch may not touch a key twice.
    put_keys = {(item["Key"], item["RowId"]) for item in puts}
    return ("batch_write", puts,
            [key for key in deletes if key not in put_keys])


items = st.builds(_item, keys,
                  st.dictionaries(st.sampled_from(TOPS), values,
                                  max_size=3))
steps = st.one_of(
    st.tuples(st.just("put"), items),
    st.tuples(st.just("update"), keys, st.lists(actions, min_size=1,
                                                max_size=3)),
    st.tuples(st.just("delete"), keys),
    st.builds(_batch_write,
              st.lists(items, max_size=3, unique_by=lambda i: (
                  i["Key"], i["RowId"])),
              st.lists(keys, max_size=2, unique=True)),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("query"), st.sampled_from(HASHES)),
    st.tuples(st.just("tick"), st.floats(0.0, 120.0)),
    st.tuples(st.just("fail_leader"), st.integers(0, 1)),
    st.tuples(st.just("migrate"), st.sampled_from(HASHES)),
)


def make_store():
    clock = NullTimeSource()
    groups = []
    for shard in range(2):
        nodes = [KVStore(time_source=clock,
                         rand=RandomSource(10 * shard + i, "node"),
                         shard_id=shard) for i in range(3)]
        groups.append(ReplicaGroup(
            nodes[0], nodes[1:], rand=RandomSource(shard, "repl"),
            latency=LatencyModel(RandomSource(shard, "repl-lat"))))
    store = ReplicatedStore(groups)
    store.create_table("data", hash_key="Key", range_key="RowId")
    return store, clock


def _tables(store):
    for group in store.groups:
        for node in group.nodes:
            yield from node._tables.values()


def _entries(store):
    for table in _tables(store):
        for partition in table._partitions.values():
            yield from partition.values()


def _leader_rows(store):
    return {(table, *key): copy_item(row)
            for group in store.groups
            for table, tbl in group.leader._tables.items()
            for key, (row, _size) in tbl._iter_raw()}


def _scribble(value):
    """Change every container reachable from ``value`` in place."""
    if isinstance(value, dict):
        for element in list(value.values()):
            _scribble(element)
        value["Scribble"] = True
    elif isinstance(value, list):
        for element in value:
            _scribble(element)
        value.append("scribble")
    elif isinstance(value, set):
        value.add("scribble")


class Checker:
    """Remembers every row object and its content when first seen."""

    def __init__(self, store):
        self.store = store
        self.seen = {}

    def register(self):
        for group in self.store.groups:
            for follower in group._followers.values():
                for record, _visible in follower.pending:
                    if record.entry is not None:
                        self._see(record.entry[0])
        for row, _size in _entries(self.store):
            self._see(row)

    def _see(self, row):
        self.seen.setdefault(id(row), (row, copy_item(row)))

    def check(self):
        for row, size in _entries(self.store):
            assert size == item_size(row)
        for row, content in self.seen.values():
            assert row == content, "a stored row changed in place"
        assert self.store.storage_bytes() == sum(
            item_size(row) for row in _leader_rows(self.store).values())
        self.register()


def _run(store, clock, migrator, step):
    """Run one step; return the dicts it handed back to the caller."""
    kind = step[0]
    if kind == "put":
        store.put("data", step[1])
        return []
    if kind == "update":
        return [store.update("data", step[1], step[2])]
    if kind == "delete":
        return [store.delete("data", step[1])]
    if kind == "batch_write":
        store.batch_write("data", step[1], step[2])
        return []
    if kind == "get":
        return [store.get("data", step[1]),
                store.get("data", step[1], consistency="eventual")]
    if kind == "query":
        return (store.query("data", step[1]).items
                + store.query("data", step[1],
                              consistency="eventual").items)
    if kind == "tick":
        clock.sleep(step[1])
        return []
    if kind == "fail_leader":
        store.groups[step[1]].fail_leader()
        return []
    source = store.shard_for("data", step[1])
    migrator.migrate([("data", step[1], 1 - source)])
    return []


@given(st.lists(steps, min_size=1, max_size=25))
@settings(**SETTINGS)
def test_rows_stay_immutable_and_sized(sequence):
    store, clock = make_store()
    migrator = ChainMigrator(store)
    checker = Checker(store)
    for step in sequence:
        before = _leader_rows(store)
        try:
            returned = _run(store, clock, migrator, step)
        except ValidationError:
            # A rejected update leaves every row exactly as it was.
            assert step[0] == "update"
            assert _leader_rows(store) == before
            returned = []
        checker.check()
        after = _leader_rows(store)
        for value in returned:
            _scribble(value)
        assert _leader_rows(store) == after
        checker.check()
    # Fully drained followers hold exactly the leader's rows.
    clock.sleep(SHIP_LAG)
    for group in store.groups:
        group.replication_lag()
        for follower in group.followers:
            for name, table in follower._tables.items():
                leader_table = group.leader._tables[name]
                assert dict(table._iter_raw()) == dict(
                    leader_table._iter_raw())
    checker.check()


def test_update_shares_untouched_subtrees():
    store, clock = make_store()
    store.put("data", {"Key": "h0", "RowId": "r0",
                       "A": {"x": [1, 2]}, "B": {"y": {"z": 1}}})
    group = store.groups[store.shard_for("data", "h0")]
    table = group.leader._tables["data"]
    old_row, old_size = table.row_entry(("h0", "r0"))
    store.update("data", ("h0", "r0"), [Set(path("A", "x", 0), 10)])
    new_row, new_size = table.row_entry(("h0", "r0"))
    assert new_row is not old_row
    assert old_row["A"] == {"x": [1, 2]}
    assert new_row["A"] == {"x": [10, 2]}
    assert new_row["B"] is old_row["B"]
    assert (old_size, new_size) == (item_size(old_row), item_size(new_row))
    # Followers install the leader's row object itself.
    clock.sleep(SHIP_LAG)
    group.replication_lag()
    for follower in group.followers:
        assert follower._tables["data"].row_entry(("h0", "r0"))[0] is new_row


@pytest.mark.parametrize("actions", [
    [Set("New", 1), Set("Ünï", "é")],          # top-level entries
    [Remove("Ünï"), Remove("Missing")],
    [Set(path("Map", "new"), [1]), Set(path("Map", "é"), {"a"})],
    [Remove(path("Map", "é")), Remove(path("Map", "gone", "x"))],
    [Set(path("List", 1), "longer"), Remove(path("List", 0))],
    [Add(path("Map", "n"), 5), Add(path("Map", "s"), {"b"})],
    [Delete(path("Map", "s"), {"a"}), Delete(path("Map", "no"), {"a"})],
    [Set(path("M", "k"), 1)],                 # creates the intermediate map
    [Add(path("M", "k", "j"), 2)],
    [AppendInPlace()],                        # unknown action: deep copy
    [Set(path("Map", "é"), 1), AppendInPlace(), Remove(path("List", 0))],
])
def test_update_sizes_are_exact(actions):
    store, _clock = make_store()
    store.put("data", {"Key": "h1", "RowId": "r0", "A": [1], "M": 5,
                       "Ünï": "ü", "List": ["a", {"b": 2}],
                       "Map": {"é": "ö", "s": {"a", "c"}}})
    group = store.groups[store.shard_for("data", "h1")]
    table = group.leader._tables["data"]
    old_row, _old_size = table.row_entry(("h1", "r0"))
    old_content = copy_item(old_row)
    new_item = store.update("data", ("h1", "r0"), actions)
    row, size = table.row_entry(("h1", "r0"))
    assert row == new_item
    assert size == item_size(row)
    assert old_row == old_content
