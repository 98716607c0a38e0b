"""Condition and update expression language.

A structured (AST-based) equivalent of DynamoDB's expression strings:

- **conditions** evaluate against an item (possibly ``None`` for a missing
  item) and return a bool — used for conditional writes, query filters, and
  scan filters;
- **updates** mutate an item — ``SET`` (with arithmetic,
  ``if_not_exists`` and ``list_append`` operands), ``REMOVE``, ``ADD`` and
  ``DELETE``. Applied with an ``owned`` record (copy-on-write), an
  action copies each container along its path before changing it, so
  a draft that shares subtrees with a stored row never changes that
  row; each action also reports the exact change in the item's size.

Paths address nested attributes: ``path("RecentWrites", log_key)`` is the
map member ``RecentWrites.<log_key>``. Beldi's linked DAAL relies on exactly
this: a single conditional update can test ``attribute_not_exists(
RecentWrites.k) AND LogSize < N AND attribute_not_exists(NextRow)`` and
apply ``SET Value=v, LogSize=LogSize+1, RecentWrites.k=True`` atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.kvstore.errors import ValidationError
from repro.kvstore.item import (
    compare_values,
    copy_value,
    ingest_value,
    item_size,
    value_size,
)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """An attribute path: top-level name plus nested map keys/list indexes."""

    segments: tuple[Union[str, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValidationError("empty attribute path")
        if not isinstance(self.segments[0], str):
            raise ValidationError("path must start with an attribute name")

    @property
    def top(self) -> str:
        return self.segments[0]  # type: ignore[return-value]

    def get(self, item: Optional[dict]) -> tuple[bool, Any]:
        """Return ``(present, value)`` for this path in ``item``."""
        if item is None:
            return False, None
        node: Any = item
        for segment in self.segments:
            if isinstance(segment, str):
                if not isinstance(node, dict) or segment not in node:
                    return False, None
                node = node[segment]
            else:
                if not isinstance(node, list) or not (
                        0 <= segment < len(node)):
                    return False, None
                node = node[segment]
        return True, node

    def set(self, item: dict, value: Any,
            owned: Optional[dict] = None) -> Optional[int]:
        """Set the path in ``item``, creating intermediate maps as needed.

        Returns the change in ``item_size(item)`` not counting ``value``'s
        own size, or ``None`` when intermediate maps had to be created.
        ``owned`` enables copy-on-write (see :func:`_own`).
        """
        node, created = self._parent_for_write(item, owned)
        last = self.segments[-1]
        if isinstance(last, str):
            if not isinstance(node, dict):
                raise ValidationError(f"cannot set {last!r} on non-map")
            if last in node:
                delta = -value_size(node[last])
            else:
                delta = self._entry_overhead(last)
            node[last] = value
        else:
            if not isinstance(node, list) or not (0 <= last < len(node)):
                raise ValidationError(f"list index {last} out of range")
            delta = -value_size(node[last])
            node[last] = value
        return None if created else delta

    def remove(self, item: dict, owned: Optional[dict] = None) -> int:
        """Remove the path from ``item``; missing paths are a no-op.

        Returns the (non-positive) change in ``item_size(item)``.
        """
        present, old = self.get(item)
        if not present:
            return 0
        node, _created = self._parent_for_write(item, owned)
        last = self.segments[-1]
        node.pop(last)
        return -(self._entry_overhead(last) + value_size(old))

    def _entry_overhead(self, last: Union[str, int]) -> int:
        """Bytes the last segment's entry costs beside its value."""
        if isinstance(last, int):
            return 1
        name_bytes = len(last.encode("utf-8"))
        return name_bytes if len(self.segments) == 1 else name_bytes + 1

    def _parent_for_write(self, item: dict,
                          owned: Optional[dict]) -> tuple[Any, bool]:
        """Walk to the container the last segment addresses.

        Each container on the way is made writable by :func:`_own`. A
        missing or non-container map member becomes a new map; the
        second return value says whether that happened.
        """
        node: Any = item
        created = False
        for segment in self.segments[:-1]:
            if isinstance(segment, str):
                if not isinstance(node, dict):
                    raise ValidationError(
                        f"cannot descend into non-map at {segment!r}")
                child = node.get(segment)
                if isinstance(child, (dict, list)):
                    child = _own(child, owned)
                else:
                    child = _own({}, owned)
                    created = True
                node[segment] = child
            else:
                if not isinstance(node, list) or not (
                        0 <= segment < len(node)):
                    raise ValidationError(
                        f"list index {segment} out of range")
                child = node[segment]
                if isinstance(child, (dict, list)):
                    child = _own(child, owned)
                    node[segment] = child
            node = child
        return node, created

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.segments)


def path(*segments: Union[str, int]) -> Path:
    """Convenience constructor: ``path("RecentWrites", key)``."""
    return Path(tuple(segments))


def _own(container: Any, owned: Optional[dict]) -> Any:
    """``container``, or a shallow copy of it, that an update may change.

    ``owned`` maps ``id()`` to every container the current update has
    created or copied; ``None`` means the whole item is the caller's to
    change in place. Containers outside ``owned`` may be shared with a
    stored row, so they are copied (and recorded) before any change.
    The map holds the objects themselves so an id cannot be reused.
    """
    if owned is None or id(container) in owned:
        return container
    copied = container.copy()
    owned[id(copied)] = copied
    return copied


def _as_path(value: Union[str, Path]) -> Path:
    if isinstance(value, Path):
        return value
    return Path((value,))


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

class Condition:
    """Base class; subclasses implement ``evaluate(item) -> bool``."""

    def evaluate(self, item: Optional[dict]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "And":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class _PathCondition(Condition):
    def __init__(self, target: Union[str, Path]) -> None:
        self.path = _as_path(target)


class AttrExists(_PathCondition):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, _ = self.path.get(item)
        return present


class AttrNotExists(_PathCondition):
    def evaluate(self, item: Optional[dict]) -> bool:
        present, _ = self.path.get(item)
        return not present


class _Comparison(Condition):
    """Comparison against a constant; false when the path is missing."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.value = value

    def _compare(self, lhs: Any) -> int:
        return compare_values(lhs, self.value)

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        return self._test(lhs)

    def _test(self, lhs: Any) -> bool:
        raise NotImplementedError


class Eq(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return lhs == self.value


class Ne(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return lhs != self.value


class Lt(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) < 0


class Le(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) <= 0


class Gt(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) > 0


class Ge(_Comparison):
    def _test(self, lhs: Any) -> bool:
        return self._compare(lhs) >= 0


class Between(Condition):
    def __init__(self, target: Union[str, Path], low: Any, high: Any) -> None:
        self.path = _as_path(target)
        self.low = low
        self.high = high

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        return (compare_values(lhs, self.low) >= 0
                and compare_values(lhs, self.high) <= 0)


class In(Condition):
    def __init__(self, target: Union[str, Path],
                 options: Iterable[Any]) -> None:
        self.path = _as_path(target)
        self.options = list(options)

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and lhs in self.options


class BeginsWith(Condition):
    def __init__(self, target: Union[str, Path], prefix: str) -> None:
        self.path = _as_path(target)
        self.prefix = prefix

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        return present and isinstance(lhs, str) and lhs.startswith(
            self.prefix)


class Contains(Condition):
    def __init__(self, target: Union[str, Path], member: Any) -> None:
        self.path = _as_path(target)
        self.member = member

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        if isinstance(lhs, (str, list, set, frozenset)):
            return self.member in lhs
        return False


def _size_of(value: Any) -> Optional[int]:
    if isinstance(value, (str, bytes, list, dict, set, frozenset)):
        return len(value)
    return None


class _SizeComparison(Condition):
    def __init__(self, target: Union[str, Path], bound: int) -> None:
        self.path = _as_path(target)
        self.bound = bound

    def evaluate(self, item: Optional[dict]) -> bool:
        present, lhs = self.path.get(item)
        if not present:
            return False
        size = _size_of(lhs)
        if size is None:
            return False
        return self._test(size)

    def _test(self, size: int) -> bool:
        raise NotImplementedError


class SizeLt(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size < self.bound


class SizeLe(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size <= self.bound


class SizeGt(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size > self.bound


class SizeGe(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size >= self.bound


class SizeEq(_SizeComparison):
    def _test(self, size: int) -> bool:
        return size == self.bound


class And(Condition):
    def __init__(self, *conditions: Condition) -> None:
        if not conditions:
            raise ValidationError("And() needs at least one condition")
        self.conditions = conditions

    def evaluate(self, item: Optional[dict]) -> bool:
        return all(c.evaluate(item) for c in self.conditions)


class Or(Condition):
    def __init__(self, *conditions: Condition) -> None:
        if not conditions:
            raise ValidationError("Or() needs at least one condition")
        self.conditions = conditions

    def evaluate(self, item: Optional[dict]) -> bool:
        return any(c.evaluate(item) for c in self.conditions)


class Not(Condition):
    def __init__(self, condition: Condition) -> None:
        self.condition = condition

    def evaluate(self, item: Optional[dict]) -> bool:
        return not self.condition.evaluate(item)


# ---------------------------------------------------------------------------
# Update operands (right-hand sides of SET)
# ---------------------------------------------------------------------------

class Operand:
    def resolve(self, item: dict) -> Any:
        """The operand's value against ``item``.

        The result may alias the operand's constant or a value inside
        ``item``: :class:`Set` validates and copies it before storing.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Value(Operand):
    value: Any

    def resolve(self, item: dict) -> Any:
        return self.value


@dataclass(frozen=True)
class PathRef(Operand):
    ref: Path

    def resolve(self, item: dict) -> Any:
        present, value = self.ref.get(item)
        if not present:
            raise ValidationError(f"path {self.ref} missing during update")
        return value


@dataclass(frozen=True)
class IfNotExists(Operand):
    ref: Path
    default: Operand

    def resolve(self, item: dict) -> Any:
        present, value = self.ref.get(item)
        if present:
            return value
        return self.default.resolve(item)


@dataclass(frozen=True)
class Plus(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        return self.left.resolve(item) + self.right.resolve(item)


@dataclass(frozen=True)
class Minus(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        return self.left.resolve(item) - self.right.resolve(item)


@dataclass(frozen=True)
class ListAppend(Operand):
    left: Operand
    right: Operand

    def resolve(self, item: dict) -> Any:
        left = self.left.resolve(item)
        right = self.right.resolve(item)
        if not isinstance(left, list) or not isinstance(right, list):
            raise ValidationError("list_append needs two lists")
        return left + right


def _as_operand(value: Any) -> Operand:
    if isinstance(value, Operand):
        return value
    if isinstance(value, Path):
        return PathRef(value)
    return Value(value)


# ---------------------------------------------------------------------------
# Update actions
# ---------------------------------------------------------------------------

class UpdateAction:
    def apply(self, item: dict, owned: Optional[dict] = None
              ) -> Optional[int]:
        """Apply the action to ``item``.

        Returns the exact change in ``item_size(item)``, or ``None``
        when it is not known. ``owned=None`` changes ``item`` in place;
        otherwise ``item`` is a fresh top-level copy of a stored row and
        nested containers are copied before they change (see
        :func:`_own`). Actions defined outside this module need only
        accept ``item``: :func:`apply_updates_cow` hands them a deep
        copy.
        """
        raise NotImplementedError


def _plus_size(delta: Optional[int], value: Any) -> Optional[int]:
    return None if delta is None else delta + value_size(value)


class Set(UpdateAction):
    """``SET path = operand`` (operand may reference other paths)."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.operand = _as_operand(value)

    def apply(self, item: dict, owned: Optional[dict] = None
              ) -> Optional[int]:
        value, value_bytes = ingest_value(self.operand.resolve(item))
        delta = self.path.set(item, value, owned)
        return None if delta is None else delta + value_bytes


class Remove(UpdateAction):
    """``REMOVE path`` — missing paths are a no-op."""

    def __init__(self, target: Union[str, Path]) -> None:
        self.path = _as_path(target)

    def apply(self, item: dict, owned: Optional[dict] = None) -> int:
        return self.path.remove(item, owned)


class Add(UpdateAction):
    """``ADD path value`` — numeric increment or set union."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        self.value = value

    def apply(self, item: dict, owned: Optional[dict] = None
              ) -> Optional[int]:
        present, current = self.path.get(item)
        if isinstance(self.value, (int, float)) and not isinstance(
                self.value, bool):
            base = current if present else 0
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                raise ValidationError(f"ADD to non-number at {self.path}")
            value = base + self.value
        elif isinstance(self.value, (set, frozenset)):
            base = set(current) if present else set()
            if present and not isinstance(current, (set, frozenset)):
                raise ValidationError(f"ADD set to non-set at {self.path}")
            value = base | set(self.value)
        else:
            raise ValidationError("ADD needs a number or a set")
        return _plus_size(self.path.set(item, value, owned), value)


class Delete(UpdateAction):
    """``DELETE path value`` — set difference."""

    def __init__(self, target: Union[str, Path], value: Any) -> None:
        self.path = _as_path(target)
        if not isinstance(value, (set, frozenset)):
            raise ValidationError("DELETE needs a set")
        self.value = set(value)

    def apply(self, item: dict, owned: Optional[dict] = None
              ) -> Optional[int]:
        present, current = self.path.get(item)
        if not present:
            return 0
        if not isinstance(current, (set, frozenset)):
            raise ValidationError(f"DELETE from non-set at {self.path}")
        value = set(current) - self.value
        return _plus_size(self.path.set(item, value, owned), value)


#: Actions whose ``apply`` supports copy-on-write and size deltas.
_COW_ACTIONS = (Set, Remove, Add, Delete)


def apply_updates(item: dict, updates: Sequence[UpdateAction]) -> None:
    """Apply a sequence of update actions to ``item`` in place."""
    for action in updates:
        action.apply(item)


def apply_updates_cow(draft: dict, size: int,
                      updates: Sequence[UpdateAction]) -> int:
    """Apply ``updates`` to ``draft`` without changing the stored row.

    ``draft`` is a fresh top-level copy of a stored row (or a new row)
    whose nested containers may be shared with it, and ``size`` is its
    ``item_size``. Only containers along each updated path are copied;
    untouched subtrees stay shared. Returns ``item_size(draft)`` after
    the updates, from exact per-path deltas where every action reports
    one and from a full recount otherwise.
    """
    owned: Optional[dict] = {}
    exact: Optional[int] = size
    for action in updates:
        if type(action) in _COW_ACTIONS:
            delta = action.apply(draft, owned)
        else:
            # Unknown action: make every container private, then let it
            # change the draft in place.
            for name, value in draft.items():
                draft[name] = copy_value(value)
            owned = None
            action.apply(draft)
            delta = None
        exact = None if exact is None or delta is None else exact + delta
    return item_size(draft) if exact is None else exact


@dataclass
class Projection:
    """Selects which top-level/nested attributes an op returns.

    Beldi's traversal projects just ``RowId`` and ``NextRow`` so a scan of a
    linked DAAL downloads ~32 bytes per row rather than the whole row.
    """

    paths: list[Path] = field(default_factory=list)

    @classmethod
    def of(cls, *targets: Union[str, Path]) -> "Projection":
        return cls([_as_path(t) for t in targets])

    def apply(self, item: dict) -> dict:
        out: dict = {}
        for target in self.paths:
            present, value = target.get(item)
            if present:
                target.set(out, copy_value(value))
        return out
