"""Item model: attribute values, deep copies, and size accounting.

Items are plain ``dict``s mapping attribute names to values. Supported
value types mirror DynamoDB's: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``list``, ``dict`` (map), and ``set``.

Stored rows are immutable. A write enters the store through one
:func:`ingest_item` walk that validates, deep-copies and sizes the row;
after that no code mutates the stored row in place. An update builds a
new row that shares every subtree it does not touch and copies only the
containers along each updated path. Replication followers and pending
replication-log records hold the leader's row object itself. The size
cached beside each stored row (exactly ``item_size(row)``) is the only
source the store meters from. Callers outside the store only ever see
deep copies (:func:`copy_item`).
"""

from __future__ import annotations

from typing import Any

from repro.kvstore.errors import ValidationError

_SCALARS = (type(None), bool, int, float, str, bytes)


def ingest_value(value: Any) -> tuple[Any, int]:
    """Validate, deep-copy and size ``value`` in one walk.

    Returns ``(copy, value_size(value))``. Rejects value types the store
    does not model, non-``str`` map keys and non-scalar set elements.
    """
    if value is None or isinstance(value, bool):
        return value, 1
    if isinstance(value, (int, float)):
        return value, max(1, len(str(value)) // 2 + 1)
    if isinstance(value, str):
        return value, len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return value, len(value)
    if isinstance(value, (list, tuple)):
        copied = []
        size = 3
        for element in value:
            element, element_size = ingest_value(element)
            copied.append(element)
            size += 1 + element_size
        return copied, size
    if isinstance(value, dict):
        copied = {}
        size = 3
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"map keys must be str, got {key!r}")
            copied[key], element_size = ingest_value(element)
            size += len(key.encode("utf-8")) + element_size + 1
        return copied, size
    if isinstance(value, (set, frozenset)):
        size = 3
        for element in value:
            if not isinstance(element, (int, float, str, bytes)):
                raise ValidationError(
                    f"set elements must be scalar, got {element!r}")
            size += value_size(element)
        return set(value), size
    raise ValidationError(f"unsupported attribute value: {value!r}")


def ingest_item(item: dict) -> tuple[dict[str, Any], int]:
    """Validate, deep-copy and size a whole row in one walk.

    Returns ``(copy, item_size(item))``; attribute names must be ``str``.
    """
    copied: dict[str, Any] = {}
    size = 0
    for name, value in item.items():
        if not isinstance(name, str):
            raise ValidationError(
                f"attribute names must be str, got {name!r}")
        copied[name], value_bytes = ingest_value(value)
        size += len(name.encode("utf-8")) + value_bytes
    return copied, size


def copy_value(value: Any) -> Any:
    """Deep-copy a value so callers can never alias stored state."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return [copy_value(v) for v in value]
    if isinstance(value, list):
        return [copy_value(v) for v in value]
    if isinstance(value, dict):
        return {k: copy_value(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return set(value)
    raise ValidationError(f"unsupported attribute value: {value!r}")


def copy_item(item: dict[str, Any]) -> dict[str, Any]:
    return {name: copy_value(value) for name, value in item.items()}


def value_size(value: Any) -> int:
    """Approximate DynamoDB on-disk size of a single value, in bytes."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        # DynamoDB numbers cost roughly (significant digits)/2 + 1; a
        # simple string-length proxy is close enough for metering.
        return max(1, len(str(value)) // 2 + 1)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 3 + sum(1 + value_size(v) for v in value)
    if isinstance(value, dict):
        return 3 + sum(len(k.encode("utf-8")) + value_size(v) + 1
                       for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return 3 + sum(value_size(v) for v in value)
    raise ValidationError(f"unsupported attribute value: {value!r}")


def item_size(item: dict[str, Any]) -> int:
    """Approximate stored size of an item (names + values), in bytes."""
    return sum(len(name.encode("utf-8")) + value_size(value)
               for name, value in item.items())


def compare_values(left: Any, right: Any) -> int:
    """Three-way comparison used by condition expressions.

    Only values of comparable types may be ordered; mixed-type comparisons
    raise ``ValidationError`` (DynamoDB rejects them too). Numbers compare
    numerically across int/float.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        raise ValidationError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, bytes) and isinstance(right, bytes):
        return (left > right) - (left < right)
    raise ValidationError(f"cannot compare {left!r} with {right!r}")
