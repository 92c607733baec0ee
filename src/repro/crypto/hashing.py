"""Deterministic hashing of structured Python values.

The rollup hashes transactions, state entries and Merkle nodes.  To make
state roots reproducible across runs and platforms we canonicalise values
before hashing: containers are serialised recursively with explicit type
tags so that, e.g., the string ``"1"`` and the integer ``1`` never collide.

Most hashed values are flat lists of scalars (transaction fields, state
leaves), so :func:`_canonical` encodes those in one loop and leaves every
other shape to the recursive :func:`_canonical_recursive`, which defines
the encoding.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..errors import CryptoError


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).digest()


def hash_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def _canonical_recursive(value: Any) -> bytes:
    """Serialise ``value`` into a canonical, type-tagged byte string."""
    if value is None:
        return b"N:"
    if isinstance(value, bool):
        # bool before int: bool is a subclass of int.
        return b"B:1" if value else b"B:0"
    if isinstance(value, int):
        return b"I:" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"F:" + repr(value).encode("ascii")
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"S:" + str(len(encoded)).encode("ascii") + b":" + encoded
    if isinstance(value, bytes):
        return b"Y:" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, (list, tuple)):
        parts = [b"L:", str(len(value)).encode("ascii")]
        for item in value:
            inner = _canonical_recursive(item)
            parts.append(str(len(inner)).encode("ascii"))
            parts.append(b":")
            parts.append(inner)
        return b"".join(parts)
    if isinstance(value, dict):
        try:
            items = sorted(
                value.items(), key=lambda kv: _canonical_recursive(kv[0])
            )
        except TypeError as exc:  # unhashable / unorderable keys
            raise CryptoError(f"cannot canonicalise dict keys: {exc}") from exc
        return b"D:" + _canonical_recursive([list(kv) for kv in items])
    raise CryptoError(f"cannot hash value of type {type(value).__name__}")


def _canonical(value: Any) -> bytes:
    """:func:`_canonical_recursive`, with flat lists encoded in one loop.

    A list or tuple whose items are all exactly ``str``, ``int``,
    ``float``, ``bool`` or ``None`` is encoded here; any other item type
    (subclasses included) falls back to the recursive encoder, so the
    bytes are the same either way.
    """
    cls = value.__class__
    if cls is not list and cls is not tuple:
        return _canonical_recursive(value)
    parts = [b"L:%d" % len(value)]
    for item in value:
        kind = item.__class__
        if kind is str:
            encoded = item.encode("utf-8")
            inner = b"S:%d:%s" % (len(encoded), encoded)
        elif kind is int:
            inner = b"I:%d" % item
        elif kind is float:
            inner = b"F:" + repr(item).encode("ascii")
        elif item is None:
            inner = b"N:"
        elif kind is bool:
            inner = b"B:1" if item else b"B:0"
        else:
            return _canonical_recursive(value)
        parts.append(b"%d:%s" % (len(inner), inner))
    return b"".join(parts)


def hash_value(value: Any) -> str:
    """Hex digest of any canonically-serialisable Python value."""
    return hash_hex(_canonical(value))


def hash_pair(left: str, right: str) -> str:
    """Hash two hex digests into a parent node digest (Merkle interior)."""
    return hash_hex(b"P:" + left.encode("ascii") + b"|" + right.encode("ascii"))
