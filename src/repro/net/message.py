"""Wire messages and size accounting.

Messages carry a ``kind`` tag used for handler dispatch, an arbitrary
``payload``, and a wire ``size`` in bytes.  Sizes drive the bandwidth model;
:func:`estimate_size` approximates a compact binary encoding (protobuf-like)
so callers rarely need to specify sizes by hand.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Dict, Tuple

# Fixed per-message framing overhead: kind tag, instance ids, sender id,
# authentication MAC — roughly what the Rust prototype's header costs.
HEADER_BYTES = 40

_msg_counter = itertools.count()


def estimate_size(payload: Any) -> int:
    """Approximate the serialised size of a payload in bytes.

    The estimate models a compact binary codec: 8 bytes per int/float,
    raw length for bytes/str, recursive sum plus 2 bytes of framing per
    container element.  Objects exposing ``wire_size`` report themselves.
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    wire = getattr(payload, "wire_size", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    if isinstance(payload, dict):
        return sum(
            estimate_size(k) + estimate_size(v) + 2 for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_size(v) + 2 for v in payload)
    # Fallback for dataclass-like objects.
    attrs = getattr(payload, "__dict__", None)
    if attrs is not None:
        return sum(estimate_size(v) + 2 for v in attrs.values())
    # ``__slots__``-only objects have no ``__dict__``; walk their declared
    # slots (including inherited ones) so they don't silently cost a flat
    # 16 bytes regardless of content.
    slot_names = _slot_names(type(payload))
    if slot_names:
        total = 0
        for name in slot_names:
            try:
                total += estimate_size(getattr(payload, name)) + 2
            except AttributeError:
                total += 2  # declared but unset slot: framing only
        return total
    return 16


_slot_cache: Dict[type, Tuple[str, ...]] = {}


def _slot_names(cls: type) -> Tuple[str, ...]:
    """All ``__slots__`` attribute names declared along ``cls``'s MRO."""
    cached = _slot_cache.get(cls)
    if cached is None:
        names = []
        for base in cls.__mro__:
            slots = base.__dict__.get("__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for name in slots:
                if name not in ("__weakref__", "__dict__"):
                    names.append(name)
        cached = _slot_cache[cls] = tuple(names)
    return cached


# CRC memo: checksums depend only on (kind, size) and the same handful of
# kinds at the same handful of sizes recur millions of times per run.
_crc_cache: Dict[Tuple[str, int], int] = {}


class Message:
    """A network message.

    ``size`` defaults to ``HEADER_BYTES + estimate_size(payload)``, computed
    once per logical message at construction — clones and shared broadcast
    frames reuse it.  The ``uid`` is a globally unique id used by delivery
    tracing and tests.  A plain ``__slots__`` class: messages are allocated
    on every hop and dataclass machinery showed up in profiles.
    """

    __slots__ = ("kind", "payload", "size", "uid", "checksum")

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        size: int = 0,
        uid: int | None = None,
        checksum: int = 0,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.size = size if size > 0 else HEADER_BYTES + estimate_size(payload)
        self.uid = next(_msg_counter) if uid is None else uid
        #: Frame checksum, stamped by the network at transmit time (protocol
        #: code mutates ``size`` after construction for piggybacks, so the
        #: checksum has to be taken when the message actually hits the wire).
        #: 0 means "never transmitted"; a corrupting link flips bits here so
        #: the receiver can detect the damage.
        self.checksum = checksum

    def expected_checksum(self) -> int:
        """CRC over the frame header fields the simulation models."""
        key = (self.kind, self.size)
        crc = _crc_cache.get(key)
        if crc is None:
            if len(_crc_cache) >= 1 << 16:
                _crc_cache.clear()
            crc = _crc_cache[key] = (
                zlib.crc32(f"{self.kind}|{self.size}".encode()) or 1
            )
        return crc

    def stamp_checksum(self) -> None:
        # The memo probe inlined: this runs once per physical frame.  A CRC
        # is never 0, so a miss is the only falsy result.
        self.checksum = _crc_cache.get((self.kind, self.size)) or self.expected_checksum()

    def verify_checksum(self) -> bool:
        """True when the frame arrived undamaged (or was never stamped)."""
        return self.checksum == 0 or self.checksum == self.expected_checksum()

    def clone(self) -> "Message":
        """A distinct message instance with the same kind/payload/size."""
        copy = Message(self.kind, self.payload, self.size)
        copy.checksum = self.checksum
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Message({self.kind!r}, size={self.size})"


__all__ = [
    "Message",
    "estimate_size",
    "HEADER_BYTES",
]
