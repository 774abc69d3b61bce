"""Transaction generation.

Every transaction is unique by construction (``client_id`` + per-client
nonce), matching §VI-A's "each transaction consists of a unique 32-byte
value".  Bodies can carry synthetic application data (e.g. KV writes or
the market orders the attack scenarios use).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.types import Transaction

#: KV-write body layout: magic ``K`` + 7-byte key + 8-byte value = 16 bytes
#: (exactly the body budget of a 32-byte transaction payload).
_KV = struct.Struct(">c7sQ")


def encode_kv_body(key: int, value: int) -> bytes:
    """Body bytes encoding ``store[key] = value`` (key < 2^56)."""
    if not (0 <= key < 1 << 56):
        raise ValueError("KV keys must fit in 7 bytes")
    return _KV.pack(b"K", key.to_bytes(7, "big"), value & 0xFFFFFFFFFFFFFFFF)


class TxGenerator:
    """A per-client stream of unique transactions."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self._nonce = 0

    def next(self, body: bytes = b"", submitted_at: int = 0) -> Transaction:
        tx = Transaction(self.client_id, self._nonce, body[:16], submitted_at)
        self._nonce += 1
        return tx

    def kv_write(self, key: int, value: int, submitted_at: int = 0) -> Transaction:
        """A transaction encoding ``store[key] = value`` (key < 2^56)."""
        return self.next(encode_kv_body(key, value), submitted_at)

    @property
    def issued(self) -> int:
        return self._nonce


def decode_kv_write(tx: Transaction) -> Optional[Tuple[int, int]]:
    """Inverse of :meth:`TxGenerator.kv_write`; None for non-KV bodies."""
    if len(tx.body) != 16 or not tx.body.startswith(b"K"):
        return None
    _, key_bytes, value = _KV.unpack(tx.body)
    return int.from_bytes(key_bytes, "big"), value


# ----------------------------------------------------------------------
# Body samplers — the WorkloadSpec "body mix" vocabulary
# ----------------------------------------------------------------------
#: Cached bounded-Zipf CDFs keyed by (keyspace, skew); building one is
#: O(keyspace) so hot-key samplers across many clients share it.
_ZIPF_CDFS: dict = {}


def _zipf_cdf(keyspace: int, skew: float):
    import numpy as np

    cached = _ZIPF_CDFS.get((keyspace, skew))
    if cached is None:
        weights = 1.0 / np.arange(1, keyspace + 1, dtype=np.float64) ** skew
        cached = np.cumsum(weights)
        cached /= cached[-1]
        _ZIPF_CDFS[(keyspace, skew)] = cached
    return cached


def make_body_sampler(kind: str, params: Optional[dict], rng):
    """Build a per-arrival body sampler for an open-loop client.

    - ``raw`` — empty bodies (transactions stay unique 32-byte values).
    - ``kv_zipf`` — KV writes whose keys follow a bounded Zipf over
      ``keyspace`` keys with exponent ``skew``: the hot-key contention
      workload (a handful of keys absorb most writes).
    - ``amm`` — constant-product AMM swaps: direction BUY with
      probability ``buy_prob``, amounts uniform in
      [``amount_min``, ``amount_max``] — the traffic MEV bots chase.

    Returns ``None`` for ``raw`` (no sampling, no rng draws) or a
    zero-argument callable yielding body bytes, drawing only from ``rng``.
    """
    params = params or {}
    if kind == "raw":
        return None
    if kind == "kv_zipf":
        import numpy as np

        keyspace = int(params.get("keyspace", 100_000))
        skew = float(params.get("skew", 1.1))
        if keyspace <= 0:
            raise ValueError("keyspace must be positive")
        cdf = _zipf_cdf(keyspace, skew)
        counter = [0]

        def kv_sample() -> bytes:
            key = int(np.searchsorted(cdf, rng.random(), side="left"))
            counter[0] += 1
            return encode_kv_body(key, counter[0])

        return kv_sample
    if kind == "amm":
        from repro.workload.amm import BUY, SELL, encode_swap

        buy_prob = float(params.get("buy_prob", 0.5))
        amount_min = int(params.get("amount_min", 100))
        amount_max = int(params.get("amount_max", 10_000))
        if not (0 < amount_min <= amount_max):
            raise ValueError("need 0 < amount_min <= amount_max")

        def amm_sample() -> bytes:
            direction = BUY if rng.random() < buy_prob else SELL
            amount = int(rng.integers(amount_min, amount_max + 1))
            return encode_swap(direction, amount)

        return amm_sample
    raise ValueError(
        f"unknown body mix {kind!r}; available: raw, kv_zipf, amm"
    )


__all__ = [
    "TxGenerator",
    "decode_kv_write",
    "encode_kv_body",
    "make_body_sampler",
]
