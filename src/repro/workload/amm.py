"""A constant-product automated market maker (AMM).

The application that makes reordering *profitable*: a Uniswap-style x·y=k
pool where execution order determines prices.  Attack experiments replay a
committed transaction log through the pool and measure the attacker's
profit — the "miner extractable value" the paper's introduction quantifies
at hundreds of millions of dollars.

Transactions encode swaps in the 16-byte body:
``b"S" + direction(1) + amount(8)`` (see :func:`encode_swap`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import Transaction

#: Swap direction: buy asset Y with X, or sell Y for X.
BUY, SELL = 0, 1

_SWAP = struct.Struct(">cBQ")


def encode_swap(direction: int, amount_in: int) -> bytes:
    """Body bytes for a swap of ``amount_in`` units (input side)."""
    if direction not in (BUY, SELL):
        raise ValueError("direction must be BUY or SELL")
    if amount_in <= 0:
        raise ValueError("amount must be positive")
    return _SWAP.pack(b"S", direction, amount_in)


def decode_swap(tx: Transaction) -> Optional[Tuple[int, int]]:
    """Decode a swap body; None for non-swap transactions."""
    if len(tx.body) < _SWAP.size or not tx.body.startswith(b"S"):
        return None
    _, direction, amount = _SWAP.unpack(tx.body[: _SWAP.size])
    if direction not in (BUY, SELL):
        return None
    return direction, amount


@dataclass
class SwapResult:
    trader: int
    direction: int
    amount_in: int
    amount_out: int
    price_before: float
    price_after: float


class ConstantProductAmm:
    """An x·y = k pool with a fee, plus per-trader balance accounting."""

    def __init__(
        self,
        reserve_x: int = 1_000_000,
        reserve_y: int = 1_000_000,
        fee_bps: int = 30,
    ) -> None:
        if reserve_x <= 0 or reserve_y <= 0:
            raise ValueError("reserves must be positive")
        self.reserve_x = reserve_x
        self.reserve_y = reserve_y
        self.fee_bps = fee_bps
        self.trades: List[SwapResult] = []
        #: Net position per trader: +Y received / -Y paid, +X received / -X paid.
        self.balances: Dict[int, Dict[str, int]] = {}

    @property
    def price(self) -> float:
        """Price of Y in units of X."""
        return self.reserve_x / self.reserve_y

    def _credit(self, trader: int, asset: str, amount: int) -> None:
        account = self.balances.setdefault(trader, {"x": 0, "y": 0})
        account[asset] += amount

    def swap(self, trader: int, direction: int, amount_in: int) -> SwapResult:
        """Execute a swap at the current reserves (order matters!)."""
        if amount_in <= 0:
            raise ValueError("amount must be positive")
        price_before = self.price
        effective = amount_in * (10_000 - self.fee_bps) // 10_000
        if direction == BUY:
            # Pay X, receive Y.
            out = self.reserve_y * effective // (self.reserve_x + effective)
            self.reserve_x += amount_in
            self.reserve_y -= out
            self._credit(trader, "x", -amount_in)
            self._credit(trader, "y", out)
        elif direction == SELL:
            # Pay Y, receive X.
            out = self.reserve_x * effective // (self.reserve_y + effective)
            self.reserve_y += amount_in
            self.reserve_x -= out
            self._credit(trader, "y", -amount_in)
            self._credit(trader, "x", out)
        else:
            raise ValueError("unknown direction")
        result = SwapResult(
            trader, direction, amount_in, out, price_before, self.price
        )
        self.trades.append(result)
        return result

    def apply_transaction(self, tx: Transaction) -> Optional[SwapResult]:
        """Execute a committed transaction if it encodes a swap."""
        decoded = decode_swap(tx)
        if decoded is None:
            return None
        direction, amount = decoded
        return self.swap(tx.client_id, direction, amount)

    def apply_log(self, txs: Sequence[Transaction]) -> List[SwapResult]:
        return [r for r in (self.apply_transaction(tx) for tx in txs) if r]

    def net_value(self, trader: int) -> float:
        """Mark-to-market value of a trader's net position at the current
        pool price (in units of X)."""
        account = self.balances.get(trader, {"x": 0, "y": 0})
        return account["x"] + account["y"] * self.price


def sandwich_profit(
    pool_args: dict,
    victim: Transaction,
    front: Transaction,
    back: Transaction,
    attacked_order: Sequence[Transaction],
    honest_order: Sequence[Transaction],
) -> Tuple[float, float]:
    """Attacker mark-to-market value under the attacked vs honest order.

    Returns ``(attacked_value, honest_value)``; a positive gap is the MEV
    extracted by the reordering.
    """
    attacker = front.client_id
    attacked_pool = ConstantProductAmm(**pool_args)
    attacked_pool.apply_log(attacked_order)
    honest_pool = ConstantProductAmm(**pool_args)
    honest_pool.apply_log(honest_order)
    return attacked_pool.net_value(attacker), honest_pool.net_value(attacker)


__all__ = [
    "ConstantProductAmm",
    "SwapResult",
    "encode_swap",
    "decode_swap",
    "sandwich_profit",
    "BUY",
    "SELL",
]
