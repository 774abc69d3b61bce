"""Per-node NIC bandwidth model.

Each node has an egress and an ingress queue that serialise messages at the
NIC line rate.  Serialisation delay is what turns "the HotStuff leader sends
n batches per decision" into a throughput ceiling: at 1 Gbps a 26 KB batch
takes ~208 µs on the wire, so a leader broadcasting to 99 peers spends
~20.6 ms of NIC time per decision, capping it near 48 decisions/s regardless
of CPU.

The model is first-come-first-served and work-conserving; propagation
latency (see :mod:`repro.net.latency`) is added after serialisation.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import SECONDS, Simulator


class NicQueue:
    """A single serialising link (one direction of one node's NIC)."""

    def __init__(self, sim: Simulator, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._sim = sim
        self.rate_bps = float(rate_bps)
        self._free_at: int = 0
        self.bytes_total: int = 0
        # The same handful of protocol message sizes recur millions of
        # times; memoize their serialisation delay per queue.
        self._ser_cache: Dict[int, int] = {}

    def serialisation_us(self, size_bytes: int) -> int:
        cached = self._ser_cache.get(size_bytes)
        if cached is None:
            if len(self._ser_cache) >= 4096:
                self._ser_cache.clear()
            cached = self._ser_cache[size_bytes] = int(
                round(size_bytes * 8 * SECONDS / self.rate_bps)
            )
        return cached

    def enqueue(self, size_bytes: int) -> int:
        """Reserve the link for a message; return its departure time."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        start = max(self._sim.now, self._free_at)
        self._free_at = start + self.serialisation_us(size_bytes)
        self.bytes_total += size_bytes
        return self._free_at

    @property
    def free_at(self) -> int:
        return self._free_at

    def backlog_us(self) -> int:
        """How far behind real time the link currently is."""
        return max(0, self._free_at - self._sim.now)


class BandwidthModel:
    """Egress + ingress NIC queues for every process.

    ``rate_bps`` may be a single number (uniform NICs) or a per-pid mapping.
    ``enabled=False`` turns the model into a zero-cost pass-through, which
    unit tests use to isolate protocol logic from queueing.  The network
    resolves a link's sender egress and receiver ingress queue once, into
    its per-link record, and does :meth:`NicQueue.enqueue`'s arithmetic
    there.
    """

    DEFAULT_RATE = 1_000_000_000  # 1 Gbps, the paper's instance class

    def __init__(
        self,
        sim: Simulator,
        *,
        rate_bps: float | Dict[int, float] | None = None,
        enabled: bool = True,
    ) -> None:
        self._sim = sim
        self.enabled = enabled
        self._rates = rate_bps if rate_bps is not None else self.DEFAULT_RATE
        self._egress: Dict[int, NicQueue] = {}
        self._ingress: Dict[int, NicQueue] = {}

    def _rate_for(self, pid: int) -> float:
        if isinstance(self._rates, dict):
            return self._rates.get(pid, self.DEFAULT_RATE)
        return float(self._rates)

    def egress(self, pid: int) -> NicQueue:
        q = self._egress.get(pid)
        if q is None:
            q = NicQueue(self._sim, self._rate_for(pid))
            self._egress[pid] = q
        return q

    def ingress(self, pid: int) -> NicQueue:
        q = self._ingress.get(pid)
        if q is None:
            q = NicQueue(self._sim, self._rate_for(pid))
            self._ingress[pid] = q
        return q

    def egress_backlog_us(self, pid: int) -> int:
        if not self.enabled:
            return 0
        return self.egress(pid).backlog_us()


__all__ = ["BandwidthModel", "NicQueue"]
