"""WAN latency models.

The geo model reproduces the paper's platform: AWS regions on three
continents (§VI: Oregon, Ireland, Sydney) plus the Fig. 1 regions (Tokyo,
Singapore, São Paulo) whose paths violate the triangle inequality — the
property reordering attackers exploit.  Latencies are *one-way* milliseconds
(half of published inter-region RTTs); the Tokyo→São Paulo path is encoded
with the detour advantage Fig. 1 describes (going through Singapore is
faster than the direct path), which [26] shows occurs on real WANs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.engine import MILLISECONDS
from repro.sim.rng import RngRegistry

#: One-way latencies in milliseconds between AWS regions.  Symmetric;
#: intra-region latency is ``INTRA_REGION_MS``.
AWS_ONE_WAY_MS: Dict[Tuple[str, str], float] = {
    ("oregon", "ireland"): 68.0,
    ("oregon", "sydney"): 70.0,
    ("ireland", "sydney"): 131.0,
    ("tokyo", "oregon"): 49.0,
    ("tokyo", "ireland"): 105.0,
    ("tokyo", "sydney"): 52.0,
    ("tokyo", "singapore"): 35.0,
    ("singapore", "oregon"): 82.0,
    ("singapore", "ireland"): 90.0,
    ("singapore", "sydney"): 46.0,
    ("saopaulo", "oregon"): 89.0,
    ("saopaulo", "ireland"): 92.0,
    ("saopaulo", "sydney"): 160.0,
    # Fig. 1 violation: direct Tokyo->Sao Paulo is slower than routing the
    # information through Singapore (35 + 105 = 140 < 150).
    ("tokyo", "saopaulo"): 150.0,
    ("singapore", "saopaulo"): 105.0,
}

INTRA_REGION_MS = 0.4


def region_latency_ms(a: str, b: str) -> float:
    """One-way base latency between two regions in milliseconds."""
    if a == b:
        return INTRA_REGION_MS
    value = AWS_ONE_WAY_MS.get((a, b))
    if value is None:
        value = AWS_ONE_WAY_MS.get((b, a))
    if value is None:
        raise KeyError(f"no latency data for region pair ({a}, {b})")
    return value


def triangle_violations(
    regions: Iterable[str],
) -> List[Tuple[str, str, str, float]]:
    """Find region triples where relaying beats the direct path.

    Returns tuples ``(src, via, dst, advantage_ms)`` with ``advantage_ms > 0``
    meaning ``d(src,via) + d(via,dst) < d(src,dst)`` — i.e. an observer at
    ``via`` can react to ``src``'s message and still beat it to ``dst``.
    """
    regions = list(dict.fromkeys(regions))
    out: List[Tuple[str, str, str, float]] = []
    for src in regions:
        for via in regions:
            if via == src:
                continue
            for dst in regions:
                if dst in (src, via):
                    continue
                direct = region_latency_ms(src, dst)
                relay = region_latency_ms(src, via) + region_latency_ms(via, dst)
                if relay < direct:
                    out.append((src, via, dst, direct - relay))
    return out


#: Variates a jitter stream draws per refill.  A constant, not a knob:
#: numpy's Generator fills a size-k request with exactly the variates of k
#: scalar calls, so any size keeps every stream bit-identical.  128 still
#: amortises the per-call numpy dispatch (54 ns a variate, against 42 ns
#: at 1 024 and 1.8 µs for scalar calls), and a buffer pins up to 896 fewer
#: Python floats per sender (EXPERIMENTS.md "Constants measured, not
#: knobs").
JITTER_REFILL = 128

#: A link's jitter stream: ``[buffer, cursor, refill, bound]``.  A sample is
#: ``int(base * (1 + noise))`` for the next ``noise`` of ``buffer`` (refilled
#: by ``refill()`` when the cursor runs off its end) clamped to
#: ``±bound``, and never below the link's floor.  The network draws
#: samples itself, from its per-link record, in send order.
JitterStream = list


class LatencyModel:
    """Interface: the terms a link's one-way propagation delays are
    sampled from, in microseconds."""

    def base_us(self, src: int, dst: int) -> int:
        """Jitter-free base latency (used by distance-prediction tests)."""
        raise NotImplementedError

    def link_terms(self, src: int, dst: int) -> Tuple[int, int, Optional[JitterStream]]:
        """``(base, floor, stream)`` of link ``src -> dst``: every sample is
        ``base`` when ``stream`` is None, else a draw from ``stream``
        (see :data:`JitterStream`) that never falls below ``floor``."""
        base = self.base_us(src, dst)
        return base, base, None


class UniformLatencyModel(LatencyModel):
    """Constant latency between every pair — the unit-test workhorse."""

    def __init__(self, delay_us: int = 1000, *, self_delay_us: int = 10) -> None:
        self.delay_us = int(delay_us)
        self.self_delay_us = int(self_delay_us)

    def base_us(self, src: int, dst: int) -> int:
        return self.self_delay_us if src == dst else self.delay_us


class GeoLatencyModel(LatencyModel):
    """Region-matrix latency with multiplicative truncated-normal jitter.

    ``placement`` maps pid -> region name.  ``jitter`` is the standard
    deviation as a fraction of the base latency, fixed at construction;
    samples are truncated at ``±3σ`` and never below 20% of base (queueing
    can add delay but light does not speed up).  Self-links never jitter.

    Jitter is drawn from *per-source* streams (``("net", "jitter", src)``):
    each sender's draw order is then a function of that sender's own send
    sequence alone, never of how sends from different nodes interleave
    globally.  A single shared stream would entangle every node's draws
    with the global execution order, so any change to how two senders'
    events interleave would reshuffle every later sample in the run.  All
    of a sender's links share its one stream state.
    """

    def __init__(
        self,
        placement: Mapping[int, str],
        *,
        jitter: float = 0.03,
        rng: RngRegistry | None = None,
    ) -> None:
        # Keep a live reference when given a dict: topologies may place
        # auxiliary processes (clients, attackers) after the model exists.
        self.placement = placement if isinstance(placement, dict) else dict(placement)
        self.jitter = float(jitter)
        self._registry = rng or RngRegistry(0)
        # Jitter draws are batched: numpy's Generator fills a size-n request
        # with exactly the same variates as n scalar calls, so refilling a
        # buffer keeps each stream bit-identical while amortising the
        # per-call numpy dispatch overhead.  Buffers are converted to plain
        # lists (``tolist`` preserves every float64 bit-exactly) because
        # indexing a list yields Python floats whose arithmetic is several
        # times faster than numpy scalars on this per-message path.
        # src -> its JitterStream.
        self._streams: Dict[int, JitterStream] = {}

    def _stream(self, src: int) -> JitterStream:
        state = self._streams.get(src)
        if state is None:
            normal = self._registry.get("net", "jitter", str(src)).normal
            jitter = self.jitter

            def refill() -> List[float]:
                return normal(0.0, jitter, JITTER_REFILL).tolist()

            state = self._streams[src] = [[], 0, refill, 3 * jitter]
        return state

    def region_of(self, pid: int) -> str:
        return self.placement[pid]

    def base_us(self, src: int, dst: int) -> int:
        if src == dst:
            return 10
        return int(region_latency_ms(self.placement[src], self.placement[dst]) * MILLISECONDS)

    def link_terms(self, src: int, dst: int) -> Tuple[int, int, Optional[JitterStream]]:
        base = self.base_us(src, dst)
        if self.jitter <= 0 or src == dst:
            return base, base, None
        return base, int(base * 0.2), self._stream(src)


def make_latency_model(
    placement: Mapping[int, str],
    *,
    uniform_delay_us: int | None,
    jitter: float,
    rng: RngRegistry,
) -> LatencyModel:
    """The WAN model a cluster runs on: a set ``uniform_delay_us`` selects
    jitter-free uniform links (analytically checkable), otherwise the geo
    matrix."""
    if uniform_delay_us is not None:
        return UniformLatencyModel(uniform_delay_us)
    return GeoLatencyModel(placement, jitter=jitter, rng=rng)


__all__ = [
    "AWS_ONE_WAY_MS",
    "INTRA_REGION_MS",
    "region_latency_ms",
    "triangle_violations",
    "LatencyModel",
    "UniformLatencyModel",
    "GeoLatencyModel",
    "make_latency_model",
]
