"""Direct-call probes: one layer at a time, microseconds per operation.

Each probe drives a layer through its public functions only, at a fixed
operation count, outside any cluster.  A probe predicts its layer's traced
``self_s`` on the workload where that layer is largest; when a probe moves
and the traced share does not, the probe is unrepresentative — say so in
the report rather than claiming the gain.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

#: Each probe runs this many times; the median is reported.
REPEATS = 3


def _us_per_op(body: Callable[[], int]) -> float:
    start = time.perf_counter()
    ops = body()
    return (time.perf_counter() - start) * 1e6 / ops


def _sim_events() -> int:
    """Self-rescheduling timer chains through ``Simulator.schedule``/``run``:
    mixed periods and priorities hit both the bucket-append fast path and
    the sorted-insert slow path."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    horizon = 300_000

    def make_chain(period: int, priority: int):
        def tick() -> None:
            if sim.now + period <= horizon:
                sim.schedule(period, tick, priority=priority)

        return tick

    for i, period in enumerate((7, 11, 13, 17, 19, 23, 29, 31)):
        sim.schedule(period, make_chain(period, priority=i % 3))
    return sim.run(until=horizon)


def _net_broadcasts(lossy: bool) -> int:
    """``Network.broadcast`` from one sender to 32 no-op processes, on a
    clean wire or through a ``FaultInjector`` plus the reliable layer."""
    from repro.net.faults import FaultInjector, FaultPlan, LinkFault
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.sim.process import SimProcess
    from repro.sim.rng import RngRegistry

    n, broadcasts = 32, 300 if lossy else 1200
    sim = Simulator()
    faults = None
    if lossy:
        plan = FaultPlan(
            links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),)
        )
        faults = FaultInjector(plan, RngRegistry(1))
    net = Network(sim, faults=faults)
    if lossy:
        net.enable_reliable()
    for pid in range(n):
        net.register(SimProcess(pid, sim))
    payload = {"seq": 1, "blob": b"\x00" * 64}
    for i in range(broadcasts):
        sim.schedule(i * 50, lambda: net.broadcast(0, Message("probe", payload)))
    sim.run()
    return broadcasts * n


def _feldman_hits() -> int:
    import numpy as np

    from repro.crypto.feldman import FeldmanVSS

    vss = FeldmanVSS()
    shares, commitment = vss.deal(
        12345, threshold=3, n_shares=4, rng=np.random.default_rng(1)
    )
    ops = 20_000
    for i in range(ops):
        vss.verify_share(shares[i % 4], commitment)
    return ops


def _feldman_cold_us(rep: int) -> float:
    """Dealings at the n=32 quorum size that the process-wide memo has not
    seen (each repeat draws its own), so every verification is a miss.
    Dealing is set-up: only verification is timed."""
    import numpy as np

    from repro.crypto.feldman import FeldmanVSS

    vss = FeldmanVSS()
    rng = np.random.default_rng([1, rep])
    dealings = [
        vss.deal(int(rng.integers(1, 1 << 60)), threshold=21, n_shares=32, rng=rng)
        for _ in range(8)
    ]
    start = time.perf_counter()
    for shares, commitment in dealings:
        for share in shares:
            vss.verify_share(share, commitment)
    return (time.perf_counter() - start) * 1e6 / (8 * 32)


def _digest_hits() -> int:
    from repro.core.types import Batch, Transaction
    from repro.crypto.hashing import digest_of

    batch = Batch(
        proposer=1,
        batch_no=7,
        txs=tuple(Transaction(client_id=9, nonce=i) for i in range(10)),
    )
    ops = 50_000
    for _ in range(ops):
        digest_of(batch)
    return ops


def _commit_status() -> int:
    """``CommitState.on_status`` with synthetic reports from n=32 peers whose
    locked / min-pending bounds keep advancing (every call moves a mirror)."""
    from repro.core.clocks import OrderingClock, PerceivedSequence
    from repro.core.commit import CommitConfig, CommitState
    from repro.core.obfuscation import VssObfuscation
    from repro.core.services import ProtocolServices
    from repro.crypto.cost import FREE_COSTS
    from repro.crypto.signatures import KeyRegistry
    from repro.crypto.threshold import ThresholdScheme
    from repro.sim.engine import MILLISECONDS, Simulator

    n, f = 32, 10
    sim = Simulator()
    registry = KeyRegistry(1)
    services = ProtocolServices(
        pid=0,
        n=n,
        f=f,
        sim=sim,
        delta_us=150 * MILLISECONDS,
        signer=registry.signer(0),
        registry=registry,
        threshold=ThresholdScheme(2 * f + 1, n, seed=1),
        costs=FREE_COSTS,
    )
    clock = OrderingClock(sim)
    state = CommitState(
        services,
        clock,
        PerceivedSequence(clock),
        VssObfuscation(2 * f + 1, n, seed=1),
        CommitConfig(),
    )
    ops = 50_000
    for i in range(ops):
        state.on_status(i % n, 1_000 + i, 2_000 + i, ())
    return ops


def _workload_txs() -> int:
    import numpy as np

    from repro.workload.arrivals import make_arrivals
    from repro.workload.generator import make_body_sampler

    ops = 20_000
    rng = np.random.default_rng(7)
    arrivals = make_arrivals("poisson", rate_tps=1000.0)
    body = make_body_sampler("amm", {"amount_min": 1_000, "amount_max": 5_000}, rng)
    produced = 0
    for _ in arrivals.times(rng, 0, 1 << 40):
        body()
        produced += 1
        if produced >= ops:
            break
    return produced


def _fairness() -> int:
    from repro.metrics.fairness import fairness_block

    ops = 10_000
    submitted = [(i % 7, i) for i in range(ops)]
    # Committed order: every window of four reversed — local reordering of
    # the kind a fair-ordering protocol leaves behind.
    committed = [key for at in range(0, ops, 4) for key in reversed(submitted[at : at + 4])]
    fairness_block(
        submitted_order=submitted,
        committed_order=committed,
        latencies_by_group={"traffic": list(range(1, ops + 1))},
    )
    return ops


#: name -> ``probe(repeat_index)`` returning microseconds per operation.
PROBES: Dict[str, Callable[[int], float]] = {
    "sim.probe_us_per_event": lambda rep: _us_per_op(_sim_events),
    "net.probe_us_per_msg": lambda rep: _us_per_op(lambda: _net_broadcasts(False)),
    "net.probe_reliable_us_per_msg": lambda rep: _us_per_op(lambda: _net_broadcasts(True)),
    "crypto.probe_feldman_verify_cold_us": _feldman_cold_us,
    "crypto.probe_feldman_verify_hit_us": lambda rep: _us_per_op(_feldman_hits),
    "crypto.probe_digest_hit_us": lambda rep: _us_per_op(_digest_hits),
    "core.commit.probe_us_per_status": lambda rep: _us_per_op(_commit_status),
    "workload.probe_us_per_tx": lambda rep: _us_per_op(_workload_txs),
    "metrics.probe_fairness_us_per_tx": lambda rep: _us_per_op(_fairness),
}


def run_probes() -> Dict[str, float]:
    """Every probe, median of ``REPEATS`` runs, in microseconds per op."""
    return {
        name: statistics.median(probe(rep) for rep in range(REPEATS))
        for name, probe in PROBES.items()
    }


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    for name, value in run_probes().items():
        print(f"{name:40s} {value:12.4f} us")
