"""The ledger's four canonical workloads.

Each workload is a pure function ``(seed, smoke) -> ExperimentConfig``: the
seed is the only source of variation and the program under test sees only
the built config.  The shapes are fixed — a workload is added or resized in
its own PR, with the baseline re-measured (see README.md).  Why each one
is here is recorded once, in ``BENCHMARK.json``.

``smoke`` shrinks a workload to n=4 and <=2 s of simulated time so the test
file can exercise the whole pipeline in seconds; smoke digests are not
pinned and smoke numbers are never recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.harness.config import ExperimentConfig
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS
from repro.workload.spec import ClientGroup, WorkloadSpec


#: ``drain_ms`` of every smoke shape (they all run 2 s of simulated time).
SMOKE_DRAIN_MS = 1500


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    #: ``(seed, smoke) -> ExperimentConfig``
    build: Callable[[int, bool], ExperimentConfig]
    #: A transaction unanswered at the horizon has failed only if it is
    #: older than this (presumed lost); a younger one is cut off by the
    #: horizon and not counted.  Sized >= 1.25x the worst latency or
    #: in-flight age seen over 24 seeds (``oldest_unanswered_ms``).
    drain_ms: int
    #: Wall seconds of one repetition on the host the benchmark was sized
    #: on.  Only sizes the driver's repetition count, so that it depends on
    #: ``--seconds`` and never on the speed of the host at hand.
    nominal_rep_s: float
    #: Decided-prefix digest at seed 1 (full shape only).
    seed1_digest: Optional[str] = None
    #: Cell of ``benchmarks/bench_baseline.json`` with the same shape.
    baseline_cell: Optional[str] = None


def _closed_loop(
    n: int, seed: int, duration_ms: int, *, batch: int, window: int, **extra
) -> ExperimentConfig:
    """The ``repro.bench.suite`` client rig: one closed-loop client per
    node, two warm-up rounds 150 ms apart."""
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=batch,
        clients_per_node=1,
        client_window=window,
        duration_us=duration_ms * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        **extra,
    )


def _lyra_n32_closed(seed: int, smoke: bool) -> ExperimentConfig:
    if smoke:
        return _closed_loop(4, seed, 2000, batch=10, window=5)
    return _closed_loop(32, seed, 3000, batch=10, window=5)


def _pompe_n100_closed(seed: int, smoke: bool) -> ExperimentConfig:
    # jitter=0: with the default 1.5 % jitter two pipelined HotStuff
    # ``decide`` messages can overtake each other on a link, and the Pompē
    # baseline then executes their certificates in arrival order — a real
    # SMR-safety violation on ~5 % of seeds at n=100 (e.g. seed 23760, logs
    # diverge at position 386; see README.md "Known gaps").  Without jitter
    # links are FIFO and all 40+ seeds tried are safe; the safety check
    # stays on.
    if smoke:
        return _closed_loop(4, seed, 2000, batch=10, window=5, jitter=0.0)
    return _closed_loop(100, seed, 10_000, batch=10, window=5, jitter=0.0)


#: The chaos workload crashes this replica for a while.  It hosts no client:
#: a crash wipes the replica's volatile mempool and the closed-loop client
#: never retries, so a client homed there loses its whole window for good
#: (4 of 172 operations at seed 1) — the benchmark contract wants
#: workloads on which no operation fails, so any failure is a regression.
CHAOS_CRASH_PID = 2


def _lyra_n7_chaos(seed: int, smoke: bool) -> ExperimentConfig:
    n, duration_ms, crash_ms, recover_ms = (
        (4, 2000, 800, 1200) if smoke else (7, 10_000, 2000, 3000)
    )
    plan = FaultPlan(
        links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),),
        crashes=(
            CrashEvent(
                pid=CHAOS_CRASH_PID,
                crash_at_us=crash_ms * MILLISECONDS,
                recover_at_us=recover_ms * MILLISECONDS,
            ),
        ),
    )
    clients = WorkloadSpec(
        groups=tuple(
            ClientGroup(name=f"main{pid}", client="closed", count=1, home=pid, window=4)
            for pid in range(n)
            if pid != CHAOS_CRASH_PID
        ),
        fairness=False,
    )
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        batch_size=8,
        duration_us=duration_ms * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
        workload=clients,
    )


def _lyra_n7_mev_open(seed: int, smoke: bool) -> ExperimentConfig:
    """``repro workload --arrival poisson --mev --n 7 --offered-tps 150
    --duration-ms 6000`` (Fig. 1 geometry: victims far from the replica
    majority, the bot's replica between them)."""
    n, duration_ms = (4, 2000) if smoke else (7, 6000)
    spec = WorkloadSpec(
        groups=(
            ClientGroup(
                name="traffic",
                client="arrival",
                count_per_node=1,
                arrival={"kind": "poisson", "rate_tps": 150.0 / n},
                body="raw",
                users=1000,
            ),
            ClientGroup(
                name="victims",
                client="arrival",
                count=1,
                home=0,
                arrival={"kind": "poisson", "rate_tps": 2.0},
                body="amm",
                body_params={"amount_min": 1_000, "amount_max": 5_000},
            ),
            ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
        ),
        fairness=True,
        users=1000,
    )
    return ExperimentConfig(
        n_nodes=n,
        seed=seed,
        regions=["tokyo", "singapore"] + ["saopaulo"] * (n - 2),
        batch_size=1,
        duration_us=duration_ms * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        workload=spec,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lyra_n32_closed",
            seed1_digest="22198ee36b76fc53843e491af6e75afc87dd1a01558e342fdbaf1f3f6b90ea2a",
            protocol="lyra",
            build=_lyra_n32_closed,
            drain_ms=3000,
            nominal_rep_s=13.5,
            baseline_cell="goodcase_n32",
        ),
        Workload(
            name="pompe_n100_closed",
            seed1_digest="1841c853f3615e40ebaebd7669e337d7c715913815fa3b895ddd50c7900cac09",
            protocol="pompe",
            build=_pompe_n100_closed,
            drain_ms=3500,
            nominal_rep_s=5.5,
        ),
        Workload(
            name="lyra_n7_chaos",
            seed1_digest="79e791f9d744a9ef5106608305b657de94c02a4e61151457570e968709e9108f",
            protocol="lyra",
            build=_lyra_n7_chaos,
            drain_ms=5000,
            nominal_rep_s=9.5,
        ),
        Workload(
            name="lyra_n7_mev_open",
            seed1_digest="d34604528d462046a57fabbdf9b8cfa395c55a452b0d377fc9c55d6ad2ac2375",
            protocol="lyra",
            build=_lyra_n7_mev_open,
            drain_ms=2000,
            nominal_rep_s=8.0,
        ),
    )
}
