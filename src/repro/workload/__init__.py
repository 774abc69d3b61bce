"""Workloads: the declarative traffic engine.

§VI-A: the paper's evaluation uses closed-loop clients submitting unique
32-byte transactions (it also writes committed transactions to a
key-value store; no measurement reads one, so none is kept here).  On
top of that rig, the open-loop traffic engine drives the protocol with
arrival-process-driven clients (Poisson / bursty / diurnal / trace),
synthetic body mixes (raw, Zipf hot-key KV, AMM orders) and
adversarial MEV bots — all declared through :class:`WorkloadSpec` and
instantiated by :func:`build_workload` behind the client registry.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrivals_from_dict,
    available_arrivals,
    make_arrivals,
)
from repro.workload.clients import (
    ArrivalClient,
    ClientStats,
    ClosedLoopClient,
    OpenLoopClient,
    available_clients,
    client_class,
    register_client,
)
from repro.workload.generator import TxGenerator, make_body_sampler
from repro.workload.mev import MevBotClient, SandwichAttempt
from repro.workload.spec import (
    ClientGroup,
    Workload,
    WorkloadSpec,
    build_workload,
)

__all__ = [
    "ArrivalClient",
    "ArrivalProcess",
    "BurstyArrivals",
    "ClientGroup",
    "ClientStats",
    "ClosedLoopClient",
    "DiurnalArrivals",
    "MevBotClient",
    "OpenLoopClient",
    "PoissonArrivals",
    "SandwichAttempt",
    "TraceArrivals",
    "TxGenerator",
    "Workload",
    "WorkloadSpec",
    "arrivals_from_dict",
    "available_arrivals",
    "available_clients",
    "build_workload",
    "client_class",
    "make_arrivals",
    "make_body_sampler",
    "register_client",
]
