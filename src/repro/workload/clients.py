"""Benchmark clients behind one registry and one ``ClientStats`` contract.

§VI-A adopts Pompē's methodology: *closed-loop* clients, each keeping a
fixed number of transactions outstanding against a home replica, measuring
the latency of every committed transaction.  The consolidated latencies
and completion counts produce the average-latency and throughput numbers
of Figures 2 and 3.

On top of that, the open-loop traffic engine adds clients whose submission
*times* are controlled precisely rather than by protocol back-pressure:

- :class:`ArrivalClient` — submissions drawn from an
  :class:`~repro.workload.arrivals.ArrivalProcess` (Poisson / bursty /
  diurnal / trace-replay) with a pluggable body sampler — the workhorse of
  ``python -m repro run --arrival ...``.
- :class:`~repro.workload.mev.MevBotClient` — adversarial traffic chasing
  victim transactions (registered on import of :mod:`repro.workload.mev`).

All client types are interchangeable: they share the submit/reply
bookkeeping of :class:`_BaseClient`, report through the same
:class:`ClientStats`, and are constructed by name through the client
registry (mirroring the protocol registry in
:mod:`repro.harness.factory`), so cluster builders never hard-code a
client class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.core.replica import CLIENT_REPLY_KIND, CLIENT_TX_KIND
from repro.core.types import Transaction
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.workload.generator import TxGenerator

#: A tx identity as clients track it: ``(client_id, nonce)``.
TxKey = Tuple[int, int]


@dataclass
class BuildContext:
    """Per-client construction context handed to ``from_group``.

    ``label`` is unique per client (``"<group>/<index>"``); rng streams
    derived from it are independent of every other consumer in the run,
    so adding a client never perturbs existing streams.
    """

    start_at_us: int
    stop_at_us: Optional[int]
    rng: Any  # RngRegistry
    label: str

    def stream(self, name: str):
        """A dedicated, deterministic rng stream for this client."""
        return self.rng.get("workload", self.label, name)


@dataclass
class ClientStats:
    """Per-client measurements, consolidated by the harness.

    ``incomplete`` is set by :meth:`_BaseClient.finalize` at the end of a
    run: transactions submitted but never acknowledged are counted there
    instead of silently vanishing, so ``submitted == completed +
    incomplete`` always holds after finalization.
    """

    submitted: int = 0
    completed: int = 0
    incomplete: int = 0
    #: ``client.reply`` messages dropped for their shape (not a dict, or
    #: no hashable ``key``).
    malformed_replies: int = 0
    latencies_us: List[int] = field(default_factory=list)
    first_submit_us: Optional[int] = None
    last_complete_us: Optional[int] = None


class _BaseClient(SimProcess):
    """Common submit/reply bookkeeping for every client type."""

    def __init__(
        self, pid: int, sim: Simulator, home: int, *, body: bytes = b""
    ) -> None:
        super().__init__(pid, sim)
        self.home = home
        self.body = body
        self.gen = TxGenerator(pid)
        self.stats = ClientStats()
        self._inflight: Dict[TxKey, int] = {}  # tx key -> submit time
        #: When on, every submission is appended to ``submit_log`` as
        #: ``(submit_time_us, key)`` — the ground-truth arrival order the
        #: fairness report compares committed order against.
        self.record_submissions = False
        self.submit_log: List[Tuple[int, TxKey]] = []

    def _submit_one(self, body: Optional[bytes] = None) -> Transaction:
        tx = self.gen.next(
            body=self.body if body is None else body, submitted_at=self.sim.now
        )
        self._inflight[tx.key()] = self.sim.now
        self.stats.submitted += 1
        if self.stats.first_submit_us is None:
            self.stats.first_submit_us = self.sim.now
        if self.record_submissions:
            self.submit_log.append((self.sim.now, tx.key()))
        self.send(self.home, Message(CLIENT_TX_KIND, {"tx": tx}, tx.wire_size()))
        return tx

    def on_message(self, message: Message, sender: int) -> None:
        if message.kind != CLIENT_REPLY_KIND:
            return
        payload = message.payload
        key = payload.get("key") if type(payload) is dict else None
        try:
            hash(key)
        except TypeError:
            key = None
        if key is None:  # not a dict, or no hashable ``key``: junk
            self.stats.malformed_replies += 1
            return
        submit_time = self._inflight.pop(key, None)
        if submit_time is None:
            return  # duplicate reply
        self.stats.completed += 1
        self.stats.latencies_us.append(self.sim.now - submit_time)
        self.stats.last_complete_us = self.sim.now
        self._on_complete()

    def finalize(self, now_us: int) -> None:
        """End-of-run accounting: everything still in flight is incomplete."""
        self.stats.incomplete = len(self._inflight)

    def _on_complete(self) -> None:  # pragma: no cover - overridden
        pass

    @classmethod
    def from_group(cls, pid, sim, home, group, ctx: BuildContext):
        """Construct from a :class:`~repro.workload.spec.ClientGroup`.

        Subclasses override this to pick out the group fields they use;
        the registry + ``from_group`` pair is what makes client types
        interchangeable in a :class:`~repro.workload.spec.WorkloadSpec`.
        """
        return cls(pid, sim, home)


class ClosedLoopClient(_BaseClient):
    """Keeps ``window`` transactions outstanding at all times."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        home: int,
        *,
        window: int = 100,
        start_at_us: int = 0,
        stop_at_us: Optional[int] = None,
        body: bytes = b"",
    ) -> None:
        super().__init__(pid, sim, home, body=body)
        self.window = window
        self.stop_at_us = stop_at_us
        sim.schedule(start_at_us, self._start)

    def _start(self) -> None:
        for _ in range(self.window):
            self._submit_one()

    def _on_complete(self) -> None:
        if self.stop_at_us is not None and self.sim.now >= self.stop_at_us:
            return
        self._submit_one()

    @classmethod
    def from_group(cls, pid, sim, home, group, ctx: BuildContext):
        # Deliberately does not pass stop_at_us: the legacy closed-loop
        # clients run to the horizon, and the bit-determinism oracle
        # requires identical constructor behaviour for legacy specs.
        return cls(
            pid,
            sim,
            home,
            window=group.window,
            start_at_us=ctx.start_at_us,
        )


class ArrivalClient(_BaseClient):
    """Open-loop client driven by an arrival process and a body sampler.

    One :class:`ArrivalClient` typically stands in for many simulated
    users: the aggregate of independent thin Poisson streams is itself
    Poisson, so the arrival process carries the population's offered rate
    while ``body_fn`` samples per-arrival content (e.g. Zipf hot keys, AMM
    orders).  Arrival timestamps and bodies are drawn from dedicated rng
    streams, so the submission schedule is deterministic per seed and
    independent of every other random consumer in the run.
    """

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        home: int,
        *,
        arrivals,
        rng,
        start_at_us: int = 0,
        stop_at_us: Optional[int] = None,
        body_fn: Optional[Callable[[], bytes]] = None,
    ) -> None:
        super().__init__(pid, sim, home)
        self.arrivals = arrivals
        self.stop_at_us = stop_at_us
        self._body_fn = body_fn
        horizon = stop_at_us if stop_at_us is not None else 2**62
        self._times: Iterator[int] = arrivals.times(rng, start_at_us, horizon)
        self._arm()

    def _arm(self) -> None:
        t = next(self._times, None)
        if t is None:
            return
        self.sim.schedule_at(t, self._fire)

    def _fire(self) -> None:
        if self.crashed:
            # A dead client must not keep replaying its arrival schedule:
            # the chain ends here (clients never recover).
            return
        body = self._body_fn() if self._body_fn is not None else b""
        self._submit_one(body=body)
        self._arm()

    @classmethod
    def from_group(cls, pid, sim, home, group, ctx: BuildContext):
        from repro.workload.arrivals import PoissonArrivals, arrivals_from_dict
        from repro.workload.generator import make_body_sampler

        arrivals = (
            arrivals_from_dict(group.arrival)
            if group.arrival is not None
            else PoissonArrivals()
        )
        body_fn = make_body_sampler(
            group.body, group.body_params, ctx.stream("body")
        )
        return cls(
            pid,
            sim,
            home,
            arrivals=arrivals,
            rng=ctx.stream("arrivals"),
            start_at_us=ctx.start_at_us,
            stop_at_us=ctx.stop_at_us,
            body_fn=body_fn,
        )


# ----------------------------------------------------------------------
# Client registry — mirrors the protocol registry in harness.factory, so
# cluster builders resolve client types by name instead of hard-coding
# constructors and new client behaviours plug into the WorkloadSpec API
# with no harness changes.
# ----------------------------------------------------------------------
_CLIENT_REGISTRY: Dict[str, Type[_BaseClient]] = {}


def register_client(name: str, cls: Type[_BaseClient]) -> None:
    """Register (or replace) a client class under ``name``."""
    _CLIENT_REGISTRY[name.lower()] = cls


def available_clients() -> Tuple[str, ...]:
    """Registered client names, sorted."""
    return tuple(sorted(_CLIENT_REGISTRY))


def client_class(name: str) -> Type[_BaseClient]:
    """Resolve a registered client class by name."""
    cls = _CLIENT_REGISTRY.get(name.lower())
    if cls is None:
        raise ValueError(
            f"unknown client type {name!r}; "
            f"available: {', '.join(available_clients())}"
        )
    return cls


register_client("closed", ClosedLoopClient)
register_client("arrival", ArrivalClient)


__all__ = [
    "BuildContext",
    "ClosedLoopClient",
    "ArrivalClient",
    "ClientStats",
    "register_client",
    "available_clients",
    "client_class",
]
