"""Declarative workload specifications — the traffic-engine API.

A :class:`WorkloadSpec` describes *everything* a run submits: groups of
clients, each with a client type (resolved through the client registry),
an arrival process (for open-loop groups), a body mix, and placement.
It replaces scattered per-client-kind config knobs with one composable,
serialisable object that plugs into every cluster builder via
``ExperimentConfig.workload``.

Design invariants:

- **Legacy identity.**  :meth:`WorkloadSpec.from_legacy` reproduces the
  pre-spec client rig *exactly*: same construction order, same
  constructor arguments, no extra rng draws — so runs with a legacy spec
  are bit-identical to the pre-refactor harness (the sweep cache depends
  on this).
- **Determinism.**  All randomness used by workload clients flows
  through per-client named rng streams (``("workload", label, ...)``),
  so the submission schedule is a pure function of ``(seed, spec)`` and
  independent of protocol, fault plans, and every other random consumer.
- **A million users without a million processes.**  Independent thin
  Poisson user streams superpose into one Poisson stream, so a group
  carries a ``users`` population whose aggregate offered rate one
  :class:`~repro.workload.clients.ArrivalClient` submits; the capacity
  model (:func:`repro.metrics.capacity.extrapolate_users`) scales the
  sustained-load verdict back to the population.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.workload.arrivals import arrivals_from_dict
from repro.workload.clients import (
    BuildContext,
    TxKey,
    _BaseClient,
    client_class,
)
from repro.workload.mev import MevBotClient, SandwichAttempt


@dataclass(frozen=True)
class ClientGroup:
    """One homogeneous set of clients inside a :class:`WorkloadSpec`.

    Placement: ``count_per_node`` clients per replica (in pid order),
    plus ``count`` extra clients — one per replica (``one_per_node``),
    all at ``home``, or round-robin over replicas.  Which constructor
    fields apply depends on ``client`` (see ``from_group`` of each
    registered client class); unused fields are ignored.  A ``closed``
    group keeps ``window`` transactions outstanding per client; an
    ``arrival`` group submits on its ``arrival`` process — a fixed
    schedule is a ``trace`` process, e.g. ``{"kind": "trace",
    "offsets_us": [400_000]}`` for one transaction 0.4 s after the
    clients start; a ``mev`` group chases the swaps its home replica
    lets it read.
    """

    name: str = "clients"
    #: Registered client type: ``closed``, ``arrival``, ``mev``.
    client: str = "closed"
    count: int = 0
    count_per_node: int = 0
    one_per_node: bool = False
    home: Optional[int] = None
    # Closed-loop.
    window: int = 50
    #: Arrival-process spec (``ArrivalProcess.to_dict()`` form); a
    #: ``trace`` process replays a fixed schedule.
    arrival: Optional[Dict[str, Any]] = None
    #: Body mix: ``raw``, ``kv_zipf``, ``amm`` (see ``make_body_sampler``).
    body: str = "raw"
    body_params: Optional[Dict[str, Any]] = None
    #: Simulated user population this group stands in for (0 = the
    #: clients themselves).  Informational: feeds capacity extrapolation.
    users: int = 0
    #: MEV bots only: give the bot's home replica a Byzantine
    #: timestamp-biasing node class under Pompē (Fig. 1's colluding
    #: orderer).  Ignored by protocols without that attack surface.
    collude: bool = False

    def __post_init__(self) -> None:
        for name, value, floor in (
            ("count", self.count, 0),
            ("count_per_node", self.count_per_node, 0),
            ("window", self.window, 1),
        ):
            if value < floor:
                raise ValueError(
                    f"ClientGroup {self.name!r}: {name} must be >= {floor}, got {value}"
                )

    # ------------------------------------------------------------------
    def homes(self, n: int) -> List[int]:
        """Home replica pids, in construction order."""
        out: List[int] = []
        for pid in range(n):
            out.extend([pid] * self.count_per_node)
        if self.one_per_node:
            out.extend(range(min(self.count, n)))
        elif self.home is not None:
            out.extend([self.home] * self.count)
        else:
            out.extend(i % n for i in range(self.count))
        return out

    def n_clients(self, n: int) -> int:
        return len(self.homes(n))

    def offered_tps(self, n: int) -> float:
        """Mean open-loop offered rate of the group (0 for closed loop /
        reactive clients, whose rate is set by back-pressure)."""
        count = self.n_clients(n)
        if self.client == "arrival":
            proc = (
                arrivals_from_dict(self.arrival)
                if self.arrival is not None
                else None
            )
            rate = proc.mean_rate_tps() if proc is not None else 100.0
            return rate * count
        return 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON form: only non-default fields are emitted."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default
            if value != default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClientGroup":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ClientGroup fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """The complete traffic description of a run.

    ``fairness`` turns on submission-order recording, which the fairness
    report layer (:mod:`repro.metrics.fairness`) compares against the
    committed order.  ``users`` is the simulated population the spec
    stands in for (defaults to the sum of group populations).
    """

    groups: Tuple[ClientGroup, ...] = ()
    fairness: bool = True
    users: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        names = [g.name for g in self.groups]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate group names: {names}")

    # ------------------------------------------------------------------
    def n_clients(self, n: int) -> int:
        return sum(g.n_clients(n) for g in self.groups)

    def offered_tps(self, n: int) -> float:
        return sum(g.offered_tps(n) for g in self.groups)

    def resolved_users(self, n: int) -> int:
        """The simulated user population: explicit, summed from groups,
        or (fallback) the literal client count."""
        if self.users:
            return self.users
        by_group = sum(g.users for g in self.groups)
        return by_group if by_group else self.n_clients(n)

    # ------------------------------------------------------------------
    @classmethod
    def from_legacy(
        cls,
        *,
        clients_per_node: int = 1,
        client_window: int = 50,
    ) -> "WorkloadSpec":
        """The spec equivalent of the legacy knob set.

        Reproduces the historical client rig exactly (construction order
        and constructor arguments), with fairness recording off — legacy
        runs must stay bit-identical and zero-overhead.
        """
        main = ClientGroup(
            name="main",
            client="closed",
            count_per_node=clients_per_node,
            window=client_window,
        )
        return cls(groups=(main,), fairness=False)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "groups": [g.to_dict() for g in self.groups],
            "fairness": self.fairness,
            "users": self.users,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown WorkloadSpec fields: {sorted(unknown)}")
        data = dict(data)
        data["groups"] = tuple(
            ClientGroup.from_dict(g) for g in data.get("groups", ())
        )
        return cls(**data)


class Workload:
    """The instantiated clients of a spec, plus consolidated accounting.

    Returned by :func:`build_workload`; cluster builders keep one and the
    runner calls :meth:`finalize` at the end of the run so in-flight
    transactions are counted as incomplete rather than silently dropped.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.clients: List[_BaseClient] = []
        self.by_group: Dict[str, List[_BaseClient]] = {}
        self.mev_bots: List[MevBotClient] = []

    # -- wiring helpers -------------------------------------------------
    def mev_bots_by_home(self) -> Dict[int, List[MevBotClient]]:
        out: Dict[int, List[MevBotClient]] = {}
        for bot in self.mev_bots:
            out.setdefault(bot.home, []).append(bot)
        return out

    # -- end-of-run accounting ------------------------------------------
    def finalize(self, now_us: int) -> None:
        for client in self.clients:
            client.finalize(now_us)

    def counts(self) -> Dict[str, int]:
        return {
            "clients": len(self.clients),
            "submitted": sum(c.stats.submitted for c in self.clients),
            "completed": sum(c.stats.completed for c in self.clients),
            "incomplete": sum(c.stats.incomplete for c in self.clients),
        }

    def submission_log(self) -> List[Tuple[int, TxKey]]:
        """All recorded submissions merged into one (time, key) order."""
        merged: List[Tuple[int, TxKey]] = []
        for client in self.clients:
            merged.extend(client.submit_log)
        merged.sort()
        return merged

    def submit_order(self) -> List[TxKey]:
        """Tx keys in global submission order (requires fairness on)."""
        return [key for _, key in self.submission_log()]

    def sandwich_attempts(self) -> List[SandwichAttempt]:
        return [a for bot in self.mev_bots for a in bot.attempts]

    def latencies_by_group(self) -> Dict[str, List[int]]:
        return {
            name: [
                lat
                for client in members
                for lat in client.stats.latencies_us
            ]
            for name, members in self.by_group.items()
        }

    def metrics_source(self) -> Dict[str, float]:
        """Flat scrape for the metrics registry (snapshot-time only)."""
        out: Dict[str, float] = dict(self.counts())
        attempts = self.sandwich_attempts()
        if self.mev_bots:
            out["mev_attempts"] = len(attempts)
            out["mev_launched"] = sum(1 for a in attempts if a.launched)
        for name, members in self.by_group.items():
            out[f"{name}.submitted"] = sum(
                c.stats.submitted for c in members
            )
            out[f"{name}.completed"] = sum(
                c.stats.completed for c in members
            )
        return out


def mev_groups(victim_arrival: Dict[str, Any]) -> Tuple[ClientGroup, ...]:
    """Fig. 1's adversarial pair: AMM victim swaps from one client homed
    at pid 0 on ``victim_arrival``, and one MEV bot at pid 1 whose replica
    colludes under Pompē."""
    return (
        ClientGroup(
            name="victims",
            client="arrival",
            count=1,
            home=0,
            arrival=victim_arrival,
            body="amm",
            body_params={"amount_min": 1_000, "amount_max": 5_000},
        ),
        ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
    )


def build_workload(
    spec: WorkloadSpec,
    *,
    sim,
    topology,
    rng,
    n: int,
    start_at_us: int,
    stop_at_us: Optional[int] = None,
) -> Workload:
    """Instantiate every client of ``spec`` into ``sim``.

    Clients are created group by group in spec order, each placed in its
    home replica's region; for legacy specs this reproduces the historic
    pid-assignment and event-scheduling order exactly.  The caller still
    registers the returned clients on the network.
    """
    workload = Workload(spec)
    for group in spec.groups:
        cls = client_class(group.client)
        members: List[_BaseClient] = []
        for index, home in enumerate(group.homes(n)):
            cpid = topology.place(topology.region_of(home))
            ctx = BuildContext(
                start_at_us=start_at_us,
                stop_at_us=stop_at_us,
                rng=rng,
                label=f"{group.name}/{index}",
            )
            client = cls.from_group(cpid, sim, home, group, ctx)
            if spec.fairness:
                client.record_submissions = True
            members.append(client)
            workload.clients.append(client)
            if isinstance(client, MevBotClient):
                workload.mev_bots.append(client)
        workload.by_group[group.name] = members
    return workload


__all__ = [
    "ClientGroup",
    "WorkloadSpec",
    "Workload",
    "build_workload",
    "mev_groups",
]
