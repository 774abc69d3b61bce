"""Structured protocol tracing.

A :class:`TraceLog` collects timestamped protocol events (proposed,
decided, committed, revealed/executed) emitted by instrumented nodes.
Uses:

- **latency decomposition** — split commit latency into the paper's
  phases: BOC decision (3 message delays), Commit-protocol lag
  (piggyback/heartbeat exchange), and the commit-reveal round;
- **debugging** — reconstruct exactly what one instance did at one node;
- **artifacts** — dump runs to JSONL for offline analysis (and, via
  :mod:`repro.metrics.spans`, to chrome://tracing format).

Install with :func:`install_lyra_tracing` on a built (un-run) cluster, or
set ``ExperimentConfig.tracing=True`` and read ``cluster.trace``.

Detail values are normalised to a canonical JSON-stable form (sequences
become tuples, bytes become hex strings) both at record time and on
:meth:`TraceLog.load_jsonl`, so :class:`TraceEvent` equality — and every
``for_instance``-based assertion — survives a dump/load round trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.types import InstanceId

#: Canonical event kinds emitted by instrumented Lyra nodes, in pipeline
#: order (used by the decomposition below).
PHASES = ("proposed", "decided", "committed", "executed")

#: Instances are addressed either by the protocol's :class:`InstanceId` or
#: by the raw ``(proposer, batch_no)`` pair a JSONL dump preserves.
InstanceKey = Union[InstanceId, Tuple[int, int]]


#: Detail values that need no canonicalisation — checked first because the
#: overwhelming majority of trace details are small ints and strings.
_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))


def _canon_value(value: Any) -> Any:
    """Canonical JSON-stable detail value: sequences collapse to tuples
    (JSON cannot tell a tuple from a list, so both sides of a round trip
    must agree on one), bytes to hex strings; scalars pass through."""
    if type(value) in _SCALAR_TYPES:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(v) for v in value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return value


def _instance_key(instance: Optional[InstanceKey]) -> Optional[Tuple[int, int]]:
    if instance is None:
        return None
    if isinstance(instance, InstanceId):
        return (instance.proposer, instance.batch_no)
    return (instance[0], instance[1])


def phase_durations(times: Dict[str, int]) -> Dict[str, int]:
    """Adjacent-phase durations (and ``total``) from one instance's
    first-seen times at one node, for the pairs that both occurred."""
    out: Dict[str, int] = {}
    for earlier, later in zip(PHASES, PHASES[1:]):
        if earlier in times and later in times:
            out[f"{earlier}->{later}"] = times[later] - times[earlier]
    if PHASES[0] in times and PHASES[-1] in times:
        out["total"] = times[PHASES[-1]] - times[PHASES[0]]
    return out


class TraceEvent(NamedTuple):
    # A NamedTuple rather than a frozen dataclass: construction happens
    # once per protocol phase per node on the traced hot path, and tuple
    # construction skips the per-field ``object.__setattr__`` a frozen
    # dataclass pays.
    time_us: int
    node: int
    kind: str
    instance: Optional[Tuple[int, int]] = None  # (proposer, batch_no)
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.time_us,
                "node": self.node,
                "kind": self.kind,
                "iid": list(self.instance) if self.instance else None,
                "detail": dict(self.detail),
            }
        )


#: ``{instance: {node: {kind: first time}}}``, instances and nodes in
#: first-appearance order.
FirstTimes = Dict[Tuple[int, int], Dict[int, Dict[str, int]]]


class TraceLog:
    """An append-only protocol event log with simple query helpers."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        # The grouping below and the event count it covers.
        self._first_times: FirstTimes = {}
        self._grouped = 0

    def record(
        self,
        time_us: int,
        node: int,
        kind: str,
        instance: Optional[InstanceKey] = None,
        **detail: Any,
    ) -> None:
        # Hot path: a plain 2-tuple needs no key normalisation, and most
        # events carry zero or one detail item, so the sort is skipped.
        if instance is not None and type(instance) is not tuple:
            instance = _instance_key(instance)
        if detail:
            items = tuple(
                sorted((k, _canon_value(v)) for k, v in detail.items())
            )
        else:
            items = ()
        self.events.append(TraceEvent(time_us, node, kind, instance, items))

    # ------------------------------------------------------------------
    def for_instance(self, instance: InstanceKey) -> List[TraceEvent]:
        key = _instance_key(instance)
        return [e for e in self.events if e.instance == key]

    def grouped_first_times(self) -> FirstTimes:
        """First occurrence time of each event kind, by instance and node.

        One pass over the events appended since the last call (the log
        only grows), so every per-instance query below is a dict lookup.
        """
        events = self.events
        groups = self._first_times
        for e in events[self._grouped:]:
            if e.instance is not None:
                groups.setdefault(e.instance, {}).setdefault(e.node, {}).setdefault(
                    e.kind, e.time_us
                )
        self._grouped = len(events)
        return groups

    def instances(self) -> List[Tuple[int, int]]:
        """Every (proposer, batch_no) pair that appears in the log, in
        first-appearance order."""
        return list(self.grouped_first_times())

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def first_times(self, instance: InstanceKey, node: int) -> Dict[str, int]:
        """First occurrence time of each event kind for one instance at
        one node.  Phases an instance never reached at that node (e.g. on
        a crash-recovered replica) are simply absent from the result."""
        by_node = self.grouped_first_times().get(_instance_key(instance), {})
        return dict(by_node.get(node, {}))

    def phase_durations_us(self, instance: InstanceKey, node: int) -> Dict[str, int]:
        """Per-phase durations at ``node`` following :data:`PHASES` order.

        Only adjacent phase pairs that both occurred are reported, so an
        instance that skipped phases (crash, catch-up adoption, rejection)
        yields a partial — never erroneous — decomposition."""
        return phase_durations(self.first_times(instance, node))

    # ------------------------------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        with open(path, "w") as fh:
            for e in self.events:
                fh.write(e.to_json() + "\n")
        return len(self.events)

    @classmethod
    def load_jsonl(cls, path: str) -> "TraceLog":
        log = cls()
        with open(path) as fh:
            for line in fh:
                raw = json.loads(line)
                log.events.append(
                    TraceEvent(
                        raw["t"],
                        raw["node"],
                        raw["kind"],
                        tuple(raw["iid"]) if raw.get("iid") else None,
                        tuple(
                            sorted(
                                (k, _canon_value(v))
                                for k, v in (raw.get("detail") or {}).items()
                            )
                        ),
                    )
                )
        return log

    def __len__(self) -> int:
        return len(self.events)


def install_lyra_tracing(cluster, log: Optional[TraceLog] = None) -> TraceLog:
    """Instrument every node of a built (not yet run) Lyra cluster.

    Composes with any tracer already installed on a node (chaos-engine
    instrumentation, a previous ``install_lyra_tracing``): the new log
    records first, then the prior hook still fires.  Pass ``log`` to
    append several clusters into one TraceLog.
    """
    log = log if log is not None else TraceLog()
    for node in cluster.nodes:
        prev = node.tracer
        if prev is None:
            # Common case gets the leanest closure: attribute lookups
            # hoisted into defaults, no compose branch.
            def _tracer(
                kind, iid, *, _sim=node.sim, _pid=node.pid,
                _record=log.record, **detail,
            ):
                _record(_sim.now, _pid, kind, iid, **detail)
        else:
            def _tracer(
                kind, iid, *, _sim=node.sim, _pid=node.pid,
                _record=log.record, _prev=prev, **detail,
            ):
                _record(_sim.now, _pid, kind, iid, **detail)
                _prev(kind, iid, **detail)

        node.tracer = _tracer
    return log


__all__ = [
    "TraceLog",
    "TraceEvent",
    "install_lyra_tracing",
    "phase_durations",
    "PHASES",
    "InstanceKey",
]
