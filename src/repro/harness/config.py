"""Experiment configuration shared by all harness entry points."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Sequence

from repro.core.node import (
    DEFAULT_WARMUP_ROUNDS,
    DEFAULT_WARMUP_SPACING_US,
    warmup_duration_us,
)
from repro.net.faults import FaultPlan
from repro.net.topology import EVAL_REGIONS
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.workload.spec import WorkloadSpec


@dataclass
class ExperimentConfig:
    """One cluster run (Lyra or a baseline).

    Defaults mirror §VI: three regions, batch 800, λ = 5 ms, 1 Gbps NICs.
    """

    n_nodes: int = 4
    #: Byzantine resilience; default is the maximum f with n > 3f.
    f: Optional[int] = None
    regions: Sequence[str] = field(default_factory=lambda: list(EVAL_REGIONS))
    seed: int = 1

    # Network.
    delta_us: int = 150 * MILLISECONDS
    #: Replace the geo latency matrix with one uniform one-way delay (µs),
    #: jitter-free.  Makes latency decompositions analytically checkable:
    #: BOC should decide in 3 message delays of this value (§III).
    uniform_delay_us: Optional[int] = None
    jitter: float = 0.015
    #: 1 Gbps NICs (``BandwidthModel.DEFAULT_RATE``) when enabled.
    bandwidth_enabled: bool = True

    # Protocol.
    batch_size: int = 800
    batch_timeout_us: int = 50 * MILLISECONDS
    lambda_us: int = 5 * MILLISECONDS
    #: §VI-D flooding mitigation: per-proposer instance rate cap (None=off).
    max_proposer_rate_per_s: float | None = None
    #: ``"vss"`` (§II-B) or ``"hash"`` (§VI-A).  Replicas check the VSS
    #: dealing of every INIT exactly when the scheme is ``"vss"``.
    obfuscation: str = "vss"
    status_interval_us: int = 25 * MILLISECONDS
    #: Warm-up defaults come from ``repro.core.node`` — the single source
    #: of truth shared with ``LyraConfig``, so direct core users and
    #: harness users agree on when warm-up ends (they used to diverge:
    #: 150 ms vs 200 ms).
    warmup_rounds: int = DEFAULT_WARMUP_ROUNDS
    warmup_spacing_us: int = DEFAULT_WARMUP_SPACING_US
    clock_skew_max_us: int = 20 * MILLISECONDS

    # Workload.
    #: The declarative traffic description (arrival processes, body
    #: mixes, MEV bots — see :class:`repro.workload.spec.WorkloadSpec`).
    #: ``None`` falls back to the legacy closed-loop knobs below.
    workload: Optional[WorkloadSpec] = None
    clients_per_node: int = 1
    client_window: int = 50
    duration_us: int = 5 * SECONDS

    # Chaos engineering: an optional fault schedule (lossy links plus
    # crash/recover events) and the reliable channel layer that lets the
    # protocol survive it.  Plans are pure data, so sweep cells can grid
    # over fault schedules like any other parameter.
    fault_plan: Optional[FaultPlan] = None
    reliable_channels: bool = False

    # Adversarial replicas: pid -> attack spec (a registry name, or
    # {"name": ..., "kwargs": {...}}), checked against
    # ``repro.attacks.registry.ATTACK_NODE_CLASSES`` at construction and
    # stored as {"name", "kwargs"}.  Serialisable, so attack experiments
    # and fuzzer schedules (which are configs) ride the sweep cache like
    # any other knob.  This is the only way to put an attack replica in a
    # cluster; ``check_cell`` refuses a class of another protocol.
    attack_nodes: Optional[Dict[int, Any]] = None
    #: Commit-protocol report quorum override (``None`` = the safe 2f+1).
    #: A deliberately weakenable validation knob for the attack corpus —
    #: see :class:`repro.core.commit.CommitConfig.report_quorum`.
    report_quorum: Optional[int] = None

    # Cost model scaling (1.0 = DESIGN.md §5 calibration, 0 = free crypto).
    cpu_cost_scale: float = 1.0

    # Observability, one switch (Lyra only): span tracing (proposed →
    # decided → committed → executed per instance, read via
    # ``cluster.trace``), per-link wire stats, and the counter snapshot
    # in ``ExperimentResult.metrics``.  Off by default; it perturbs no
    # RNG stream or event timing, so enabling it leaves decided prefixes
    # bit-identical.
    tracing: bool = False

    def __post_init__(self) -> None:
        # Periods must be positive (a timer re-armed at the same instant
        # never lets the clock advance) and delays non-negative.
        for name, value, floor in (
            ("batch_size", self.batch_size, 1),
            ("batch_timeout_us", self.batch_timeout_us, 1),
            ("status_interval_us", self.status_interval_us, 1),
            ("lambda_us", self.lambda_us, 0),
            ("delta_us", self.delta_us, 0),
            ("uniform_delay_us", self.uniform_delay_us or 0, 0),
            ("clock_skew_max_us", self.clock_skew_max_us, 0),
            ("jitter", self.jitter, 0),
            ("warmup_spacing_us", self.warmup_spacing_us, 0),
            ("duration_us", self.duration_us, 1),
            ("clients_per_node", self.clients_per_node, 0),
            ("client_window", self.client_window, 1),
            ("warmup_rounds", self.warmup_rounds, 0),
        ):
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if self.attack_nodes:
            self.attack_nodes = self._checked_attack_nodes()

    def _checked_attack_nodes(self) -> Dict[int, Dict[str, Any]]:
        """``attack_nodes`` in canonical form (int pids in order, every
        spec ``{"name", "kwargs"}``), or ``ValueError`` for a spec the
        registry cannot build: an unknown name, a pid outside
        ``0..n_nodes-1``, or a key besides ``name``/``kwargs``.  The
        registry is imported here only, so configs without attackers
        never load it."""
        from repro.attacks.registry import ATTACK_NODE_CLASSES

        checked: Dict[int, Dict[str, Any]] = {}
        for raw_pid, spec in self.attack_nodes.items():
            pid = int(raw_pid)
            if not 0 <= pid < self.n_nodes:
                raise ValueError(
                    f"attack_nodes targets unknown pid {pid} (n={self.n_nodes})"
                )
            if isinstance(spec, str):
                spec = {"name": spec}
            if not isinstance(spec, dict) or set(spec) - {"name", "kwargs"}:
                raise ValueError(
                    f"attack_nodes[{pid}] must be a registry name or "
                    f"{{'name', 'kwargs'}}, got {spec!r}"
                )
            name = spec.get("name")
            if not isinstance(name, str) or name not in ATTACK_NODE_CLASSES:
                raise ValueError(
                    f"unknown attack node class {name!r}; known: "
                    f"{sorted(ATTACK_NODE_CLASSES)}"
                )
            checked[pid] = {"name": name, "kwargs": dict(spec.get("kwargs") or {})}
        return dict(sorted(checked.items()))

    def resolved_f(self) -> int:
        if self.f is not None:
            if self.n_nodes <= 3 * self.f:
                raise ValueError(f"n={self.n_nodes} does not tolerate f={self.f}")
            return self.f
        return max(0, (self.n_nodes - 1) // 3)

    def client_start_us(self) -> int:
        """Clients start once distance warm-up has converged.

        Delegates to :func:`repro.core.node.warmup_duration_us` so the
        harness gate and ``LyraConfig.warmup_duration_us`` can never
        drift apart again.
        """
        return warmup_duration_us(self.warmup_rounds, self.warmup_spacing_us)

    def measurement_start_us(self) -> int:
        """Measurement starts after clients have ramped up: the first
        second of client traffic (pipeline fill) is skipped."""
        return self.client_start_us() + 1 * SECONDS

    def resolved_workload(self) -> WorkloadSpec:
        """The effective :class:`WorkloadSpec` of this run.

        An explicit ``workload`` wins; otherwise the legacy knobs
        (``clients_per_node`` / ``client_window``) are shimmed into an
        equivalent spec that reproduces the historical client rig
        bit-for-bit.
        """
        if self.workload is not None:
            return self.workload
        return WorkloadSpec.from_legacy(
            clients_per_node=self.clients_per_node,
            client_window=self.client_window,
        )

    # ------------------------------------------------------------------
    # Serialization — sweep cells cross process boundaries and are cached
    # on disk keyed by a content hash of this exact representation.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (round-trips via from_dict)."""
        data = asdict(self)
        data["regions"] = list(self.regions)
        data["fault_plan"] = (
            self.fault_plan.to_dict() if self.fault_plan is not None else None
        )
        data["workload"] = (
            self.workload.to_dict() if self.workload is not None else None
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output; unknown keys are
        rejected so stale cache entries fail loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields: {sorted(unknown)}")
        data = dict(data)
        if data.get("fault_plan") is not None and not isinstance(
            data["fault_plan"], FaultPlan
        ):
            data["fault_plan"] = FaultPlan.from_dict(data["fault_plan"])
        if data.get("workload") is not None and not isinstance(
            data["workload"], WorkloadSpec
        ):
            data["workload"] = WorkloadSpec.from_dict(data["workload"])
        return cls(**data)


def closed_loop_config(
    n_nodes: int,
    seed: int,
    duration_us: int,
    *,
    warmup_rounds: int = 2,
    **overrides: Any,
) -> ExperimentConfig:
    """The closed-loop rig the ablations and the bench rows share: batches
    of 10, one closed-loop client per node with window 5, and warm-up
    rounds 150 ms apart.  ``overrides`` sets any other field."""
    return ExperimentConfig(
        n_nodes=n_nodes,
        seed=seed,
        batch_size=10,
        clients_per_node=1,
        client_window=5,
        duration_us=duration_us,
        warmup_rounds=warmup_rounds,
        warmup_spacing_us=150 * MILLISECONDS,
        **overrides,
    )


__all__ = ["ExperimentConfig", "closed_loop_config"]
