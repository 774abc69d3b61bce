"""Seeded adversarial-schedule fuzzer.

A fuzz schedule is a plain :class:`~repro.harness.config.ExperimentConfig`
built by :func:`fuzz_config`: which replicas run which attack behaviour
(``attack_nodes``, names from :mod:`repro.attacks.registry`), the
link-fault and crash schedule (``fault_plan``), and the protocol knobs that
shape the attack surface (``reliable_channels``, the weakened
``report_quorum``).  It serialises through ``to_dict``/``from_dict`` like
every other run and replays bit-identically: :func:`run_schedule` returns
the same row record as every ``repro bench`` row, so a replay is checked
by the same per-row comparison (:func:`repro.bench.suite.check_row`).

:func:`generate_schedule` is a pure function of the seed: the same seed
always yields the same schedule, and generated schedules always respect
the resilience bound (attackers plus simultaneously-crashed replicas stay
within f), so any invariant violation they produce is a reproduction bug,
not an over-budget adversary.  Seeds 0-14 are pinned rows of
:data:`repro.bench.suite.CELLS` (``fuzz_<seed>``).

:func:`shrink_schedule` bisects a failing schedule ddmin-style over its
components (attack entries, link faults, crash events) to a minimal
still-failing repro — the artifact ``python -m repro fuzz`` saves on
violation.

The oracle is the cluster's own: the always-on
:class:`~repro.metrics.invariants.InvariantWatchdog` (prefix agreement,
commit regression, ordered output, post-GST liveness, and Lemma 7's
``reveal-before-commit``) and the end-of-run safety check.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.config import ExperimentConfig
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.sim.rng import RngRegistry
from repro.workload.spec import ClientGroup, WorkloadSpec


def fuzz_config(
    seed: int,
    *,
    n_nodes: int = 4,
    duration_us: int = 3 * SECONDS,
    batch_size: int = 8,
    window: int = 4,
    **knobs: Any,
) -> ExperimentConfig:
    """The rig every fuzz schedule and corpus case runs on: batches of 8,
    one closed-loop client per replica with window 4, two warm-up rounds.
    ``knobs`` sets the attack surface (``attack_nodes``, ``fault_plan``,
    ``reliable_channels``, ``report_quorum``)."""
    return ExperimentConfig(
        n_nodes=n_nodes,
        seed=seed,
        batch_size=batch_size,
        workload=WorkloadSpec(
            groups=(ClientGroup(name="main", count_per_node=1, window=window),),
            fairness=False,
        ),
        duration_us=duration_us,
        warmup_rounds=2,
        **knobs,
    )


# ----------------------------------------------------------------------
# Schedule generation: a pure function of the seed.
# ----------------------------------------------------------------------

#: The attack menu the generator draws from: (name, kwargs builder).
def _attack_menu(
    rng, n_nodes: int
) -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    victims = lambda: [int(rng.integers(0, n_nodes))]
    return [
        ("selective-reveal", lambda: {"mode": "withhold"}),
        ("selective-reveal", lambda: {"mode": "delay",
                                      "delay_us": int(rng.integers(50, 600)) * 1000}),
        ("selective-reveal", lambda: {"mode": "targeted", "victims": victims()}),
        ("piggyback-forgery", lambda: {"mode": "stale"}),
        ("piggyback-forgery", lambda: {"mode": "inflate"}),
        ("prefix-staller", lambda: {}),
        ("cipher-replay", lambda: {}),
        ("piggyback-forgery", lambda: {"mode": "equivocate"}),
    ]


def generate_schedule(
    seed: int, *, n_nodes: int = 4, duration_us: int = 3 * SECONDS
) -> ExperimentConfig:
    """Deterministically derive an honest-majority adversarial schedule.

    Pure in ``seed`` (plus the explicit shape arguments): the same inputs
    always return the same schedule.  Attackers and simultaneous crashes
    jointly stay within the resilience bound f — crashes either hit an
    attacker pid (no extra slot consumed) or draw from the remaining
    honest budget.
    """
    rng = RngRegistry(seed).get("fuzz", "schedule")
    f = max(0, (n_nodes - 1) // 3)
    # The retired delta-piggyback coin: still drawn so every later draw
    # keeps its value and the schedules that never drew delta stay pinned.
    rng.integers(0, 2)

    # Attackers: 0..f replicas, distinct pids, behaviours off the menu.
    n_attackers = int(rng.integers(0, f + 1))
    attacker_pids = sorted(
        int(p) for p in rng.choice(n_nodes, size=n_attackers, replace=False)
    )
    menu = _attack_menu(rng, n_nodes)
    attacks = {}
    for pid in attacker_pids:
        name, kw = menu[int(rng.integers(0, len(menu)))]
        attacks[pid] = {"name": name, "kwargs": kw()}

    # Link faults: 0..2 windowed rules at moderate rates.
    links: List[LinkFault] = []
    for _ in range(int(rng.integers(0, 3))):
        start = int(rng.integers(0, max(1, duration_us // 2)))
        end = start + int(rng.integers(200, 1500)) * MILLISECONDS
        links.append(
            LinkFault(
                drop_rate=float(rng.random()) * 0.15,
                duplicate_rate=float(rng.random()) * 0.08,
                reorder_rate=float(rng.random()) * 0.15,
                corrupt_rate=float(rng.random()) * 0.04,
                start_us=start,
                end_us=min(end, duration_us),
            )
        )

    # Crashes: within the joint budget.  Crashing an attacker consumes no
    # extra slot; otherwise draw from the leftover honest budget.
    crashes: List[CrashEvent] = []
    spare = f - n_attackers
    if rng.random() < 0.5 and (spare > 0 or attacker_pids):
        if spare > 0 and (not attacker_pids or rng.random() < 0.7):
            candidates = [p for p in range(n_nodes) if p not in attacker_pids]
            pid = int(candidates[int(rng.integers(0, len(candidates)))])
        else:
            pid = int(attacker_pids[int(rng.integers(0, len(attacker_pids)))])
        crash_at = int(rng.integers(500, max(501, duration_us // MILLISECONDS - 1200)))
        crash_at *= MILLISECONDS
        recover_at = (
            crash_at + int(rng.integers(300, 1000)) * MILLISECONDS
            if rng.random() < 0.8
            else None
        )
        crashes.append(
            CrashEvent(pid=pid, crash_at_us=crash_at, recover_at_us=recover_at)
        )

    plan = FaultPlan(links=tuple(links), crashes=tuple(crashes))
    return fuzz_config(
        seed,
        n_nodes=n_nodes,
        duration_us=duration_us,
        attack_nodes=attacks or None,
        fault_plan=None if plan.empty else plan,
        reliable_channels=bool(links),
    )


# ----------------------------------------------------------------------
# Running a schedule.
# ----------------------------------------------------------------------
def run_schedule(schedule: ExperimentConfig) -> Dict[str, Any]:
    """Run the schedule under Lyra and return its row record
    (:func:`repro.bench.suite.run_row`): the decided-prefix digest, the
    counts ``check_row`` compares, and the oracle's findings."""
    from repro.bench.suite import run_row

    return run_row(schedule, "lyra")


def is_clean(row: Dict[str, Any]) -> bool:
    """The oracle's verdict on a row: no invariant or safety violation."""
    return not row["invariant_violations"] and row["safety_violation"] is None


# ----------------------------------------------------------------------
# Shrinking: ddmin-style schedule bisection.
# ----------------------------------------------------------------------
def _components(schedule: ExperimentConfig) -> List[Tuple[str, Any]]:
    plan = schedule.fault_plan or FaultPlan()
    out: List[Tuple[str, Any]] = []
    out.extend(("attack", item) for item in (schedule.attack_nodes or {}).items())
    out.extend(("link", lf) for lf in plan.links)
    out.extend(("crash", ce) for ce in plan.crashes)
    return out


def _rebuild(
    schedule: ExperimentConfig, comps: List[Tuple[str, Any]]
) -> ExperimentConfig:
    def kept(kind: str) -> tuple:
        return tuple(c for k, c in comps if k == kind)

    gst_us = (schedule.fault_plan or FaultPlan()).gst_us
    plan = FaultPlan(links=kept("link"), crashes=kept("crash"), gst_us=gst_us)
    return dataclasses.replace(
        schedule,
        attack_nodes=dict(kept("attack")) or None,
        fault_plan=None if plan.empty else plan,
    )


def shrink_schedule(
    schedule: ExperimentConfig,
    failing: Optional[Callable[[ExperimentConfig], bool]] = None,
    *,
    max_runs: int = 64,
) -> ExperimentConfig:
    """Bisect a failing schedule to a minimal still-failing repro.

    ``failing(schedule)`` must return True while the schedule still
    trips the oracle (default: re-run it).  Removal works ddmin-style
    over the schedule's components — ``attack_nodes`` entries, and the
    ``fault_plan``'s link faults and crash events — halving chunks first,
    then single components.  Every other field (``report_quorum``,
    ``reliable_channels``, ...) is preserved: knobs are part of the repro,
    not removable noise.
    """
    if failing is None:
        failing = lambda s: not is_clean(run_schedule(s))
    comps = _components(schedule)
    current = schedule
    runs = 0
    gran = 2
    while comps and runs < max_runs:
        chunk = max(1, len(comps) // gran)
        reduced = False
        for i in range(0, len(comps), chunk):
            candidate = comps[:i] + comps[i + chunk:]
            if len(candidate) == len(comps):
                continue
            trial = _rebuild(schedule, candidate)
            runs += 1
            if failing(trial):
                comps = candidate
                current = trial
                gran = max(2, gran - 1)
                reduced = True
                break
            if runs >= max_runs:
                break
        if not reduced:
            if chunk == 1:
                break
            gran = min(max(1, len(comps)), gran * 2)
    return current


__all__ = [
    "fuzz_config",
    "generate_schedule",
    "is_clean",
    "run_schedule",
    "shrink_schedule",
]
