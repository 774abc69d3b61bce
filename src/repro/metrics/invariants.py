"""Always-on invariant watchdog: safety checked *during* the run.

End-of-run oracles (:mod:`repro.core.smr`) catch violations only after the
fact and only in the final state; under chaos schedules a transient
violation (say, a recovered replica briefly exposing a regressed log) can
be masked by later progress.  The :class:`InvariantWatchdog` samples the
cluster on a fixed simulated-time period and records every violation with
its timestamp:

- **prefix agreement** — the committed logs of all currently-up replicas
  are pairwise prefix-ordered (SMR-Safety, via ``check_prefix_consistency``);
- **commit regression** — each replica's committed log only ever grows by
  appending: the log observed at the previous sample must be a prefix of
  the current one (this is what crash recovery must preserve);
- **ordered output** — each log is sorted by decided sequence number;
- **post-GST liveness** — once the network is synchronous and at most
  ``f`` replicas are down, the cluster must keep committing while work is
  pending; a stall longer than ``stall_window_us`` is flagged.

Everything is deterministic: checks run on the simulator clock and the
report renders to a stable string, so the same seed yields byte-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.smr import check_output_sorted, check_prefix_consistency, is_prefix
from repro.sim.engine import MILLISECONDS, Simulator


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation, timestamped in simulated µs."""

    time_us: int
    check: str
    detail: str

    def render(self) -> str:
        return f"[{self.time_us:>12} us] {self.check}: {self.detail}"


@dataclass
class InvariantReport:
    """What the watchdog saw over one run."""

    checks_run: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "checks_run": self.checks_run,
            "ok": self.ok,
            "violations": [
                {"time_us": v.time_us, "check": v.check, "detail": v.detail}
                for v in self.violations
            ],
        }


class InvariantWatchdog:
    """Periodically samples a cluster's replicas and checks invariants.

    ``nodes`` is the list of replica objects; each must expose
    ``output_sequence()``, ``work_pending()``, ``crashed`` and ``pid``
    (every replica class does).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence,
        *,
        f: int,
        interval_us: int = 250 * MILLISECONDS,
        gst_us: int = 0,
        stall_window_us: int = 3_000 * MILLISECONDS,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.f = f
        self.interval_us = interval_us
        self.gst_us = gst_us
        self.stall_window_us = stall_window_us
        self.report = InvariantReport()
        #: Periodic ``_tick`` events processed so far.  Distinct from
        #: ``report.checks_run``, which also counts explicit
        #: ``check_now`` calls.
        self.ticks = 0
        self._last_logs: Dict[int, List[Tuple[int, bytes]]] = {}
        self._last_progress_us = 0
        self._last_total_committed = 0
        # A violation is recorded once, not re-reported on every later tick.
        self._seen: Set[Tuple[str, str]] = set()
        # Pluggable checks (name, fn) run on every sample; fn returns a
        # detail string on violation, None when clean.  The fuzzer wires
        # its commit-reveal secrecy oracle in through this.
        self._extra_checks: List[Tuple[str, Callable[[], Optional[str]]]] = []

    def add_check(self, name: str, fn: Callable[[], Optional[str]]) -> None:
        """Register a custom invariant: ``fn() -> detail | None`` runs on
        every periodic sample and the final end-of-run check."""
        self._extra_checks.append((name, fn))

    def start(self) -> None:
        self.sim.schedule(self.interval_us, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        self.check_now()
        self.sim.schedule(self.interval_us, self._tick)

    def _record(self, check: str, detail: str) -> None:
        key = (check, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.violations.append(
            InvariantViolation(self.sim.now, check, detail)
        )

    def check_now(self) -> None:
        """Run every invariant check against the current cluster state."""
        self.report.checks_run += 1
        now = self.sim.now
        logs = {node.pid: node.output_sequence() for node in self.nodes}
        up = {node.pid for node in self.nodes if not node.crashed}

        # Prefix agreement among currently-up replicas (a crashed replica's
        # last log is stale by definition; it is checked for regression
        # below and re-checked for agreement once it recovers).
        problem = check_prefix_consistency(
            {pid: log for pid, log in logs.items() if pid in up}
        )
        if problem is not None:
            self._record("prefix-agreement", problem)

        for pid in sorted(logs):
            log = logs[pid]
            sorted_problem = check_output_sorted(log)
            if sorted_problem is not None:
                self._record("ordered-output", f"pid {pid}: {sorted_problem}")
            # No commit regression — across crashes and recoveries, the
            # log observed earlier must remain a prefix of the log now.
            last = self._last_logs.get(pid)
            if last is not None and not is_prefix(last, log):
                self._record(
                    "commit-regression",
                    f"pid {pid}: log of length {len(log)} is not an "
                    f"extension of previously observed length {len(last)}",
                )
            self._last_logs[pid] = log

        for name, fn in self._extra_checks:
            detail = fn()
            if detail is not None:
                self._record(name, detail)

        # Post-GST liveness: with ≤ f replicas down and work outstanding,
        # committed totals must keep moving.
        total = sum(len(log) for log in logs.values())
        if total > self._last_total_committed:
            self._last_total_committed = total
            self._last_progress_us = now
            return
        down = len(self.nodes) - len(up)
        if now < self.gst_us or down > self.f:
            self._last_progress_us = now  # liveness not promised here
            return
        if not any(node.work_pending() for node in self.nodes if node.pid in up):
            # Stalls with an empty pipeline are idleness.
            self._last_progress_us = now
            return
        if now - self._last_progress_us > self.stall_window_us:
            # Named by when it started, so one stall is one violation.
            self._record(
                "post-gst-liveness",
                f"no commit progress since {self._last_progress_us} us "
                f"(gst={self.gst_us} us)",
            )


__all__ = ["InvariantWatchdog", "InvariantReport", "InvariantViolation"]
