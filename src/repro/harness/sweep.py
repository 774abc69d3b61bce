"""Parallel experiment sweeps with content-addressed result caching.

The paper's evaluation is a grid of (protocol, n, batch, λ, seed) cells.
This module fans such a grid out across CPU cores and persists every
finished cell on disk, keyed by a content hash of the resolved
:class:`~repro.harness.config.ExperimentConfig` plus protocol name — so
re-running a sweep (or resuming an interrupted one) only executes the
cells that are missing.

Guarantees:

- **Determinism** — each cell is seeded solely by its config, so the same
  grid yields byte-identical per-cell results at any worker count (and
  whether a cell came from the cache or a fresh run).
- **Isolation** — a cell that raises is reported as a failed record; the
  rest of the grid still completes.
- **Resumability** — each successful cell is one JSONL file
  ``<cache_dir>/<content-hash>.jsonl``; re-invoking the sweep skips them.

Typical use::

    from repro.harness import ExperimentConfig
    from repro.harness.sweep import grid_cells, run_sweep

    cells = grid_cells(
        ExperimentConfig(duration_us=3_000_000),
        protocols=("lyra", "pompe"),
        seeds=(1, 2),
        n_nodes=[4, 7, 10],
    )
    report = run_sweep(cells, workers=4, cache_dir="results/sweep-cache")
    for record in report.records:
        print(record.protocol, record.config["n_nodes"], record.result.throughput_tps)
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.crypto.hashing import digest_of
from repro.harness.cluster import ExperimentResult, check_cell
from repro.harness.config import ExperimentConfig

#: Bump when the cache record layout (or anything that changes simulated
#: results) becomes incompatible; old entries are then ignored, not misread.
#: Schema 2: canonical same-instant delivery ordering (deliveries run at
#: priority src+1) and per-source jitter streams — every digest changed —
#: plus the ``dissemination``/``fanout`` config knobs (hashed via
#: ``config.to_dict()`` like every other field).
#: Schema 3: ``ExperimentConfig`` dropped three fields; records written
#: with them would fail ``from_dict``'s unknown-field check.
#: Schema 4: Pompē runs on the shared cluster, so its results now carry
#: the watchdog's ``invariant_checks``, ``fault_stats`` and an
#: ordered-output safety check.
#: Schema 5: ``ExperimentConfig`` dropped ``rate_bps``,
#: ``gossip_spacing_us`` and ``check_dealing``.
#: Schema 6: ``ExperimentConfig`` dropped the two link-level frame
#: bundling fields, and the delta-report switch became a plain ``bool``.
#: Schema 7: ``ExperimentConfig`` dropped ``metrics`` (``tracing`` is the
#: one observability switch).
#: Schema 8: ``ExperimentConfig`` dropped ``gst_us``/``adversary_max_delay_us``; ``FaultPlan``/``LinkFault`` gained fields.
#: Schema 9: ``ExperimentConfig`` dropped the delta-report switch (Lyra
#: sends one full Algorithm-4 report format).
#: Schema 10: ``ExperimentConfig`` dropped ``distance_mode``,
#: ``gossip_fanout`` and ``gossip_rounds`` (Lyra learns distances from the
#: warm-up probes only), and HotStuff hands decided blocks over by height,
#: which changes Pompē and Fino runs whose decides arrive out of order.
#: Schema 11: ``ExperimentConfig`` dropped ``dissemination``, ``fanout``
#: and ``measure_after_us``, and ``ExperimentResult`` dropped ``wire_stats``.
#: Schema 12: ``ExperimentResult`` dropped ``per_instance_profile``, and
#: the watchdog and the end-of-run safety check cover correct replicas
#: only (attack replicas are left out and counted against ``f``).
#: Schema 13: a traced result's ``metrics`` carries the proposer-side
#: phase decomposition under ``"phases"``, and the instance and execution
#: counts cover correct replicas only.
CACHE_SCHEMA = 13


# ----------------------------------------------------------------------
# Cells and content addressing
# ----------------------------------------------------------------------
def cell_key(config: ExperimentConfig, protocol: str) -> str:
    """Content hash of one (protocol, resolved config) sweep cell."""
    payload = {
        "schema": CACHE_SCHEMA,
        "protocol": protocol.lower(),
        "config": config.to_dict(),
    }
    return digest_of(payload).hex()


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a protocol plus a fully resolved config."""

    protocol: str
    config: ExperimentConfig

    @property
    def key(self) -> str:
        return cell_key(self.config, self.protocol)


def grid_cells(
    base: Optional[ExperimentConfig] = None,
    *,
    protocols: Sequence[str] = ("lyra",),
    seeds: Optional[Sequence[int]] = None,
    **axes: Sequence[Any],
) -> List[SweepCell]:
    """Cartesian grid of cells around ``base``.

    Each keyword argument names an :class:`ExperimentConfig` field and
    supplies the values to sweep; ``protocols`` and ``seeds`` multiply the
    grid.  Cell order (and therefore progress reporting) is deterministic:
    protocols × seeds × axes in the given order.  Per-cell seeding is by
    construction deterministic — the seed is part of the cell's config,
    never derived from execution order.  Every cell passes
    :func:`~repro.harness.cluster.check_cell` here, so a grid with a cell
    no cluster can run raises ``ValueError`` before any cell runs.
    """
    base = base if base is not None else ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(axes) - known
    if unknown:
        raise ValueError(f"unknown ExperimentConfig axes: {sorted(unknown)}")
    seed_values: Sequence[int] = seeds if seeds is not None else (base.seed,)
    names = list(axes)
    cells: List[SweepCell] = []
    for protocol in protocols:
        for seed in seed_values:
            for combo in itertools.product(*(axes[name] for name in names)):
                overrides = dict(zip(names, combo))
                overrides["seed"] = seed
                config = replace(base, **overrides)
                check_cell(config, protocol)
                cells.append(SweepCell(protocol, config))
    return cells


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class CellRecord:
    """Outcome of one cell: a result, or a contained failure."""

    key: str
    protocol: str
    config: Dict[str, Any]
    status: str  # "ok" | "error"
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    cached: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA,
            "key": self.key,
            "protocol": self.protocol,
            "config": self.config,
            "status": self.status,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "traceback": self.traceback,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CellRecord":
        result = data.get("result")
        return cls(
            key=data["key"],
            protocol=data["protocol"],
            config=data["config"],
            status=data["status"],
            result=ExperimentResult.from_dict(result) if result else None,
            error=data.get("error"),
            traceback=data.get("traceback"),
            elapsed_s=data.get("elapsed_s", 0.0),
        )


@dataclass
class SweepReport:
    """Everything one :func:`run_sweep` invocation produced."""

    records: List[CellRecord]
    executed: int = 0  # cells actually simulated by this invocation
    cache_hits: int = 0
    failures: int = 0

    def ok_records(self) -> List[CellRecord]:
        return [r for r in self.records if r.ok]

    def failed_records(self) -> List[CellRecord]:
        return [r for r in self.records if not r.ok]

    def results(self) -> List[ExperimentResult]:
        return [r.result for r in self.records if r.result is not None]


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.jsonl"


def load_cached_record(cache_dir: Path, key: str) -> Optional[CellRecord]:
    """Load a cell's cached record; None if absent, stale, or unreadable."""
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
        data = json.loads(line)
    except (OSError, ValueError):
        return None
    if data.get("schema") != CACHE_SCHEMA or data.get("status") != "ok":
        return None
    try:
        record = CellRecord.from_json_dict(data)
    except (KeyError, TypeError, ValueError):
        return None
    record.cached = True
    return record


def store_record(cache_dir: Path, record: CellRecord) -> None:
    """Persist one successful cell as a single-line JSONL file, atomically
    (interrupted sweeps never leave half-written entries)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, record.key)
    tmp = path.with_suffix(".jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_cell(payload: Tuple[int, str, Dict[str, Any]]):
    """Worker entry point: run one cell from plain data (must stay at
    module top level so the multiprocessing pool can pickle it)."""
    index, protocol, config_dict = payload
    started = time.perf_counter()
    try:
        # Imported here (not at module import) so worker start-up cost is
        # paid once per process, and a fork-started worker reuses the parent.
        from repro.harness.factory import build_cluster

        config = ExperimentConfig.from_dict(config_dict)
        cluster = build_cluster(config, protocol=protocol)
        result = cluster.run()
        return index, {
            "status": "ok",
            "result": result.to_dict(),
            "elapsed_s": time.perf_counter() - started,
        }
    except Exception as exc:  # crash-in-one-cell isolation
        return index, {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "elapsed_s": time.perf_counter() - started,
        }


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Progress hook: (record, done_count, total_count) -> None.
ProgressHook = Callable[[CellRecord, int, int], None]


def run_sweep(
    cells: Sequence[SweepCell],
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    force: bool = False,
    progress: Optional[ProgressHook] = None,
) -> SweepReport:
    """Run a grid of cells, in parallel, against the cache.

    ``workers=1`` runs serially in-process; higher counts fan the
    non-cached cells out over a process pool.  Results are identical at
    any worker count.  With ``cache_dir`` set, cached cells are returned
    without executing any simulation and fresh cells are persisted;
    ``force=True`` ignores (and overwrites) existing entries.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cache = Path(cache_dir) if cache_dir else None
    report = SweepReport(records=[None] * len(cells))  # type: ignore[list-item]
    done = 0

    def _finish(index: int, record: CellRecord) -> None:
        nonlocal done
        done += 1
        report.records[index] = record
        if record.cached:
            report.cache_hits += 1
        elif record.ok:
            report.executed += 1
        if not record.ok:
            report.failures += 1
        if progress is not None:
            progress(record, done, len(cells))

    # Cache pass: satisfy whatever is already on disk.
    pending: List[Tuple[int, SweepCell, str]] = []
    for index, cell in enumerate(cells):
        key = cell.key
        if cache is not None and not force:
            record = load_cached_record(cache, key)
            if record is not None:
                _finish(index, record)
                continue
        pending.append((index, cell, key))

    def _record_outcome(index: int, cell: SweepCell, key: str, outcome: Dict) -> None:
        record = CellRecord(
            key=key,
            protocol=cell.protocol,
            config=cell.config.to_dict(),
            status=outcome["status"],
            result=(
                ExperimentResult.from_dict(outcome["result"])
                if outcome.get("result")
                else None
            ),
            error=outcome.get("error"),
            traceback=outcome.get("traceback"),
            elapsed_s=outcome.get("elapsed_s", 0.0),
        )
        if cache is not None and record.ok:
            store_record(cache, record)
        _finish(index, record)

    payloads = [
        (index, cell.protocol, cell.config.to_dict())
        for index, cell, _ in pending
    ]
    by_index = {index: (cell, key) for index, cell, key in pending}

    if workers == 1 or len(pending) <= 1:
        for payload in payloads:
            index, outcome = _execute_cell(payload)
            cell, key = by_index[index]
            _record_outcome(index, cell, key, outcome)
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=min(workers, len(pending))) as pool:
            for index, outcome in pool.imap_unordered(_execute_cell, payloads):
                cell, key = by_index[index]
                _record_outcome(index, cell, key, outcome)

    return report


def sweep_workers(default: int = 1) -> int:
    """Worker count for harness-internal sweeps: the ``REPRO_WORKERS``
    environment variable, else ``default``."""
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", default)))
    except ValueError:
        return default


def sweep_cache_dir() -> Optional[str]:
    """Cache directory for harness-internal sweeps: ``REPRO_CACHE`` if set."""
    value = os.environ.get("REPRO_CACHE", "").strip()
    return value or None


__all__ = [
    "CACHE_SCHEMA",
    "SweepCell",
    "CellRecord",
    "SweepReport",
    "cell_key",
    "grid_cells",
    "run_sweep",
    "load_cached_record",
    "store_record",
    "sweep_workers",
    "sweep_cache_dir",
]
