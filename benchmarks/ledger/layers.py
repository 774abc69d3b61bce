"""Layer attribution: bucket a ``cProfile`` run into this repo's packages.

The tracer keeps no per-call spans (2 M events x ~5 layer boundaries does
not fit in memory); ``cProfile`` already aggregates self time and call
counts per function, and its callers table says on whose behalf a
builtin/stdlib function ran.  Self time of a function defined under
``repro`` goes to that module's layer; self time of anything else is
charged to the layers of its callers, in proportion to the time each caller
spent in it.  What still has no ``repro`` caller ends up in ``other``.
"""

from __future__ import annotations

import pstats
from typing import Dict, Tuple

LAYERS = (
    "sim",
    "net",
    "crypto",
    "core",
    "core.commit",
    "baselines",
    "workload",
    "metrics",
    "harness",
    "other",
)

#: Algorithm-4 entry points whose call count is ``core.commit.calls``.
COMMIT_ENTRY_POINTS = ("on_status", "on_status_delta", "on_accept")

_PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "crypto": "crypto",
    "core": "core",
    "baselines": "baselines",
    "workload": "workload",
    "metrics": "metrics",
    # Everything that wires or drives a run, not the run itself.
    "harness": "harness",
    "bench": "harness",
    "attacks": "harness",
}

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker) :].split("/")
    if parts == ["core", "commit.py"]:
        return "core.commit"
    # Top-level modules (``repro/__main__.py``) drive runs: harness.
    return _PACKAGE_LAYER.get(parts[0], "harness") if len(parts) > 1 else "harness"


def attribute(profile) -> Dict[str, object]:
    """Aggregate a finished ``cProfile.Profile`` into the layer table.

    Returns ``{"self_s": {layer: seconds}, "commit_calls": int}``; the
    per-layer seconds sum to the profiler's total self time.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner_shares(func: FuncKey, stack: frozenset) -> Dict[str, float]:
        """Who a function's self time belongs to, as layer -> share."""
        cached = owners.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func[0])
        if layer is not None:
            shares = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {
                caller: row[2]
                for caller, row in callers.items()
                if caller not in stack and caller != func
            }
            total = sum(weights.values())
            shares = {}
            if total <= 0:
                # Never entered from measured code (or only recursively):
                # split evenly over whoever called it, else ``other``.
                weights = {caller: 1.0 for caller in weights}
                total = float(len(weights))
            if total <= 0:
                shares = {"other": 1.0}
            else:
                inner = stack | {func}
                for caller, weight in weights.items():
                    for name, share in owner_shares(caller, inner).items():
                        shares[name] = shares.get(name, 0.0) + share * weight / total
        if not stack:
            # Only memoise answers computed without a cycle guard in force.
            owners[func] = shares
        return shares

    self_s = {layer: 0.0 for layer in LAYERS}
    commit_calls = 0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if layer_of(func[0]) == "core.commit" and func[2] in COMMIT_ENTRY_POINTS:
            commit_calls += ncalls
        if tottime <= 0:
            continue
        for layer, share in owner_shares(func, frozenset()).items():
            self_s[layer] += tottime * share
    return {"self_s": self_s, "commit_calls": commit_calls}
