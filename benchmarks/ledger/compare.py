"""Compare two ledger reports, one row per (end-to-end metric, workload).

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the parent, ``B`` the change.  Each row reads ``better``,
``worse``, ``unchanged`` or ``unresolved`` against the metric's bound in
``BENCHMARK.json``: a move smaller than the bound is ``unchanged``; when
either side's own quartile spread is wider than the bound the row is
``unresolved``, never ``unchanged``.  Reports from different environments
or seeds, or whose workload digests differ, are refused.  Exit status is non-zero on any
``worse`` row or any rise in ``ops_failed / ops_attempted``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: ``setup_s`` differences below this many seconds are noise, whatever the ratio.
SETUP_ABS_FLOOR_S = 0.1


def _spread(row: Dict[str, float]) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def verdict(metric: Dict[str, Any], a: Dict[str, float], b: Dict[str, float]) -> Tuple[str, float]:
    """``(verdict, worsening)`` — worsening is the relative move of ``b``
    against ``a`` in the metric's bad direction (negative = improved)."""
    base = a["value"]
    move = (b["value"] - base) / base if base else 0.0
    worsening = move if metric["better"] == "lower" else -move
    if metric["name"] == "setup_s" and abs(b["value"] - base) < SETUP_ABS_FLOOR_S:
        return "unchanged", worsening
    if max(_spread(a), _spread(b)) > metric["bound"]:
        return "unresolved", worsening
    if worsening > metric["bound"]:
        return "worse", worsening
    if worsening < -metric["bound"]:
        return "better", worsening
    return "unchanged", worsening


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why the two reports cannot be compared, or ``None`` if they can."""
    if a["environment"]["fingerprint"] != b["environment"]["fingerprint"]:
        return (
            "environment fingerprints differ "
            f"({a['environment']['fingerprint']} vs {b['environment']['fingerprint']}): "
            "host times from different hosts are not comparable"
        )
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        return "seed or smoke flag differ: the inputs are not the same"
    if set(a["workloads"]) != set(b["workloads"]):
        return "the reports cover different workloads"
    for name, record in a["workloads"].items():
        other = b["workloads"][name]["digest"]
        if record["digest"] != other:
            return (
                f"{name}: decided-prefix digests differ ({record['digest'][:12]} vs "
                f"{other[:12]}): the two sides did not run the same execution"
            )
    return None


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Table lines and whether the comparison passes."""
    lines = [
        f"{'workload':<20}{'metric':<28}{'A':>14}{'B':>14}{'worse by':>10}  verdict"
    ]
    ok = True
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ra, rb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            word, worsening = verdict(metric, ra, rb)
            ok = ok and word != "worse"
            lines.append(
                f"{name:<20}{metric['name']:<28}{ra['value']:>14.4f}{rb['value']:>14.4f}"
                f"{worsening:>+10.1%}  {word}"
            )
        fa = wa["ops_failed"] / max(1, wa["ops_attempted"])
        fb = wb["ops_failed"] / max(1, wb["ops_attempted"])
        rose = fb > fa
        ok = ok and not rose
        lines.append(
            f"{name:<20}{'ops_failed/ops_attempted':<28}"
            f"{wa['ops_failed']:>7}/{wa['ops_attempted']:<6}{wb['ops_failed']:>7}/{wb['ops_attempted']:<6}"
            f"{'':>10}  {'ROSE' if rose else 'ok'}"
        )
    return lines, ok


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="parent report")
    ap.add_argument("b", help="change report")
    args = ap.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    reason = comparable(a, b)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    lines, ok = compare(a, b, spec)
    print("\n".join(lines))
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
