"""Reproducible performance benchmarks: ``python -m repro bench``.

The suite establishes the repo's perf trajectory: every PR can run the same
fixed micro/macro cells and compare events/sec, cache hit rates, and the
decided-prefix digest against a checked-in baseline (``BENCH_<date>.json``).
"""

from repro.bench.suite import (
    BENCH_SCHEMA_VERSION,
    check_against_baseline,
    check_gossip_distance,
    default_output_path,
    environment_block,
    run_bench_suite,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "run_bench_suite",
    "check_against_baseline",
    "check_gossip_distance",
    "default_output_path",
    "environment_block",
]
