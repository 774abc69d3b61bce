"""Bit-determinism oracles: ``python -m repro bench``.

One table of every pinned cluster run (``CELLS``): each row records a
sha256 digest of every node's decided prefix and the counts in
``PINNED_FIELDS``; ``check_against_baseline`` compares them with the pins
in ``benchmarks/bench_baseline.json`` and each twin with its base row.
Nothing here is timed — wall-clock performance is measured by the ledger
(``benchmarks/ledger``).
"""

from repro.bench.suite import (
    BENCH_SCHEMA_VERSION,
    CELLS,
    check_against_baseline,
    default_output_path,
    environment_block,
    run_bench_suite,
    write_report,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CELLS",
    "run_bench_suite",
    "check_against_baseline",
    "default_output_path",
    "environment_block",
    "write_report",
]
