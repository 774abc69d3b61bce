"""Property-based end-to-end tests: SMR safety and lower-boundedness must
hold for *every* seed (random jitter, clock skews, client interleavings),
not just the ones the unit tests happen to pick."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.smr import check_lower_bounded, check_output_sorted
from repro.harness import ExperimentConfig, build_cluster
from repro.net.faults import FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS


def pre_gst_delays(gst_us: int) -> FaultPlan:
    """Every message delayed by up to 400 ms until GST."""
    random_delays = LinkFault(
        reorder_rate=1.0, reorder_delay_us=400 * MILLISECONDS, end_us=gst_us
    )
    return FaultPlan(links=(random_delays,), gst_us=gst_us)


def run_cluster(seed: int, n_nodes: int = 4, gst_ms: int = 0):
    cfg = ExperimentConfig(
        n_nodes=n_nodes,
        seed=seed,
        batch_size=8,
        clients_per_node=1,
        client_window=4,
        duration_us=4 * SECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        jitter=0.03,
        fault_plan=pre_gst_delays(gst_ms * MILLISECONDS) if gst_ms else None,
    )
    cluster = build_cluster(cfg)
    result = cluster.run()
    return cluster, result


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_safety_holds_for_any_seed(seed):
    cluster, result = run_cluster(seed)
    assert result.safety_violation is None, f"seed={seed}: {result.safety_violation}"
    for node in cluster.nodes:
        assert check_output_sorted(node.output_sequence()) is None


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_lower_boundedness_holds_for_any_seed(seed):
    """Definition 6 as a universal property: no committed sequence number
    undercuts any correct replica's perception by more than lambda."""
    cluster, result = run_cluster(seed)
    decided = {}
    for node in cluster.nodes:
        for entry in node.commit.output_log:
            decided[entry.cipher_id] = entry.seq
    perceived = {
        node.pid: dict(node.perceived._perceived) for node in cluster.nodes
    }
    violations = check_lower_bounded(
        decided, perceived, cluster.config.lambda_us
    )
    assert violations == [], f"seed={seed}: {violations}"


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_liveness_holds_for_any_seed(seed):
    _, result = run_cluster(seed)
    assert result.committed_count > 0, f"seed={seed}: nothing committed"


@pytest.mark.slow
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_safety_under_pre_gst_asynchrony(seed):
    """The adversary delays messages arbitrarily for the first second:
    safety must never break (liveness resumes after GST — checked in the
    integration suite with a longer horizon)."""
    cluster, result = run_cluster(seed, gst_ms=1000)
    assert result.safety_violation is None, f"seed={seed}"
