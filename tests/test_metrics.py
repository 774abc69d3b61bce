"""Tests for metrics: latency stats and the Fig. 3 capacity model's
paper-shape properties."""

import pytest

from repro.metrics.capacity import (
    CapacityInputs,
    lyra_capacity,
    lyra_instance_profile,
    pompe_capacity,
    pompe_cert_profile,
)
from repro.metrics.stats import LatencySummary, percentile, summarize_latencies

PAPER_NS = [5, 10, 16, 31, 61, 100]


def f_of(n):
    return (n - 1) // 3


class TestStats:
    def test_empty_summary(self):
        s = summarize_latencies([])
        assert s.count == 0 and s.mean == 0.0

    def test_basic_summary(self):
        s = summarize_latencies([100.0, 200.0, 300.0])
        assert s.count == 3
        assert s.mean == 200.0
        assert s.p50 == 200.0
        assert s.maximum == 300.0

    def test_percentile_helper(self):
        assert percentile([], 50) == 0.0
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_ms_properties_and_row(self):
        s = summarize_latencies([1000.0])
        assert s.mean_ms == 1.0
        assert "mean=1.0ms" in s.row()


class TestCapacityShape:
    """Fig. 3's qualitative claims as assertions on the model."""

    def test_lyra_throughput_rises_with_n(self):
        values = [lyra_capacity(n, f_of(n))[0] for n in PAPER_NS]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pompe_decays_at_scale(self):
        p61 = pompe_capacity(61, f_of(61))[0]
        p100 = pompe_capacity(100, f_of(100))[0]
        p16 = pompe_capacity(16, f_of(16))[0]
        assert p100 < p61 < p16

    def test_pompe_wins_at_small_n(self):
        for n in (5, 10, 16):
            assert pompe_capacity(n, f_of(n))[0] > lyra_capacity(n, f_of(n))[0]

    def test_lyra_wins_at_large_n(self):
        for n in (61, 100):
            assert lyra_capacity(n, f_of(n))[0] > pompe_capacity(n, f_of(n))[0]

    def test_ratio_at_100_matches_paper_factor(self):
        lyra, _ = lyra_capacity(100, 33)
        pompe, _ = pompe_capacity(100, 33)
        assert 5.0 <= lyra / pompe <= 10.0  # paper: "up to 7 times"

    def test_lyra_240k_at_100(self):
        lyra, bound = lyra_capacity(100, 33)
        assert 200_000 <= lyra <= 280_000  # paper: 240k tx/s
        assert bound == "replica-cpu"

    def test_pompe_bottleneck_is_leader_at_scale(self):
        _, bound = pompe_capacity(100, 33)
        assert bound.startswith("leader")

    def test_nic_scaling_moves_pompe_ceiling(self):
        slow = pompe_capacity(100, 33, CapacityInputs(nic_bps=1e8))[0]
        fast = pompe_capacity(100, 33, CapacityInputs(nic_bps=1e10))[0]
        assert fast > slow

    def test_batch_amortisation(self):
        small = lyra_capacity(100, 33, CapacityInputs(batch_size=50))[0]
        large = lyra_capacity(100, 33, CapacityInputs(batch_size=800))[0]
        assert large >= small

    def test_profiles_scale_with_n(self):
        inputs = CapacityInputs()
        small = lyra_instance_profile(10, 3, inputs)
        large = lyra_instance_profile(100, 33, inputs)
        assert large["cpu_us"] > small["cpu_us"]
        assert large["ingress_bytes"] > small["ingress_bytes"]
        ps = pompe_cert_profile(10, 3, inputs)
        pl = pompe_cert_profile(100, 33, inputs)
        assert pl["leader_egress_bytes"] > ps["leader_egress_bytes"]
        assert pl["replica_cpu_us"] > ps["replica_cpu_us"]


class TestLoadedLatencyModel:
    """The FIG2 queueing extension: Pompē's large leader quantum queues at
    saturation; Lyra's small per-instance quantum does not."""

    def test_lyra_queueing_negligible(self):
        from repro.metrics.capacity import lyra_loaded_latency_us

        base = 700_000.0
        loaded = lyra_loaded_latency_us(100, 33, base)
        assert loaded - base < 50_000  # < 50 ms of queueing

    def test_pompe_queueing_dominates_at_scale(self):
        from repro.metrics.capacity import pompe_loaded_latency_us

        base = 660_000.0
        small = pompe_loaded_latency_us(10, 3, base)
        large = pompe_loaded_latency_us(100, 33, base)
        assert large > small
        assert large - base > 300_000  # hundreds of ms of leader queueing

    def test_loaded_ratio_grows_with_n(self):
        from repro.metrics.capacity import (
            lyra_loaded_latency_us,
            pompe_loaded_latency_us,
        )

        ratios = []
        for n in (10, 31, 61, 100):
            f = (n - 1) // 3
            ratios.append(
                pompe_loaded_latency_us(n, f, 660_000.0)
                / lyra_loaded_latency_us(n, f, 700_000.0)
            )
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.3


class TestCostModel:
    def test_scaled_profile(self):
        from repro.crypto.cost import DEFAULT_COSTS

        double = DEFAULT_COSTS.scaled(2.0)
        assert double.verify_us == 2 * DEFAULT_COSTS.verify_us
        assert double.sign_us == 2 * DEFAULT_COSTS.sign_us

    def test_scaled_rejects_negative(self):
        from repro.crypto.cost import DEFAULT_COSTS

        import pytest as _pytest

        with _pytest.raises(ValueError):
            DEFAULT_COSTS.scaled(-1)

    def test_scaled_zero_is_free(self):
        from repro.crypto.cost import DEFAULT_COSTS, FREE_COSTS

        assert DEFAULT_COSTS.scaled(0) == FREE_COSTS
        assert DEFAULT_COSTS.scaled(1.0) == DEFAULT_COSTS

    def test_hash_cost_scales_with_size(self):
        from repro.crypto.cost import DEFAULT_COSTS

        assert DEFAULT_COSTS.hash_us(10) == DEFAULT_COSTS.hash_per_256b_us
        assert DEFAULT_COSTS.hash_us(1024) == 4 * DEFAULT_COSTS.hash_per_256b_us

    def test_free_costs_all_zero(self):
        from repro.crypto.cost import FREE_COSTS

        assert FREE_COSTS.verify_us == 0
        assert FREE_COSTS.vss_encrypt_us(100) == 0
        assert FREE_COSTS.combine_us(67) == 0


class TestAsciiChart:
    def test_renders_all_series_markers(self):
        from repro.metrics.ascii_chart import render_chart

        out = render_chart(
            {"a": [(0, 0), (10, 10)], "b": [(0, 10), (10, 0)]},
            width=20,
            height=8,
            title="t",
        )
        assert "t" in out
        assert "o a" in out and "x b" in out
        assert "o" in out and "x" in out

    def test_empty_series(self):
        from repro.metrics.ascii_chart import render_chart

        assert render_chart({}) == "(no data)"

    def test_constant_series_no_crash(self):
        from repro.metrics.ascii_chart import render_chart

        out = render_chart({"flat": [(1, 5), (2, 5), (3, 5)]})
        assert "flat" in out

    def test_fig3_chart_from_rows(self):
        from repro.harness.experiments import fig3_throughput
        from repro.metrics.ascii_chart import chart_fig3

        out = chart_fig3(fig3_throughput([5, 100]))
        assert "lyra" in out and "pompe" in out
