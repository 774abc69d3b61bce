"""Robustness of distance prediction to clock skew and drift.

Constant skew cancels out of ``d_ij = seq_j - s_ref`` (§IV-B1); rate drift
does not and slowly erodes prediction accuracy — the continuous probe
refresh and vote piggybacks keep the EWMA tracking it."""

from repro.core.smr import check_prefix_consistency
from repro.harness import build_cluster
from repro.sim.engine import MILLISECONDS, SECONDS

from tests.helpers import quick_lyra_config


class TestSkew:
    def test_large_constant_skews_harmless(self):
        """±200 ms skews (10x the default) — predictions still hit because
        the offset is baked into every measured distance."""
        cfg = quick_lyra_config(clock_skew_max_us=200 * MILLISECONDS)
        result = build_cluster(cfg).run()
        assert result.committed_count > 0
        assert result.rejected_instances == 0
        assert result.safety_violation is None


class TestDrift:
    def _run_with_drift(self, drift: float):
        cfg = quick_lyra_config(duration_us=5 * SECONDS)
        cluster = build_cluster(cfg)
        # Give one node a fast clock (rate error), rebuilding its clock
        # before the run starts.
        from repro.core.clocks import OrderingClock, PerceivedSequence

        node = cluster.nodes[2]
        node.clock = OrderingClock(
            cluster.sim, skew_us=node.config.clock_skew_us, drift=drift
        )
        node.perceived = PerceivedSequence(node.clock)
        # Rewire dependents constructed at attach time.
        node.commit.clock = node.clock
        node.commit.perceived = node.perceived
        return cluster, cluster.run()

    def test_mild_drift_tolerated(self):
        """100 ppm drift (a bad quartz crystal): over a 5 s run the skew
        accumulates ~0.5 ms, inside the λ = 5 ms budget."""
        cluster, result = self._run_with_drift(1.0001)
        assert result.committed_count > 0
        assert result.safety_violation is None

    def test_severe_drift_causes_rejections_not_unsafety(self):
        """1% drift accumulates ~50 ms over the run — predictions targeting
        the drifting node's clock eventually miss; instances get rejected
        and retried, but safety never breaks."""
        cluster, result = self._run_with_drift(1.01)
        assert result.safety_violation is None
        outputs = {
            node.pid: node.output_sequence() for node in cluster.nodes
        }
        assert check_prefix_consistency(outputs) is None
