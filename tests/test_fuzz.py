"""Adversarial-schedule fuzzer tests: schedule generation is a pure
function of the seed, saved schedules replay bit-identically from JSON,
the ddmin shrinker minimizes failing schedules, and custom watchdog
checks catch violations that only manifest at the end of a run."""

import dataclasses
import json

import pytest

from repro.attacks.fuzz import (
    fuzz_config,
    generate_schedule,
    run_schedule,
    shrink_schedule,
)
from repro.bench.suite import check_row
from repro.harness.config import ExperimentConfig
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.sim.engine import MILLISECONDS, SECONDS
from repro.workload.spec import WorkloadSpec


def _json_round_trip(config):
    return ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        for seed in (0, 3, 11):
            assert generate_schedule(seed) == generate_schedule(seed)

    def test_different_seeds_differ(self):
        dicts = [generate_schedule(s).to_dict() for s in range(8)]
        assert len({json.dumps(d, sort_keys=True) for d in dicts}) > 1

    def test_generated_schedules_respect_joint_budget(self):
        for seed in range(20):
            s = generate_schedule(seed)
            # Must not raise: attackers ∪ simultaneous crashes ≤ f.
            (s.fault_plan or FaultPlan()).validate_for(
                s.n_nodes, s.resolved_f(), tuple(s.attack_nodes or ())
            )

    def test_json_round_trip_is_exact(self):
        for seed in range(6):
            s = generate_schedule(seed)
            assert _json_round_trip(s) == s

    def test_unknown_schedule_fields_rejected(self):
        data = generate_schedule(0).to_dict()
        data["junk"] = 1
        with pytest.raises(ValueError, match="junk"):
            ExperimentConfig.from_dict(data)

    def test_attack_assignment_validates_name(self):
        """An attack entry names a registry behaviour, checked when the
        schedule is built, and its kwargs survive JSON."""
        with pytest.raises(ValueError, match="no-such-attack"):
            fuzz_config(1, attack_nodes={1: "no-such-attack"})
        spec = {"name": "selective-reveal", "kwargs": {"mode": "delay"}}
        s = fuzz_config(1, attack_nodes={1: spec})
        assert s.attack_nodes == {1: spec}
        assert _json_round_trip(s).attack_nodes == s.attack_nodes

    def test_to_config_maps_knobs(self):
        """A schedule is the config it runs: the fuzz rig plus the knobs."""
        plan = FaultPlan(links=(LinkFault(drop_rate=0.1),))
        s = fuzz_config(
            5,
            attack_nodes={1: "piggyback-forgery"},
            report_quorum=1,
            fault_plan=plan,
            reliable_channels=True,
        )
        assert s.seed == 5
        assert s.report_quorum == 1
        assert s.reliable_channels is True
        assert s.attack_nodes == {1: {"name": "piggyback-forgery", "kwargs": {}}}
        assert s.fault_plan is plan
        assert (s.batch_size, s.warmup_rounds, s.duration_us) == (8, 2, 3 * SECONDS)
        # The rig's clients, stated explicitly: the legacy closed loop.
        legacy = WorkloadSpec.from_legacy(clients_per_node=1, client_window=4)
        assert s.workload == legacy


class TestReplayDeterminism:
    def test_same_schedule_same_digest(self):
        s = generate_schedule(8)  # no attackers: light and fast
        a = run_schedule(s)
        b = run_schedule(s)
        assert a["prefix_sha256"] == b["prefix_sha256"]
        assert check_row("seed 8", b, a) == []

    def test_replay_from_json_is_bit_identical(self):
        """The corpus-replay acceptance criterion: dump a schedule to
        JSON, rebuild it, and the rerun reproduces every pinned field and
        the same verdict."""
        s = generate_schedule(0)
        original = run_schedule(s)
        replay = run_schedule(_json_round_trip(s))
        assert check_row("seed 0", replay, original) == []
        assert replay["invariant_violations"] == original["invariant_violations"]


class TestShrinking:
    def _fat_schedule(self):
        return fuzz_config(
            1,
            attack_nodes={0: "cipher-replay", 1: "piggyback-forgery"},
            fault_plan=FaultPlan(
                links=(
                    LinkFault(drop_rate=0.1),
                    LinkFault(duplicate_rate=0.05),
                ),
                crashes=(CrashEvent(pid=2, crash_at_us=1 * SECONDS),),
            ),
            reliable_channels=True,
        )

    def test_shrinks_to_single_culprit_component(self):
        # Oracle stub: the failure needs only the pid-1 attacker.
        failing = lambda s: 1 in (s.attack_nodes or {})
        small = shrink_schedule(self._fat_schedule(), failing)
        assert list(small.attack_nodes) == [1]
        assert small.fault_plan is None

    def test_shrink_preserves_knobs(self):
        fat = dataclasses.replace(self._fat_schedule(), report_quorum=1, batch_size=2)
        small = shrink_schedule(fat, lambda s: True)
        assert small.attack_nodes is None and small.fault_plan is None
        # Everything but the removable components is untouched.
        assert small == dataclasses.replace(fat, attack_nodes=None, fault_plan=None)
        assert small.report_quorum == 1
        assert small.batch_size == 2

    def test_shrink_keeps_failing_pair(self):
        # Failure needs the crash AND one specific link fault together.
        def failing(s):
            plan = s.fault_plan or FaultPlan()
            return bool(plan.crashes) and any(lf.drop_rate > 0 for lf in plan.links)

        small = shrink_schedule(self._fat_schedule(), failing)
        assert failing(small)
        assert small.attack_nodes is None
        assert len(small.fault_plan.links) == 1
        assert len(small.fault_plan.crashes) == 1

    def test_shrink_respects_run_budget(self):
        calls = []

        def failing(s):
            calls.append(s)
            return True

        shrink_schedule(self._fat_schedule(), failing, max_runs=3)
        assert len(calls) <= 3


class TestWatchdogExtraChecks:
    def _dog(self):
        from repro.metrics.invariants import InvariantWatchdog
        from repro.sim.engine import Simulator

        class FakeNode:
            def __init__(self, pid):
                self.pid = pid
                self.crashed = False

            def output_sequence(self):
                return []

            def work_pending(self):
                return False

        sim = Simulator()
        return InvariantWatchdog(sim, [FakeNode(0), FakeNode(1)], f=0)

    def test_extra_check_runs_every_sample(self):
        dog = self._dog()
        seen = []
        dog.add_check("probe", lambda: seen.append(1) or None)
        dog.check_now()
        dog.check_now()
        assert len(seen) == 2
        assert dog.report.ok

    def test_late_manifesting_violation_caught_at_end_of_run(self):
        """A violation that only appears on the final end-of-run sample
        (after the last periodic tick) must still be recorded."""
        dog = self._dog()
        armed = []
        dog.add_check(
            "late", lambda: "boom at the end" if armed else None
        )
        dog.check_now()  # periodic samples: clean
        assert dog.report.ok
        armed.append(True)  # state goes bad after the last tick
        dog.check_now()  # the cluster's final end-of-run sample
        assert not dog.report.ok
        assert any(v.check == "late" for v in dog.report.violations)

    def test_cluster_final_sample_catches_late_violation(self):
        """Cluster.run performs one check_now after the simulator
        drains, so a check that only fires at/after the configured
        duration still lands in the result."""
        from repro.harness import ExperimentConfig, build_cluster

        cfg = ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=8,
            clients_per_node=1,
            client_window=3,
            duration_us=2 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
        )
        cluster = build_cluster(cfg, protocol="lyra")
        cluster.watchdog.add_check(
            "end-only",
            lambda: (
                "only visible at the end"
                if cluster.sim.now >= cfg.duration_us
                else None
            ),
        )
        result = cluster.run()
        assert any("end-only" in v for v in result.invariant_violations)


#: The delta-report switch configs no longer have.  Artifacts saved while
#: it existed still carry it; the name is split so that a search for it
#: finds no live use.
RETIRED_FIELD = "delta_" "piggyback"

#: Fields retired the same way, each with the default it had: the
#: epidemic distance estimator's knobs, the relay tree's and the
#: measurement-window override.
RETIRED_FIELDS = {
    "distance_" "mode": "probe",
    "goss" "ip_fanout": 3,
    "goss" "ip_rounds": 6,
    "dissem" "ination": "all2all",
    "fan" "out": 8,
    "measure_" "after_us": None,
}


class TestFuzzCli:
    def test_fuzz_batch_clean(self, capsys):
        from repro.__main__ import main

        rc = main(["fuzz", "--seeds", "8", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 schedules clean" in out

    def test_fuzz_seed_range_expansion(self):
        from repro.__main__ import _parse_seed_specs

        assert _parse_seed_specs(["0:3", "7"]) == [0, 1, 2, 7]
        with pytest.raises(ValueError, match="need A < B"):
            _parse_seed_specs(["5:5"])

    def _saved(self, tmp_path, **tamper):
        schedule = generate_schedule(8)
        row = dict(run_schedule(schedule), **tamper)
        path = tmp_path / "saved.json"
        path.write_text(json.dumps({"schedule": schedule.to_dict(), "row": row}))
        return str(path)

    def test_fuzz_replay_digest_match(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main(["fuzz", "--replay", self._saved(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "row match: True" in out

    def test_fuzz_replay_digest_mismatch_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._saved(tmp_path, prefix_sha256="0" * 64)
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--replay", path])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "row match: False" in out and "prefix_sha256" in out

    @pytest.mark.parametrize(
        "change,problem",
        [
            (None, "Expecting property name"),
            ({"junk": 1}, "junk"),
            ({"attack_nodes": {"1": "no-such-attack"}}, "no-such-attack"),
            ({"attack_nodes": {"9": "cipher-replay"}}, "unknown pid 9"),
            ({"row": 7}, "row is not an object"),
            ({RETIRED_FIELD: True}, RETIRED_FIELD),
            *(({name: old}, name) for name, old in RETIRED_FIELDS.items()),
        ],
        ids=[
            "not-json",
            "unknown-field",
            "unknown-attack",
            "pid-out-of-range",
            "row-not-object",
            "retired-field",
            *(f"retired-{name}" for name in RETIRED_FIELDS),
        ],
    )
    def test_malformed_replay_artifact_is_a_usage_error(
        self, tmp_path, capsys, change, problem
    ):
        """Exit 1 means "violation found", so a replay artifact that is
        not a schedule exits 2 with one line naming the problem."""
        from repro.__main__ import main

        path = tmp_path / "bad.json"
        if change is None:
            path.write_text("{not json")
        else:
            path.write_text(json.dumps({**generate_schedule(8).to_dict(), **change}))
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--replay", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "FUZZ" not in captured.out  # nothing ran
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "bad replay artifact" in errors[0] and problem in errors[0]
