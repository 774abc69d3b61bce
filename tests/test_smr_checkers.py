"""Tests for the SMR correctness oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smr import (
    check_lower_bounded,
    check_output_sorted,
    check_prefix_consistency,
    front_running_succeeded,
    is_prefix,
    ordering_of,
)


def entry(seq, tag):
    return (seq, tag.encode().ljust(32, b"\x00"))


class TestPrefix:
    def test_is_prefix(self):
        assert is_prefix([], [1, 2])
        assert is_prefix([1], [1, 2])
        assert not is_prefix([2], [1, 2])
        assert not is_prefix([1, 2, 3], [1, 2])

    def test_consistent_logs_pass(self):
        a = [entry(1, "a"), entry(2, "b")]
        outputs = {0: a, 1: a[:1], 2: a}
        assert check_prefix_consistency(outputs) is None

    def test_divergence_detected(self):
        outputs = {
            0: [entry(1, "a"), entry(2, "b")],
            1: [entry(1, "a"), entry(2, "c")],
        }
        report = check_prefix_consistency(outputs)
        assert report is not None and "position 1" in report

    def test_empty_logs_pass(self):
        assert check_prefix_consistency({0: [], 1: []}) is None

    def test_single_node_passes(self):
        assert check_prefix_consistency({0: [entry(1, "a")]}) is None


def pairwise_prefix_consistency(outputs):
    """``check_prefix_consistency`` as it was before the longest-log fast
    path, kept verbatim as the reference."""
    pids = sorted(outputs)
    for i in range(len(pids)):
        for j in range(i + 1, len(pids)):
            a, b = outputs[pids[i]], outputs[pids[j]]
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if not is_prefix(shorter, longer):
                diverge = next(
                    idx
                    for idx, (x, y) in enumerate(zip(shorter, longer))
                    if x != y
                )
                return (
                    f"SMR-Safety violated between pid {pids[i]} and pid "
                    f"{pids[j]}: logs diverge at position {diverge}: "
                    f"{shorter[diverge]} vs {longer[diverge]}"
                )
    return None


@st.composite
def replica_logs(draw):
    """Prefixes of one master log, some with an injected divergence."""
    master = draw(
        st.lists(
            st.tuples(st.integers(0, 50), st.binary(min_size=1, max_size=3)),
            max_size=12,
        )
    )
    outputs = {}
    for pid in draw(st.lists(st.integers(0, 9), unique=True, max_size=7)):
        log = list(master[: draw(st.integers(0, len(master)))])
        if log and draw(st.integers(0, 3)) == 0:
            pos = draw(st.integers(0, len(log) - 1))
            log[pos] = (log[pos][0] + draw(st.integers(0, 1)), b"fork")
        if draw(st.integers(0, 5)) == 0:
            log.append((99, b"tail"))  # longer than the master
        outputs[pid] = log
    return outputs


class TestPrefixAgainstPairwiseReference:
    @settings(max_examples=500, deadline=None)
    @given(outputs=replica_logs())
    def test_same_verdict_and_same_report(self, outputs):
        assert check_prefix_consistency(outputs) == pairwise_prefix_consistency(outputs)

    def test_report_names_the_first_diverging_pair(self):
        a, b, c = entry(1, "a"), entry(2, "b"), entry(3, "c")
        outputs = {3: [a, b, c], 1: [a, c], 2: [a, b], 0: []}
        report = check_prefix_consistency(outputs)
        assert report == pairwise_prefix_consistency(outputs)
        assert "pid 1 and pid 2" in report and "position 1" in report

    def test_equal_length_divergence_and_no_replicas(self):
        outputs = {0: [entry(1, "a")], 1: [entry(1, "b")]}
        assert check_prefix_consistency(outputs) == pairwise_prefix_consistency(outputs)
        assert check_prefix_consistency(outputs) is not None
        assert check_prefix_consistency({}) is None

    def test_non_list_sequences_still_get_the_pairwise_answer(self):
        # A tuple never ``==`` a list slice; the fallback scan decides.
        log = (entry(1, "a"), entry(2, "b"))
        assert check_prefix_consistency({0: log, 1: list(log)}) is None
        assert check_prefix_consistency({0: log, 1: [entry(1, "x")]}) is not None


class TestSorted:
    def test_sorted_passes(self):
        assert check_output_sorted([entry(1, "a"), entry(2, "b")]) is None

    def test_unsorted_detected(self):
        report = check_output_sorted([entry(2, "b"), entry(1, "a")])
        assert report is not None

    def test_equal_seq_tie_by_cipher(self):
        log = [(5, b"a" * 32), (5, b"b" * 32)]
        assert check_output_sorted(log) is None
        assert check_output_sorted(list(reversed(log))) is not None


class TestLowerBounded:
    def test_holds(self):
        decided = {b"c1": 100}
        perceived = {0: {b"c1": 95}, 1: {b"c1": 105}}
        assert check_lower_bounded(decided, perceived, lambda_us=10) == []

    def test_violation_detected(self):
        decided = {b"c1": 50}
        perceived = {0: {b"c1": 100}, 1: {b"c1": 120}}
        violations = check_lower_bounded(decided, perceived, lambda_us=10)
        assert len(violations) == 1

    def test_unobserved_cipher_skipped(self):
        assert check_lower_bounded({b"c9": 1}, {0: {}}, 5) == []

    def test_lambda_slack_respected(self):
        decided = {b"c1": 90}
        perceived = {0: {b"c1": 100}}
        assert check_lower_bounded(decided, perceived, lambda_us=10) == []
        assert check_lower_bounded(decided, perceived, lambda_us=9) != []


class TestFrontRunOracle:
    def test_positions(self):
        log = [entry(1, "v"), entry(2, "a")]
        assert ordering_of(log, log[0][1]) == 0
        assert ordering_of(log, b"missing" + b"\x00" * 25) is None

    def test_attack_detection(self):
        victim, attacker = entry(2, "v")[1], entry(1, "a")[1]
        log = [(1, attacker), (2, victim)]
        assert front_running_succeeded(log, victim, attacker) is True
        log2 = [(1, victim), (2, attacker)]
        assert front_running_succeeded(log2, victim, attacker) is False

    def test_uncommitted_returns_none(self):
        log = [entry(1, "v")]
        assert front_running_succeeded(log, log[0][1], b"x" * 32) is None
