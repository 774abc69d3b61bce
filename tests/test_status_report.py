"""The Algorithm-4 report as a record, and the receive path around it.

- ``StatusReport`` is what ``piggyback()`` returns, what every forging node
  rewrites with ``_replace``, and what ``_process`` unpacks in one step.
- Malformed reveal shares and malformed reports are counted rejections that
  leave the commit state untouched — a seeded mix of well-formed and junk
  traffic (the shape of ``test_dbft_differential``'s generator) aimed at
  ``_on_dshare`` and at the ``"pb"`` slot.  DSHAREs and catch-up
  responses with a field of the wrong type are dropped whole, and their
  items that are not even the right shape one by one, through the whole
  receive path (receive cost included); each drop is counted in
  ``NodeStats.malformed_messages``, and so are VVB
  INITs whose cipher or predictions cannot be read, VOTE1s whose
  ``seq`` is not an int and probes whose ``ref`` or ``seq`` is not one.
- Instance dispatch probes ``_instances`` first and ``_finished`` only on a
  miss, which is sound because the two stay disjoint.
- The interned-plaintext cache shows up in both cache scrapes.
"""

import random
from types import SimpleNamespace

import pytest

from repro.bench.suite import _cache_snapshot
from repro.core.commit import DSHARE_KIND, NO_PENDING, STATUS_KIND, StatusReport
from repro.core.dbft import AUX_KIND
from repro.core.node import CATCHUP_RSP_KIND, PROBE_ACK_KIND, PROBE_KIND
from repro.core.obfuscation import (
    HashCommitObfuscation,
    HashRevealShare,
    is_cipher,
    is_reveal_share,
)
from repro.core.types import AcceptedEntry, InstanceId, Transaction
from repro.core.vvb import INIT_KIND, VOTE1_KIND, message_digest
from repro.crypto.cost import FREE_COSTS
from repro.crypto.shamir import ShamirShare
from repro.crypto.vss_encryption import DecryptionShare, VssCipher
from repro.harness import ExperimentConfig, build_cluster
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, SECONDS
from tests.test_node_unit import build_pair


def wire(kind, payload):
    """A message of explicit size: junk has no ``wire_size`` for the
    constructor's estimator to sum."""
    return Message(kind, payload, 64)


def commit_view(commit):
    """Everything a rejected report or share must leave alone."""
    return (
        commit.locked,
        commit.stable,
        commit.committed,
        dict(commit.locked_reports),
        dict(commit.pending_reports),
        list(commit._locked_sorted),
        list(commit._pending_sorted),
        dict(commit.accepted),
        set(commit._accepted_ever),
        {cid: dict(bucket) for cid, bucket in commit._dshares.items()},
    )


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------
class TestStatusReport:
    def test_piggyback_is_the_record(self):
        sim, nodes, net = build_pair()
        report = nodes[0].commit.piggyback()
        assert type(report) is StatusReport
        locked, minp, acc = report
        assert (locked, minp, acc) == (report.locked, report.minp, report.acc)
        assert locked == nodes[0].clock.read() - nodes[0].commit.L
        assert minp == NO_PENDING and acc == ()
        # Consecutive reports share the accepted tuple (identity skips the
        # receiver's rescan).
        assert nodes[0].commit.piggyback().acc is acc

    def test_process_hands_the_fields_to_on_status(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        entry = AcceptedEntry(InstanceId(2, 0), b"c" * 32, 77)
        seen = []
        original = node.commit.on_status
        node.commit.on_status = lambda *args: (seen.append(args), original(*args))
        node._process(
            wire(STATUS_KIND, {"pb": StatusReport(500, 600, (entry,))}), sender=2
        )
        assert seen == [(2, 500, 600, (entry,))]
        assert node.commit.locked_reports == {2: 500}
        assert node.commit.pending_reports == {2: 600}
        assert node.commit.accepted == {entry.instance: entry}

    @pytest.mark.parametrize(
        "attack,check",
        [
            (
                {"name": "prefix-staller"},
                lambda forged, first: forged.locked == forged.minp == -(1 << 50),
            ),
            (
                {"name": "piggyback-forgery", "kwargs": {"mode": "inflate"}},
                lambda forged, first: forged.minp == NO_PENDING
                and forged.locked > (1 << 39),
            ),
            (
                {"name": "piggyback-forgery", "kwargs": {"mode": "stale"}},
                # One frozen report, re-sent: the very same record every time.
                lambda forged, first: forged is first,
            ),
            (
                {"name": "piggyback-forgery", "kwargs": {"mode": "equivocate"}},
                lambda forged, first: forged.locked == -(1 << 50)
                or forged.locked > (1 << 39),
            ),
        ],
        ids=["prefix-staller", "inflate", "stale", "equivocate"],
    )
    def test_every_forging_node_ships_a_record_the_receivers_consume(
        self, attack, check
    ):
        config = ExperimentConfig(
            n_nodes=4,
            seed=3,
            batch_size=8,
            clients_per_node=1,
            client_window=4,
            duration_us=1 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            attack_nodes={1: attack},
        )
        cluster = build_cluster(config, protocol="lyra")
        forged, honest = [], []
        cluster.network.add_trace_hook(
            lambda t, src, dst, m: (forged if src == 1 else honest).append(
                m.payload.get("pb")
            )
            if isinstance(m.payload, dict) and "pb" in m.payload
            else None
        )
        result = cluster.run()
        assert result.safety_violation is None
        assert forged and honest
        assert all(type(pb) is StatusReport for pb in forged + honest)
        assert all(check(pb, forged[0]) for pb in forged)
        for pid in (0, 2, 3):
            commit = cluster.nodes[pid].commit
            # The forged bounds landed in the mirrors like any report...
            assert commit.locked_reports[1] in {pb.locked for pb in forged}
            # ...and nothing about them was malformed.
            assert commit.malformed_reports == 0


# ----------------------------------------------------------------------
# Malformed traffic: counted, and nothing moves
# ----------------------------------------------------------------------
JUNK_SHARES = [
    ShamirShare(1, "junk"),
    ShamirShare(1, 1.5),
    ShamirShare("a", 5),
    ShamirShare(1, None),
    ShamirShare(2.0, 5),
    ShamirShare(True, 5),
    ShamirShare(1, [5]),
    "junk",
    None,
    5,
    (1, 5),
    {"index": 1, "value": 5},
]


def junk_reveal_items(iid, cipher_id):
    items = [(iid, DecryptionShare(cipher_id, share)) for share in JUNK_SHARES]
    items += [
        (iid, DecryptionShare("not-bytes", ShamirShare(1, 5))),
        (iid, DecryptionShare([1], ShamirShare(1, 5))),
        (iid, DecryptionShare(None, ShamirShare(1, 5))),
        (iid, HashRevealShare(cipher_id, "key", b"nonce")),
        (iid, HashRevealShare(cipher_id, b"key", 7)),
        (iid, HashRevealShare(7, b"key", b"nonce")),
        # Well formed, but of the other scheme: a VSS replica would look
        # for its Shamir share.
        (iid, HashRevealShare(cipher_id, b"k" * 32, b"n" * 32)),
        (iid, ShamirShare(1, 5)),  # a bare share is not a reveal share
        (iid, "junk"),
        (iid, None),
        (iid, 1.5),
        (iid, object()),
    ]
    return items


JUNK_REPORTS = [
    {"locked": 1, "minp": 2, "acc": ()},  # the old dict shape
    (1, 2, ()),  # a plain tuple is not the record
    [1, 2, ()],
    "junk",
    7,
    1.5,
    True,
    StatusReport("1", 2, ()),
    StatusReport(1, "2", ()),
    StatusReport(1.0, 2, ()),
    StatusReport(1, 2.5, ()),
    StatusReport(None, 2, ()),
    StatusReport(1, None, ()),
    StatusReport(True, 2, ()),
    StatusReport(1, False, ()),
    StatusReport([1], 2, ()),
    StatusReport("junk", "junk", "junk"),
]


#: DSHARE messages that are junk as a whole: each is charged as one item
#: and dropped by ``_on_dshare``.
JUNK_DSHARES = ({"items": 5}, {"items": None}, {"items": "ab"}, {}, "junk", None)


def committed_reveal(costs=FREE_COSTS):
    """A 4-node mesh in which node 0 has committed instance (1, 0) and is
    waiting for decryption shares — the state ``_on_dshare`` works in."""
    sim, nodes, net = build_pair(costs=costs)
    node = nodes[0]
    iid = InstanceId(1, 0)
    cipher = node.obf.encrypt(
        b"".join(Transaction(9, i).payload() for i in range(2)), nodes[1].rng, 1
    )
    commit = node.commit
    commit.ciphers[iid] = cipher
    entry = AcceptedEntry(iid, cipher.cipher_id, 10)
    commit.committed_ids.add(iid)
    commit._accepted_ever.add(iid)
    commit.output_log.append(entry)
    return sim, nodes, node, iid, cipher


class TestMalformedShares:
    def test_is_reveal_share(self):
        good = DecryptionShare(b"c" * 32, ShamirShare(1, 5))
        hashed = HashRevealShare(b"c" * 32, b"k" * 32, b"n" * 32)
        assert is_reveal_share(good, "vss") and is_reveal_share(hashed, "hash")
        assert not is_reveal_share(good, "hash")
        for _, junk in junk_reveal_items(InstanceId(1, 0), b"c" * 32):
            assert not is_reveal_share(junk, "vss"), junk

    def test_each_junk_item_is_dropped_and_counted(self):
        sim, nodes, node, iid, cipher = committed_reveal()
        before = commit_view(node.commit)
        items = junk_reveal_items(iid, cipher.cipher_id)
        for sender, item in enumerate(items):
            node._process(wire(DSHARE_KIND, {"items": (item,)}), sender % 4)
        assert node.stats.malformed_dshares == len(items)
        assert commit_view(node.commit) == before
        assert node.executed_count() == 0
        assert node._metrics_source()["malformed_dshares"] == len(items)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_mix_of_real_and_junk_shares(self, seed):
        """Junk from the Byzantine replica (pid 3) in any interleaving with
        the honest shares, through the whole receive path: nothing raises,
        the junk is counted, and the reveal completes on the honest quorum
        exactly as without it."""
        sim, nodes, node, iid, cipher = committed_reveal()
        rnd = random.Random(seed)
        honest = [
            (pid, {"items": ((iid, node.obf.partial_decrypt(cipher, pid)),)})
            for pid in (0, 1, 2)
        ]
        shares = junk_reveal_items(iid, cipher.cipher_id)
        # Items that are not even (iid, share) pairs, and messages that
        # carry no item sequence at all, are counted as malformed messages.
        misshapen = ["junk", (iid,), (iid, 1, 2), ("iid", None), 5]
        junk = [(3, {"items": (item,)}) for item in shares + misshapen]
        junk += [(3, payload) for payload in JUNK_DSHARES]
        traffic = honest + rnd.sample(junk, k=len(junk))
        rnd.shuffle(traffic)
        executed = []
        node.on_executed = executed.append
        for sender, payload in traffic:
            node.deliver(wire(DSHARE_KIND, payload), sender)
            sim.run(until=sim.now + 1_000)
        assert node.stats.malformed_dshares == len(shares)
        assert node.stats.malformed_messages == len(misshapen) + len(JUNK_DSHARES)
        assert [(b.proposer, b.batch_no) for b in executed] == [iid]
        assert [tx.key() for tx in executed[0].txs] == [(9, 0), (9, 1)]
        # Only honest shares were ever filed.
        assert set(node.commit._dshares[cipher.cipher_id]) == {0, 1, 2}

    def test_junk_fills_no_slot_an_honest_share_needs(self):
        """A sender's junk must not occupy its bucket slot: the same sender
        can still deliver its real share afterwards."""
        sim, nodes, node, iid, cipher = committed_reveal()
        for pid in (0, 1, 2):
            junk = DecryptionShare(cipher.cipher_id, ShamirShare(pid + 1, "junk"))
            node._process(wire(DSHARE_KIND, {"items": ((iid, junk),)}), pid)
        assert node.executed_count() == 0
        for pid in (0, 1, 2):
            share = node.obf.partial_decrypt(cipher, pid)
            node._process(wire(DSHARE_KIND, {"items": ((iid, share),)}), pid)
        assert node.executed_count() == 1
        assert node.stats.malformed_dshares == 3


class TestMalformedReports:
    def test_each_junk_report_is_counted_before_any_mirror_moves(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        commit = node.commit
        for sender in range(4):  # a populated state to disturb
            node._process(
                wire(STATUS_KIND, {"pb": StatusReport(100 + sender, 200 + sender, ())}),
                sender,
            )
        before = commit_view(commit)
        assert commit.locked > 0 and commit.stable > 0
        for i, junk in enumerate(JUNK_REPORTS):
            node._process(wire(STATUS_KIND, {"pb": junk}), i % 4)
            assert commit.malformed_reports == i + 1, junk
            assert commit_view(commit) == before, junk
        assert node._metrics_source()["malformed_reports"] == len(JUNK_REPORTS)

    def test_the_message_under_a_rejected_report_is_still_handled(self):
        """The report rides a protocol message; refusing the report does
        not drop the message it rode on."""
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        iid = InstanceId(1, 0)
        node._process(
            wire(AUX_KIND, {"iid": iid, "round": 1, "e": (1,), "pb": "junk"}), 1
        )
        assert node.commit.malformed_reports == 1
        assert node._instances[iid]._aux[1][2] == 1 << 1

    def test_junk_inside_acc_stops_that_scan(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        commit = nodes[0].commit
        first = AcceptedEntry(InstanceId(1, 0), b"a" * 32, 50)
        last = AcceptedEntry(InstanceId(1, 1), b"b" * 32, 60)
        for n_bad, junk in enumerate(
            [
                "junk",
                None,
                7,
                (InstanceId(2, 0), b"c" * 32, 70),
                AcceptedEntry(InstanceId(2, 1), b"c" * 32, "70"),
                AcceptedEntry(InstanceId(2, 2), "cid", 70),
                AcceptedEntry((2, 3), b"c" * 32, 70),
                AcceptedEntry([2, 4], b"c" * 32, 70),
                AcceptedEntry(InstanceId(2, 5), b"c" * 32, 70.0),
            ],
            start=1,
        ):
            nodes[0]._process(
                wire(STATUS_KIND, {"pb": StatusReport(10, 20, (first, junk, last))}), 1
            )
            # Entries ahead of the junk are adopted, the junk and what
            # follows it are not; the bounds were fine and stand.
            assert set(commit.accepted) == {first.instance}, junk
            assert commit.malformed_reports == n_bad, junk
            assert commit.locked_reports[1] == 10 and commit.pending_reports[1] == 20
        for junk_acc in (5, None, 1.5):  # not a sequence at all
            nodes[0]._process(
                wire(STATUS_KIND, {"pb": StatusReport(10, 20, junk_acc)}), 2
            )
        assert commit.malformed_reports == n_bad + 2  # ``None`` is falsy: no scan
        # The same sender's next clean report is scanned normally.
        nodes[0]._process(
            wire(STATUS_KIND, {"pb": StatusReport(11, 21, (first, last))}), 1
        )
        assert set(commit.accepted) == {first.instance, last.instance}

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_mix_of_real_and_junk_reports(self, seed):
        """Two nodes fed the same honest reports; one also gets junk in
        between.  Their commit state stays equal throughout."""
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        clean, noisy = nodes[0], nodes[1]
        rnd = random.Random(seed)
        entries = [AcceptedEntry(InstanceId(2, i), bytes([i]) * 32, 100 + 7 * i) for i in range(6)]
        junk_seen = 0
        for step in range(300):
            sender = rnd.randrange(4)
            if rnd.random() < 0.4:
                noisy._process(
                    wire(STATUS_KIND, {"pb": rnd.choice(JUNK_REPORTS)}), sender
                )
                junk_seen += 1
                continue
            report = StatusReport(
                step * 3 + rnd.randrange(50),
                rnd.choice([NO_PENDING, step * 3 + rnd.randrange(200)]),
                tuple(rnd.sample(entries, k=rnd.randrange(4))),
            )
            for node in (clean, noisy):
                node._process(wire(STATUS_KIND, {"pb": report}), sender)
            assert commit_view(noisy.commit) == commit_view(clean.commit), step
        assert noisy.commit.malformed_reports == junk_seen > 0
        assert clean.commit.malformed_reports == 0
        assert noisy.commit.output_sequence() == clean.commit.output_sequence()
        assert clean.commit.output_log  # the walk actually commits

    def test_validate_refuses_predictions_that_are_not_ints(self):
        """``min_pending`` is reported to peers as an int bound, so a
        proposer's float prediction must not get into ``pending``."""
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        cipher = node.obf.encrypt(b"x" * 32, node.rng, 1)
        now = node.clock.read()
        for preds in ((now, now, float(now), now), (now, "x", now, now), (now, None, now, now)):
            assert node.commit.validate(InstanceId(1, 0), cipher, preds) is False
        assert node.commit.pending == {} and node.commit.min_pending == NO_PENDING
        assert node.commit.validate(InstanceId(1, 0), cipher, (now,) * 4) is True


#: Catch-up responses with a field of the wrong type: each is dropped
#: whole and counted before ``_catchup_totals`` or any vote moves.
JUNK_CATCHUP = (
    {"total": 3, "have": 0, "items": 5},
    {"total": 3, "have": 0, "items": None},
    {"total": 3, "have": 0, "items": "abc"},
    {"total": "3", "have": 0, "items": ()},
    {"total": 3, "have": None, "items": ()},
)

class TestMalformedCatchup:
    def test_each_junk_catchup_response_is_counted_before_any_state_moves(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.commit.begin_catchup()
        before = commit_view(node.commit)
        for i, junk in enumerate(JUNK_CATCHUP):
            # Through the receive cost, which reads ``items`` first.
            node.deliver(wire(CATCHUP_RSP_KIND, junk), 1 + i % 3)
            sim.run(until=sim.now + 1_000)
            assert node.stats.malformed_messages == i + 1, junk
        assert node._catchup_totals == {} and node._catchup_votes == {}
        assert commit_view(node.commit) == before
        assert node._metrics_source()["malformed_messages"] == len(JUNK_CATCHUP)

    def test_junk_items_in_a_catchup_response_are_skipped(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        node.commit.begin_catchup()
        entry = AcceptedEntry(InstanceId(2, 0), b"d" * 32, 100)
        items = (5, (entry,), ("entry", None, None), (entry, None, [1]), (entry, None, {}))
        node._process(wire(CATCHUP_RSP_KIND, {"total": 1, "have": 0, "items": items}), 1)
        assert node._catchup_votes == {} and node._catchup_pt_votes == {}
        assert node._catchup_totals == {1: 1}
        # The message itself was well formed; each junk item is counted.
        assert node.stats.malformed_messages == len(items)


def junk_inits(node, iid):
    """INITs that carry a real signature but a cipher or predictions the
    receiver cannot read.  The last four are signed over their own
    cipher id, so only the cipher's shape (or scheme) gives them away."""
    cipher = node.obf.encrypt(b"x" * 32, node.rng, iid.proposer)
    signer = node.registry.signer(iid.proposer)
    sigma = signer.sign(b"junk")
    preds = (1, 2, 3, 4)
    misshapen = (
        SimpleNamespace(cipher_id=b"c" * 32),
        HashCommitObfuscation(3, 4, seed=1).encrypt(b"x" * 32, node.rng, iid.proposer),
        VssCipher(cipher.cipher_id, cipher.body, cipher.commitment, ("x",) * 4),
        VssCipher(cipher.cipher_id, cipher.body, "junk", cipher.sealed_shares),
    )
    return (
        {"iid": iid, "cipher": "junk", "preds": preds, "sigma": sigma},
        {"iid": iid, "cipher": 5, "preds": preds, "sigma": sigma},
        {"iid": iid, "cipher": cipher, "preds": 5, "sigma": sigma},
        {"iid": iid, "cipher": cipher, "preds": None, "sigma": sigma},
        {"iid": iid, "cipher": cipher, "preds": (1, [2], 3, 4), "sigma": sigma},
        *(
            {
                "iid": iid,
                "cipher": bad,
                "preds": preds,
                "sigma": signer.sign(message_digest(iid, bad.cipher_id, preds)),
            }
            for bad in misshapen
        ),
    )


#: Probes and probe acks with a field that is not an int.
JUNK_PROBES = (
    (PROBE_KIND, {"ref": "x"}),
    (PROBE_KIND, {}),
    (PROBE_KIND, "junk"),
    (PROBE_ACK_KIND, {"ref": 1.5, "seq": 7}),
    (PROBE_ACK_KIND, {"ref": 1, "seq": None}),
    (PROBE_ACK_KIND, {"ref": 1}),
)


#: VOTE1 ``seq`` values that are not an int; ``MISSING`` leaves it out.
MISSING = object()
JUNK_SEQS = ("x", None, float("nan"), 1.5, "5", True, MISSING)
JUNK_SEQ_IDS = ("str", "none", "nan", "float", "numeric-str", "bool", "missing")

VOTE_DIGEST = b"d" * 32
S_REF = 1_000


def signed_vote1(nodes, iid, sender, seq=MISSING):
    """A VOTE1 from ``sender`` whose threshold share verifies."""
    share = nodes[sender].services.threshold_signer.share_sign(VOTE_DIGEST)
    payload = {"iid": iid, "digest": VOTE_DIGEST, "share": share}
    if seq is not MISSING:
        payload["seq"] = seq
    return payload


def own_instance(node):
    """An instance ``node`` proposed, so its votes carry distance samples."""
    iid = InstanceId(node.pid, 0)
    node._s_ref[iid] = S_REF
    return iid


def samples_view(est):
    return {peer: list(history) for peer, history in est._history.items()}


class TestMalformedVvbMessages:
    def test_is_cipher(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        cipher = node.obf.encrypt(b"x" * 32, node.rng, 0)
        hashed = HashCommitObfuscation(3, 4, seed=1).encrypt(b"x" * 32, node.rng, 0)
        # A bad dealer's cipher is well shaped: its 0 vote is
        # check_dealing's business, not the door's.
        bad_dealer = VssCipher(
            cipher.cipher_id,
            cipher.body,
            cipher.commitment,
            (cipher.sealed_shares[0] ^ 1,) + cipher.sealed_shares[1:],
        )
        assert is_cipher(cipher, "vss") and is_cipher(bad_dealer, "vss")
        assert is_cipher(hashed, "hash")
        assert not is_cipher(cipher, "hash") and not is_cipher(hashed, "vss")
        # Each junk INIT is junk in exactly one of its cipher and its
        # predictions.
        for junk in junk_inits(node, InstanceId(1, 0)):
            assert is_cipher(junk["cipher"], "vss") != (junk["preds"] == (1, 2, 3, 4))

    def test_each_junk_init_is_counted_before_any_state_moves(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        iid = InstanceId(1, 0)
        inits = junk_inits(node, iid)
        for i, junk in enumerate(inits):
            node._process(wire(INIT_KIND, junk), 1)
            assert node.stats.malformed_messages == i + 1, junk
        vvb = node._instances[iid].vvb
        assert vvb.message is None and not vvb._timer_started
        assert node.commit.pending == {} and node.commit.validations == 0
        assert node._metrics_source()["malformed_messages"] == len(inits)
        # The junk locked nothing: the broadcaster's real INIT still lands.
        cipher = node.obf.encrypt(b"y" * 32, node.rng, 1)
        preds = (node.clock.read(),) * 4
        sigma = node.registry.signer(1).sign(message_digest(iid, cipher.cipher_id, preds))
        real = {"iid": iid, "cipher": cipher, "preds": preds, "sigma": sigma}
        node._process(wire(INIT_KIND, real), 1)
        assert vvb.message == (cipher, preds)
        assert node.stats.malformed_messages == len(inits)

    @pytest.mark.parametrize("seq", JUNK_SEQS, ids=JUNK_SEQ_IDS)
    def test_a_signed_vote1_with_a_junk_seq_is_dropped_and_counted(self, seq):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        iid = own_instance(node)
        before = samples_view(node.estimator)
        node._process(wire(VOTE1_KIND, signed_vote1(nodes, iid, 1, seq)), 1)
        assert node.stats.malformed_messages == 1
        assert samples_view(node.estimator) == before  # no distance sample
        assert node._instances[iid].vvb._shares == {}  # and no vote

    @pytest.mark.parametrize("seq", [S_REF + 7_000, 0, -250])
    def test_an_int_seq_is_a_sample_even_when_not_positive(self, seq):
        """Under negative clock skew an honest seq can be <= 0."""
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        iid = own_instance(node)
        node._process(wire(VOTE1_KIND, signed_vote1(nodes, iid, 1, seq)), 1)
        assert node.stats.malformed_messages == 0
        assert samples_view(node.estimator)[1] == [float(seq - S_REF)]
        assert list(node._instances[iid].vvb._shares[VOTE_DIGEST]) == [1]

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_mix_of_real_and_junk_vvb_traffic(self, seed):
        """Two pid-0 nodes fed the same signed VOTE1s for their own
        instances; one also gets junk INITs, junk-seq VOTE1s and junk
        probes in between.  Their distance samples and vote buckets stay
        equal throughout."""
        clean_nodes, noisy_nodes = (build_pair(costs=FREE_COSTS)[1] for _ in range(2))
        clean, noisy = clean_nodes[0], noisy_nodes[0]
        iids = [InstanceId(0, k) for k in range(3)]
        for node in (clean, noisy):
            for iid in iids:
                node._s_ref[iid] = S_REF
        rnd = random.Random(seed)
        junk_seen = 0
        for step in range(120):
            iid, sender = rnd.choice(iids), rnd.choice((1, 2, 3))
            if rnd.random() < 0.4:
                draw = rnd.random()
                if draw < 1 / 3:
                    junk = rnd.choice(junk_inits(noisy, InstanceId(sender, step)))
                    noisy._process(wire(INIT_KIND, junk), sender)
                elif draw < 2 / 3:
                    noisy._process(wire(*rnd.choice(JUNK_PROBES)), sender)
                else:
                    seq = rnd.choice(JUNK_SEQS)
                    junk = signed_vote1(noisy_nodes, iid, sender, seq)
                    noisy._process(wire(VOTE1_KIND, junk), sender)
                junk_seen += 1
                continue
            honest = signed_vote1(clean_nodes, iid, sender, rnd.randrange(-500, 9_000))
            for node in (clean, noisy):
                node._process(wire(VOTE1_KIND, honest), sender)
            assert samples_view(noisy.estimator) == samples_view(clean.estimator), step
        for iid in iids:
            assert noisy._instances[iid].vvb._shares == clean._instances[iid].vvb._shares
        assert noisy.stats.malformed_messages == junk_seen > 0
        assert clean.stats.malformed_messages == 0
        assert clean.estimator.peers_measured() > 0  # the walk actually learns


# ----------------------------------------------------------------------
# One-probe instance dispatch
# ----------------------------------------------------------------------
class TestInstanceDispatch:
    def aux(self, iid, sender_round=1):
        return wire(AUX_KIND, {"iid": iid, "round": sender_round, "e": (1,)})

    def disjoint(self, node):
        return not set(node._instances) & node._finished

    def test_live_finished_unknown_tuple_and_recovered(self):
        sim, nodes, net = build_pair(costs=FREE_COSTS)
        node = nodes[0]
        live, finished, unknown = InstanceId(1, 0), InstanceId(1, 1), InstanceId(1, 2)

        # Unknown: joined on first sight.
        node._process(self.aux(live), 1)
        assert set(node._instances) == {live}
        assert node.stats.instances_joined == 1
        instance = node._instances[live]
        assert instance._aux[1][2] == 1 << 1

        # Live: the same instance handles it, nothing is re-created.
        node._process(self.aux(live), 2)
        assert node._instances[live] is instance
        assert instance._aux[1][2] == (1 << 1) | (1 << 2)
        assert node.stats.instances_joined == 1

        # Finished: garbage-collected, late traffic is dropped at dispatch.
        node._process(self.aux(finished), 1)
        node._gc_instance(finished)
        assert finished in node._finished and finished not in node._instances
        node._process(self.aux(finished), 2)
        assert finished not in node._instances
        assert node.stats.instances_joined == 2
        assert self.disjoint(node)

        # A plain (p, b) tuple equals the InstanceId key but is not one:
        # still ignored, whether the instance is live or not.
        for raw in ((1, 0), (1, 2), [1, 0], "1,0", None, 7):
            node._process(self.aux(raw), 3)
        assert instance._aux[1][0] == (1 << 1) | (1 << 2)
        assert unknown not in node._instances
        assert node.stats.instances_joined == 2

        # recover() wipes the live table and keeps the finished set.
        node.crash()
        node.recover()
        assert node._instances == {} and node._finished == {finished}
        node._process(self.aux(finished), 1)
        assert finished not in node._instances
        node._process(self.aux(live), 1)
        assert node._instances[live] is not instance  # a fresh incarnation's
        assert self.disjoint(node)

    def test_disjoint_throughout_a_run(self):
        config = ExperimentConfig(
            n_nodes=4,
            seed=2,
            batch_size=2,
            clients_per_node=1,
            client_window=3,
            duration_us=3 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
        )
        cluster = build_cluster(config, protocol="lyra")
        overlaps = []

        def probe():
            overlaps.extend(
                (node.pid, iid)
                for node in cluster.nodes
                for iid in node._finished
                if iid in node._instances
            )
            cluster.sim.schedule(50 * MILLISECONDS, probe)

        cluster.sim.schedule(0, probe)
        cluster.run()
        assert overlaps == []
        assert all(node._finished for node in cluster.nodes)  # gc did run


class TestDecryptCacheIsReported:
    def test_both_scrapes_see_the_interned_plaintext_cache(self):
        """Every replica decrypts every cipher; all but the first hit the
        interned plaintext.  The façade used to hide the counters."""
        config = ExperimentConfig(
            n_nodes=4,
            seed=1,
            batch_size=4,
            clients_per_node=1,
            client_window=4,
            duration_us=2 * SECONDS,
            warmup_rounds=2,
            warmup_spacing_us=150 * MILLISECONDS,
            tracing=True,
        )
        cluster = build_cluster(config, protocol="lyra")
        result = cluster.run()
        stats = _cache_snapshot(cluster)["vss_decrypt"]
        assert stats == cluster.obf.decrypt_cache_stats()
        assert stats["misses"] > 0 and stats["hits"] >= 2 * stats["misses"]
        assert stats["hit_rate"] > 0.5
        source = cluster._cache_source()
        assert source["vss_decrypt.hits"] == stats["hits"]
        assert source["vss_decrypt.misses"] == stats["misses"]
        # One inventory: the metrics source is the snapshot, flattened.
        counters = result.metrics["counters"]
        for layer, layer_stats in _cache_snapshot(cluster).items():
            for key in ("hits", "misses"):
                assert counters[f"cache.{layer}.{key}"]["total"] == layer_stats[key]

    def test_hash_commit_has_no_such_cache(self):
        config = ExperimentConfig(n_nodes=4, seed=1, obfuscation="hash")
        cluster = build_cluster(config, protocol="lyra")
        assert not hasattr(cluster.obf, "decrypt_cache_stats")
        assert "vss_decrypt" not in _cache_snapshot(cluster)
