"""Differential test: sender-bitmask quorum bookkeeping vs plain sets.

``BinaryConsensus``, ``BinaryValueBroadcast`` and the VOTE0 half of
``VvbInstance`` count voters in integers (one bit per pid) and evaluate the
AUX quorum with three popcounts.  ``SetReference`` below is the same receive
side written the obvious way — a set of voters per value, a dict of
``sender -> frozenset`` per round, the AUX quorum re-derived from scratch on
every call — and both are fed the same random interleaving of well-formed
and junk messages, duplicates and self-votes included.  After every step
they must have broadcast the same messages (kind, payload and wire size)
and agree on vvals, deliveries, ``est``, the decision and the round.
"""

import itertools
import random
from collections import defaultdict

import pytest

from repro.core.bv_broadcast import BV_KIND
from repro.core.dbft import AUX_KIND, COORD_KIND, BinaryConsensus
from repro.core.services import ProtocolServices
from repro.core.vvb import FETCH_KIND, VOTE0_KIND
from repro.crypto.cost import FREE_COSTS
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.net.message import Message
from repro.sim.engine import MILLISECONDS, Simulator
from tests.helpers import TEST_IID

DELTA = 10 * MILLISECONDS
MAX_ROUNDS = 6  # small, so runs also reach the livelock backstop
MESSAGE = ("cipher", (1, 2, 3, 4))


class SetReference:
    """Algorithm 3's receive side, BV-broadcast and VVB's VOTE0 path on
    plain sets and dicts.  Deliberately naive."""

    def __init__(self, pid, n, f):
        self.pid, self.n = pid, n
        self.quorum, self.small_quorum = n - f, f + 1
        self.now, self.timers, self.arm_order = 0, {}, itertools.count()
        self.out, self.decisions = [], []
        self.round, self.est, self.decided, self.decided_round = 1, None, None, None
        self.started = self.closed = self.sent_zero = self.has_message = False
        self.vvb_timer_started = False
        self.zero_votes, self.vvb_delivered = set(), set()
        self.bv_votes = defaultdict(set)  # (round, value) -> voters
        self.bv_voted, self.bv_delivered = set(), set()  # of (round, value)
        self.vvals = defaultdict(set)  # round -> values
        self.aux = defaultdict(dict)  # round -> {sender: frozenset of values}
        self.coord = {}
        self.coord_sent, self.expired = set(), set()
        self.aux_sent, self.advanced = set(), set()

    def _broadcast(self, kind, payload, size=0):
        payload = {"iid": TEST_IID, **payload}
        self.out.append((kind, payload, Message(kind, payload, size).size))

    # -- time --------------------------------------------------------------
    def _arm(self, name, delay, fn):
        self.timers[name] = (self.now + delay, next(self.arm_order), fn)

    def tick(self, dt):
        end = self.now + dt
        while True:
            due = [(d, order, name) for name, (d, order, _) in self.timers.items() if d <= end]
            if not due:
                break
            self.now, _, name = min(due)
            self.timers.pop(name)[2]()
        self.now = end

    def _join(self):
        if not (self.started or self.closed):
            self.started = True
            self._arm(("dbft", 1), DELTA, lambda: self._expire(1))

    def _expire(self, r):
        self.expired.add(r)
        self._maybe_aux(r)

    # -- VVB, the 0 path ---------------------------------------------------
    def vote0(self, sender):
        self._join()
        if sender in self.zero_votes:
            return
        self.zero_votes.add(sender)
        if not self.vvb_timer_started:
            self.vvb_timer_started = True
            self._arm("vvb", 2 * DELTA, self._vvb_timeout)
        if len(self.zero_votes) >= self.small_quorum:
            self._send_vote0()
        if len(self.zero_votes) >= self.quorum and 0 not in self.vvb_delivered:
            self.vvb_delivered.add(0)
            self._deliver(1, 0)

    def _send_vote0(self):
        if not self.sent_zero:
            self.sent_zero = True
            self._broadcast(VOTE0_KIND, {"seq": 0}, 16)

    def _vvb_timeout(self):
        if not self.vvb_delivered:
            self.sent_zero = False
            self._send_vote0()

    def one(self):
        """VVB hands ``(1, m)`` to the consensus layer."""
        self.has_message = True
        self._deliver(1, 1)

    # -- BV-broadcast ------------------------------------------------------
    def bv(self, r, b, sender):
        self._join()
        if not isinstance(r, int) or r < 2 or r > MAX_ROUNDS or b not in (0, 1):
            return
        self._bv_record(r, b, sender)

    def _bv_record(self, r, b, sender):
        votes = self.bv_votes[r, b]
        if sender in votes:
            return
        votes.add(sender)
        if len(votes) >= self.small_quorum:
            self._bv_vote(r, b)
        if len(votes) >= self.quorum and (r, b) not in self.bv_delivered:
            self.bv_delivered.add((r, b))
            self._deliver(r, b)

    def _bv_vote(self, r, b):
        if (r, b) not in self.bv_voted:
            self.bv_voted.add((r, b))
            self._broadcast(BV_KIND, {"round": r, "b": b})
            self._bv_record(r, b, self.pid)

    # -- Algorithm 3 -------------------------------------------------------
    def coord_msg(self, r, w, sender):
        self._join()
        if not isinstance(r, int) or r < 1 or w not in (0, 1):
            return
        if sender != r % self.n or r in self.coord:
            return
        self.coord[r] = w
        self._maybe_aux(r)

    def aux_msg(self, r, e, sender):
        self._join()
        if not isinstance(r, int) or r < 1 or not isinstance(e, (tuple, list)):
            return
        values = frozenset(v for v in e if v in (0, 1))
        if values and sender not in self.aux[r]:
            self.aux[r][sender] = values
            self._try_complete(r)

    def _deliver(self, r, b):
        if self.closed or b in self.vvals[r]:
            return
        self.vvals[r].add(b)
        if self.pid == r % self.n and r not in self.coord_sent:
            self.coord_sent.add(r)
            self._broadcast(COORD_KIND, {"round": r, "w": b}, 10)
        self._maybe_aux(r)
        self._try_complete(r)

    def _maybe_aux(self, r):
        if self.closed or r != self.round or r in self.aux_sent:
            return
        vvals = self.vvals[r]
        if not vvals or r not in self.expired:
            return
        c = self.coord.get(r)
        e = {c} if c is not None and c in vvals else vvals
        self.aux_sent.add(r)
        self._broadcast(AUX_KIND, {"round": r, "e": tuple(sorted(e))}, 10 + 2 * len(e))
        self._try_complete(r)

    def _try_complete(self, r):
        if self.closed or r != self.round or r in self.advanced or r not in self.aux_sent:
            return
        eligible = [e for e in self.aux[r].values() if e <= self.vvals[r]]
        if len(eligible) < self.quorum:
            return
        for v in (1, 0):  # n - f of them carrying the same singleton {v}?
            if sum(e == {v} for e in eligible) >= self.quorum:
                self.est = v
                if v == r % 2 and self.decided is None:
                    self.decided, self.decided_round = v, r
                    if v == 1 and not self.has_message:
                        self._broadcast(FETCH_KIND, {}, 8)
                    self.decisions.append(v)
                break
        else:
            self.est = r % 2
        self.advanced.add(r)
        if (
            self.decided_round is not None and r >= self.decided_round + 2
        ) or r + 1 > MAX_ROUNDS:
            self.closed = True
            self.timers.pop("vvb", None)
            for q in range(1, self.round + 1):
                self.timers.pop(("dbft", q), None)
            return
        self.round = r + 1
        if self.est in (0, 1):
            self._bv_vote(self.round, self.est)
        self._arm(("dbft", self.round), DELTA, lambda q=self.round: self._expire(q))
        self._maybe_aux(self.round)
        self._try_complete(self.round)


    # -- the test's side of the interface -----------------------------------
    def apply(self, op):
        kind, *args = op
        getattr(self, {"coord": "coord_msg", "aux": "aux_msg"}.get(kind, kind))(*args)

    def view(self):
        return {
            "state": (self.round, self.est, self.decided, self.decided_round, self.closed, self.started),
            "decisions": self.decisions,
            "vvals": {r: v for r, v in self.vvals.items() if v},
            "vvb_delivered": self.vvb_delivered,
            "bv_delivered": self.bv_delivered,
        }


class Compacted:
    """The real classes behind the same six operations."""

    def __init__(self, pid, n, f):
        self.sim = Simulator()
        self.out, self.decisions = [], []
        registry = KeyRegistry(1)
        services = ProtocolServices(
            pid=pid,
            n=n,
            f=f,
            sim=self.sim,
            delta_us=DELTA,
            signer=registry.signer(pid),
            registry=registry,
            threshold=ThresholdScheme(2 * f + 1, n, seed=1),
            costs=FREE_COSTS,
            send_fn=lambda dst, msg: self.out.append(("send", dst, msg.kind)),
            broadcast_fn=lambda msg: self.out.append((msg.kind, msg.payload, msg.size)),
        )
        self.instance = BinaryConsensus(
            services,
            TEST_IID,
            validate=lambda iid, cipher, preds: True,
            on_decide=lambda iid, v, m: self.decisions.append(v),
            max_rounds=MAX_ROUNDS,
        )

    def apply(self, op):
        instance, (kind, *args) = self.instance, op
        if kind == "tick":
            self.sim.run(until=self.sim.now + args[0])
        elif kind == "one":
            instance._vv1_deliver(1, MESSAGE)
        elif kind == "vote0":
            instance.on_vote0({"iid": TEST_IID, "seq": 0}, args[0])
        elif kind == "bv":
            instance.on_bv({"iid": TEST_IID, "round": args[0], "b": args[1]}, args[2])
        elif kind == "coord":
            instance.on_coord({"iid": TEST_IID, "round": args[0], "w": args[1]}, args[2])
        else:
            instance.on_aux({"iid": TEST_IID, "round": args[0], "e": args[1]}, args[2])

    def view(self):
        i = self.instance
        return {
            "state": (i.round, i.est, i.decided, i.decided_round, i.closed, i.started),
            "decisions": self.decisions,
            "vvals": {
                r: {b for b in (0, 1) if rec.vals >> b & 1}
                for r, rec in i._rounds.items()
                if rec.vals
            },
            "vvb_delivered": i.vvb.delivered,
            "bv_delivered": {
                (r, b)
                for r, rec in i._rounds.items()
                if rec.bv is not None
                for b in rec.bv.delivered
            },
        }


def check_interleaving(pid, n, f, ops):
    """Feed ``ops`` (an iterable, or a ``round -> op`` generator function
    called once per step) to both; returns the final view."""
    new, ref = Compacted(pid, n, f), SetReference(pid, n, f)
    if callable(ops):
        next_op = ops
        ops = (next_op(ref.round) for _ in itertools.count())
    for step, op in enumerate(ops):
        if op is None:
            break
        new.apply(op)
        ref.apply(op)
        assert new.out == ref.out, (step, op)
        assert new.view() == ref.view(), (step, op)
        del new.out[:], ref.out[:]
    return new.view()


ROUNDS = [1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, True, 0, -1, 7, 70, 10**9, None, "2"]
BITS = [0, 1, 0, 1, 0, 1, True, 1.0, 2, -1, None, "1"]
AUX_SETS = [
    (0,), (1,), (0, 1), (1, 0), (0,), (1,), [0], [1, 0], (0, 0), (True,), (0.0, 7),
    (), (2,), ("x",), ((0,),), [[1]], None, 5, "01",
]  # fmt: skip
TICKS = [DELTA // 2, DELTA, DELTA, 2 * DELTA]


def random_walk(rnd, n, length):
    """``round -> op``: mostly messages for the round the instance is in
    or about to enter (so quorums form and it advances), the rest drawn
    from the full junk lists; ``None`` after ``length`` steps."""
    steps = iter(range(length))

    def next_op(current_round):
        if next(steps, None) is None:
            return None
        sender = rnd.randrange(n)
        r, bit, values = rnd.choice(ROUNDS), rnd.choice(BITS), rnd.choice(AUX_SETS)
        if rnd.random() < 0.75:
            r = current_round + rnd.choice([0, 0, 0, 1, 1, -1])
            bit = rnd.choice([0, 1])
            values = rnd.choice([(0,), (1,), (0, 1)])
        kind = rnd.choice(["vote0", "bv", "bv", "aux", "aux", "aux", "coord", "tick", "one"])
        if kind == "vote0":
            return kind, sender
        if kind == "one":
            return (kind,)
        if kind == "tick":
            return kind, rnd.choice(TICKS)
        if kind == "aux":
            return kind, r, values, sender
        if kind == "coord" and isinstance(r, int) and rnd.random() < 0.7:
            sender = r % n  # mostly from the legitimate coordinator
        return kind, r, bit, sender

    return next_op


SHAPES = [(1, 4, 1), (2, 4, 1), (3, 7, 2)]  # (pid, n, f)


@pytest.mark.parametrize("pid,n,f", SHAPES)
def test_seeded_interleavings_match_the_set_reference(pid, n, f):
    decided, closed, deepest = set(), 0, 1
    for seed in range(150):
        view = check_interleaving(pid, n, f, random_walk(random.Random(seed), n, 60 * n))
        decided.add(view["state"][2])
        closed += view["state"][4]
        deepest = max(deepest, view["state"][0])
    # The walk is not stuck in round 1: both values get decided, rounds
    # advance well past the BV-broadcast rounds and instances close.
    assert {0, 1} <= decided and closed and deepest >= 4


def test_untouched_instance_allocates_no_per_round_state():
    instance = Compacted(1, 4, 1).instance
    assert not instance._rounds
    instance.on_bv({"iid": TEST_IID, "round": 10**9, "b": 1}, sender=0)
    instance.on_aux({"iid": TEST_IID, "round": 3, "e": ("junk",)}, sender=0)
    assert not instance._rounds


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the seeded walk above still runs
    pass
else:
    _sender = st.integers(0, 6)
    _round = st.sampled_from(ROUNDS)
    _op = st.one_of(
        st.tuples(st.just("vote0"), _sender),
        st.tuples(st.just("one")),
        st.tuples(st.just("tick"), st.sampled_from(TICKS)),
        st.tuples(st.just("bv"), _round, st.sampled_from(BITS), _sender),
        st.tuples(st.just("coord"), _round, st.sampled_from(BITS), _sender),
        st.tuples(st.just("aux"), _round, st.sampled_from(AUX_SETS), _sender),
    )

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(SHAPES), ops=st.lists(_op, max_size=120))
    def test_hypothesis_interleavings_match_the_set_reference(shape, ops):
        check_interleaving(*shape, ops)
