"""What a run keeps in memory is its *live* protocol state.

``Simulator.run`` suspends the cyclic garbage collector, so every object the
hot path allocates must die by reference count: an acked frame, a fired or
cancelled timer, a consensus instance past its linger window.  These tests
run small clusters with the collector off and then ask it what it would have
had to clean up, and check that state at the horizon does not grow with the
length of the run.
"""

import gc
import weakref
from collections import Counter
from types import FunctionType

import pytest

from repro.baselines.pompe import OrderingCert
from repro.bench.suite import CELLS, Row
from repro.core.dbft import BinaryConsensus
from repro.core.types import InstanceId
from repro.core.vvb import VOTE1_KIND
from repro.harness import build_cluster
from repro.harness.config import ExperimentConfig
from repro.net.faults import CrashEvent, FaultPlan, LinkFault
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import MILLISECONDS, Simulator
from repro.sim.process import SimProcess
from repro.workload.spec import ClientGroup, WorkloadSpec
from tests.helpers import quick_lyra_config

#: Per-message and per-instance classes: one of these in a cycle means the
#: leak grows with the run.  A queue record is an ``Event`` only when it
#: came with a handle; the fire-and-forget ones are plain lists, so a
#: stranded record is recognised by shape (``"record"``, see ``_kind``) —
#: and what it pins (a ``Message``, a ``_Pending``, an instance) shows up
#: under its own name as well.
HOT_PATH_TYPES = {
    "_Pending",
    "Event",
    "record",
    "Message",
    "BinaryConsensus",
    "VvbInstance",
    "BinaryValueBroadcast",
    "OrderingCert",
    "Block",
    "QuorumCert",
}
#: Ceiling on end-of-run cycles of any other kind (``inspect``/``ast``
#: closures from consolidation — a constant, not a rate).
MAX_UNREACHABLE = 500

def _chaos_config():
    plan = FaultPlan(
        links=(LinkFault(drop_rate=0.15, duplicate_rate=0.05, corrupt_rate=0.02),),
        crashes=(
            CrashEvent(
                pid=2,
                crash_at_us=800 * MILLISECONDS,
                recover_at_us=1200 * MILLISECONDS,
            ),
        ),
    )
    return quick_lyra_config(
        seed=1,
        batch_size=8,
        client_window=4,
        duration_us=2000 * MILLISECONDS,
        fault_plan=plan,
        reliable_channels=True,
    )


def _mev_open_config():
    spec = WorkloadSpec(
        groups=(
            ClientGroup(
                name="traffic",
                client="arrival",
                count_per_node=1,
                arrival={"kind": "poisson", "rate_tps": 40.0},
                body="raw",
                users=1000,
            ),
            ClientGroup(
                name="victims",
                client="arrival",
                count=1,
                home=0,
                arrival={"kind": "poisson", "rate_tps": 2.0},
                body="amm",
                body_params={"amount_min": 1_000, "amount_max": 5_000},
            ),
            ClientGroup(name="mev", client="mev", count=1, home=1, collude=True),
        ),
        fairness=True,
        users=1000,
    )
    return ExperimentConfig(
        n_nodes=4,
        seed=1,
        regions=["tokyo", "singapore", "saopaulo", "saopaulo"],
        batch_size=1,
        duration_us=2000 * MILLISECONDS,
        warmup_rounds=2,
        warmup_spacing_us=150 * MILLISECONDS,
        workload=spec,
    )


#: The two closed-loop shapes are pinned bench rows; the chaos and
#: open-loop ones differ from theirs in client rig and offered rate.
SHAPES = {
    "lyra_chaos": Row(_chaos_config),
    "lyra_closed": CELLS["lyra_n32_closed_smoke"],
    "lyra_mev_open": Row(_mev_open_config),
    "pompe_closed": CELLS["pompe_n100_closed_smoke"],
}


def _kind(obj):
    """Type name, with the engine's ``[time, priority, seq, fn, args]``
    lists told apart from every other list."""
    if (
        type(obj) is list
        and len(obj) == 5
        and type(obj[0]) is int
        and type(obj[2]) is int
        and (obj[3] is None or callable(obj[3]))
        and (obj[4] is None or type(obj[4]) is tuple)
    ):
        return "record"
    return type(obj).__name__


def _run_collector_off(cluster):
    """Run ``cluster`` with the collector suspended; return the result and
    the type names of everything only a cyclic collection could free."""
    return _collector_off(cluster.run)


def _collector_off(body):
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()  # garbage of earlier tests is not this run's
    gc.disable()
    try:
        result = body()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return result, Counter(_kind(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_hot_path_is_cycle_free(shape):
    cluster = build_cluster(SHAPES[shape].build(), protocol=SHAPES[shape].protocol)
    result, unreachable = _run_collector_off(cluster)
    assert result.committed_count > 0
    if shape == "lyra_chaos":
        # The lossy, crashing run did take the retransmit and recovery
        # paths the leaks used to sit on.
        assert result.fault_stats["retransmits"] > 0
        assert cluster.nodes[2].recoveries == 1
    leaked = {name: unreachable[name] for name in HOT_PATH_TYPES if unreachable[name]}
    assert not leaked
    assert sum(unreachable.values()) < MAX_UNREACHABLE, unreachable.most_common(5)


def _live_state(cluster):
    """(live consensus instances, wheel entries, unacked frames) now."""
    services = {id(node.services) for node in cluster.nodes}
    instances = sum(
        1
        for obj in gc.get_objects()
        if type(obj) is BinaryConsensus and id(obj.services) in services
    )
    timers = sum(len(node.services.timers._timers) for node in cluster.nodes)
    unacked = sum(
        len(link.unacked) for link in cluster.network.reliable._senders.values()
    )
    return instances, timers, unacked


def _sampled_run(cluster, sample):
    """Run ``cluster`` with the collector off, calling ``sample()`` every
    250 ms over seconds 2–8; return the result and the samples by ms."""
    samples = {}
    for t_ms in range(2250, 8001, 250):
        cluster.sim.schedule_at(
            t_ms * MILLISECONDS,
            lambda t_ms=t_ms: samples.__setitem__(t_ms, sample()),
        )
    result, _ = _run_collector_off(cluster)
    return result, samples


def _assert_no_growth(samples, names):
    """Each sampled quantity peaks over seconds 6–8 at no more than 1.25×
    its peak over seconds 2–4 (and is not zero throughout)."""
    first = [state for t_ms, state in samples.items() if t_ms <= 4000]
    second = [state for t_ms, state in samples.items() if t_ms > 6000]
    for i, what in enumerate(names):
        early = max(state[i] for state in first)
        late = max(state[i] for state in second)
        assert 0 < late <= 1.25 * early, (what, samples)


def test_state_is_bounded_by_the_linger_window_not_run_length():
    """Live state over the second 4 s of a run is no larger than over the
    first 4 s.  One run sampled every 250 ms instead of a 4 s and an 8 s
    run compared at their horizons: a single instant sits at an arbitrary
    phase of the closed loop (wheel entries swing 16..42 here), the peak
    over a window does not."""
    cluster = build_cluster(
        quick_lyra_config(seed=1, duration_us=8_000_000, reliable_channels=True)
    )

    def sample():
        state = _live_state(cluster)
        # Every instance still alive is one a node still owns: nothing a
        # node has forgotten is pinned by a timer, an event or a cycle.
        assert state[0] == sum(len(node._instances) for node in cluster.nodes)
        return state

    result, samples = _sampled_run(cluster, sample)
    assert result.committed_count > 0
    assert sum(len(node._finished) for node in cluster.nodes) > 100
    _assert_no_growth(samples, ("instances", "wheel entries", "unacked frames"))


def test_comparison_side_state_is_bounded_by_run_length():
    """The Pompē twin of the test above: ordering certificates and
    HotStuff share buckets alive over seconds 6–8 of a run are no more
    than over seconds 2–4.  A decided height keeps a payload-free record
    and a formed QC's bucket is dropped, so neither grows with the run."""
    # The ``pompe_closed`` shape, 8 s long.
    cluster = build_cluster(
        quick_lyra_config(seed=1, duration_us=8_000_000, jitter=0.0),
        protocol="pompe",
    )

    def sample():
        certs = sum(1 for obj in gc.get_objects() if type(obj) is OrderingCert)
        buckets = sum(
            1
            for node in cluster.nodes
            for bucket in node.hotstuff._leader_shares.values()
            if bucket
        )
        return certs, buckets

    result, samples = _sampled_run(cluster, sample)
    assert result.committed_count > 0
    assert sum(len(node.hotstuff.decided_blocks) for node in cluster.nodes) > 100
    _assert_no_growth(samples, ("ordering certificates", "share buckets"))


def test_a_stranded_record_is_named_in_the_garbage():
    """The scan above sees plain-list records and what they carry."""

    class Message:
        pass

    def strand():
        message = Message()
        message.pinned_by = [7, 0, 3, print, (message, 1, 0)]  # a cycle

    _, found = _collector_off(strand)
    assert found["record"] == 1 and found["Message"] == 1


def test_acked_frame_dies_when_its_rto_is_cancelled_not_when_its_slot_drains():
    class Body:
        pass

    sim = Simulator()
    net = Network(
        sim, UniformLatencyModel(5 * MILLISECONDS),
        config=NetworkConfig(bandwidth_enabled=False),
    )
    reliable = net.enable_reliable()
    a, b = SimProcess(0, sim), SimProcess(1, sim)
    net.register(a)
    net.register(b)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # ``Message`` and ``_Pending`` are slotted without ``__weakref__``;
        # the body only the frame's inner message holds stands in for them.
        body = Body()
        ref = weakref.ref(body)
        a.send(1, Message("hello", body, 100))
        del body
        (pending,) = reliable._senders[(0 << 20) | 1].unacked.values()
        assert pending.frame.payload["inner"].payload is ref()
        rto = pending.event
        del pending
        while reliable.in_flight(0, 1):
            assert ref() is not None
            assert sim.step()
        # The ack has just landed: the RTO is cancelled but still queued,
        # in a slot the clock has not reached.
        assert rto.cancelled and rto.fn is None and rto.args is None
        assert sim.pending == 1 and rto.time > sim.now + 10 * MILLISECONDS
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_gc_instance_frees_the_instance_by_reference_count():
    cluster = build_cluster(quick_lyra_config(seed=1, duration_us=1_500_000))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cluster.run()
        node = cluster.nodes[0]
        refs = {
            iid: weakref.ref(instance) for iid, instance in node._instances.items()
        }
        assert refs
        for iid, ref in refs.items():
            assert ref() is not None
            node._gc_instance(iid)
            assert ref() is None
        assert not node._instances
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Per-(instance, replica) state: every replica runs every proposer's
# instance at once, so what one instance holds is multiplied by n².
# ----------------------------------------------------------------------
def _functions():
    return sum(1 for obj in gc.get_objects() if type(obj) is FunctionType)


def test_joining_an_instance_creates_no_function_object():
    """The node's callbacks are bound once and handed the iid; the round
    timer, the BV rounds and the linger are queued without closures."""
    cluster = build_cluster(quick_lyra_config(seed=1))
    node = cluster.nodes[0]
    warm = node._instance(InstanceId(1, 10_000))
    warm.join()
    warm._bv_for(2)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _functions()
        iid = InstanceId(1, 10_001)
        instance = node._instance(iid)
        instance.join()
        instance._bv_for(2)
        instance._bv_for(3)
        node._schedule_gc(iid)
        assert _functions() == before
    finally:
        if was_enabled:
            gc.enable()


def test_a_vvb_that_delivered_one_holds_no_shares():
    """Once 1 is delivered nothing reads the share buckets: they are
    dropped, and a later VOTE1 is verified and sampled but not stored."""
    cluster = build_cluster(quick_lyra_config(seed=1, duration_us=1_500_000))
    cluster.run()
    node = cluster.nodes[0]
    own = [
        (iid, instance)
        for iid, instance in node._instances.items()
        if iid.proposer == node.pid
        and iid in node._s_ref
        and 1 in instance.vvb.delivered
    ]
    assert own
    for iid, instance in own:
        vvb = instance.vvb
        assert vvb._shares == {}
        sender = 2
        samples = node.estimator.samples(sender)
        share = cluster.nodes[sender].services.threshold_signer.share_sign(
            vvb.message_digest
        )
        seq = node._s_ref[iid] + 1_234
        vote = {"iid": iid, "digest": vvb.message_digest, "share": share, "seq": seq}
        node._process(Message(VOTE1_KIND, vote, 64), sender)
        assert vvb._shares == {}
        assert node.estimator.samples(sender) == samples + 1
        assert list(node.estimator._history[sender])[-1] == 1_234.0
