"""Lyra's core: the paper's contribution (Algorithms 1-4).

- :mod:`repro.core.vvb` — Validating Value Broadcast (Algorithm 1).
- :mod:`repro.core.dbft` — modified DBFT binary consensus (Algorithm 3).
- :mod:`repro.core.distance` — sequence-number prediction (§IV-B).
- :mod:`repro.core.commit` — the Commit protocol (Algorithm 4).
- :mod:`repro.core.replica` — the replica shell Lyra, Pompē and Fino
  share: services wiring, the client path, batching, execution hooks.
- :mod:`repro.core.node` — the full Lyra replica (ordered-propose,
  Algorithm 2) on that shell.
- :mod:`repro.core.smr` — SMR-safety / lower-boundedness oracles.
"""

from repro.core.types import AcceptedEntry, Batch, InstanceId, Transaction
from repro.core.clocks import OrderingClock, PerceivedSequence
from repro.core.distance import DistanceEstimator, requested_sequence
from repro.core.services import ProtocolServices
from repro.core.bv_broadcast import BinaryValueBroadcast
from repro.core.vvb import VvbInstance, message_digest
from repro.core.dbft import BinaryConsensus
from repro.core.commit import CommitConfig, CommitState, NO_PENDING
from repro.core.batching import Mempool
from repro.core.obfuscation import (
    HashCommitObfuscation,
    VssObfuscation,
    make_obfuscation,
)
from repro.core.replica import Replica
from repro.core.node import LyraConfig, LyraNode
from repro.core.smr import (
    check_lower_bounded,
    check_output_sorted,
    check_prefix_consistency,
    front_running_succeeded,
)

__all__ = [
    "AcceptedEntry",
    "Batch",
    "InstanceId",
    "Transaction",
    "OrderingClock",
    "PerceivedSequence",
    "DistanceEstimator",
    "requested_sequence",
    "ProtocolServices",
    "BinaryValueBroadcast",
    "VvbInstance",
    "message_digest",
    "BinaryConsensus",
    "CommitConfig",
    "CommitState",
    "NO_PENDING",
    "Mempool",
    "HashCommitObfuscation",
    "VssObfuscation",
    "make_obfuscation",
    "Replica",
    "LyraConfig",
    "LyraNode",
    "check_lower_bounded",
    "check_output_sorted",
    "check_prefix_consistency",
    "front_running_succeeded",
]
