"""Name → class registry for attack replicas.

A serialisable description (``ExperimentConfig.attack_nodes``) resolves
here into the replica classes and constructor kwargs the cluster builds,
so attack experiments — and fuzzer schedules — can ride the sweep cache
and cross process boundaries like any other config knob.

One flat table serves every protocol.  Lyra, Pompē and Fino replicas share
only the host shell (:class:`~repro.core.replica.Replica`), so an attack
class subclasses its own protocol's replica, and
:func:`repro.harness.cluster.check_cell` refuses one that does not
subclass the adapter's replica class.

This module only imports the attack node classes (which depend on
``repro.core`` and ``repro.baselines``, never on the harness), so cluster
builders can import it without a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.attacks.byzantine import (
    BackdatingNode,
    CipherReplayNode,
    EquivocatingNode,
    FloodingNode,
    FutureSequenceNode,
    PrefixStallerNode,
    SilentProposerNode,
)
from repro.attacks.corpus import PiggybackForgeryNode, SelectiveRevealNode
from repro.attacks.pompe_attacks import (
    BlindCensoringLeaderFino,
    CensoringLeaderNode,
    CherryPickingOrdererNode,
)

#: Every attack replica class, by stable name.  Names are wire format:
#: they appear in serialized ``ExperimentConfig.attack_nodes`` entries and
#: in saved fuzzer schedules, so renaming one is a breaking change.
ATTACK_NODE_CLASSES: Dict[str, type] = {
    "equivocate": EquivocatingNode,
    "silent-proposer": SilentProposerNode,
    "flood": FloodingNode,
    "future-sequence": FutureSequenceNode,
    "prefix-staller": PrefixStallerNode,
    "cipher-replay": CipherReplayNode,
    "selective-reveal": SelectiveRevealNode,
    "piggyback-forgery": PiggybackForgeryNode,
    "backdate": BackdatingNode,
    # Pompē.
    "censor-leader": CensoringLeaderNode,
    "cherry-pick": CherryPickingOrdererNode,
    # Fino.
    "blind-censor-leader": BlindCensoringLeaderFino,
}


def resolve_attack_nodes(
    attack_nodes: Mapping[int, Mapping[str, Any]],
) -> Tuple[Dict[int, type], Dict[int, dict]]:
    """Map ``ExperimentConfig.attack_nodes`` (checked and made canonical
    when the config was built) to the replica classes and constructor
    kwargs, keyed by pid."""
    classes: Dict[int, type] = {}
    kwargs: Dict[int, dict] = {}
    for pid, spec in attack_nodes.items():
        classes[pid] = ATTACK_NODE_CLASSES[spec["name"]]
        kwargs[pid] = dict(spec["kwargs"])
    return classes, kwargs


__all__ = ["ATTACK_NODE_CLASSES", "resolve_attack_nodes"]
