"""Name → class registry for attack replicas.

A serialisable description (``ExperimentConfig.attack_nodes``) resolves
here into the ``node_classes`` / ``node_kwargs`` maps the cluster takes, so
attack experiments — and fuzzer schedules — can ride the sweep cache and
cross process boundaries like any other config knob.

This module only imports the attack node classes (which depend on
``repro.core``, never on the harness), so cluster builders can import it
without a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.attacks.byzantine import (
    CipherReplayNode,
    EquivocatingNode,
    FloodingNode,
    FutureSequenceNode,
    PrefixStallerNode,
    SilentProposerNode,
)
from repro.attacks.corpus import PiggybackForgeryNode, SelectiveRevealNode

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
}


def resolve_attack_nodes(
    attack_nodes: Mapping[int, Mapping[str, Any]],
) -> Tuple[Dict[int, type], Dict[int, dict]]:
    """Map ``ExperimentConfig.attack_nodes`` (checked and made canonical
    when the config was built) to the ``(node_classes, node_kwargs)``
    builder maps, keyed by pid."""
    classes: Dict[int, type] = {}
    kwargs: Dict[int, dict] = {}
    for pid, spec in attack_nodes.items():
        classes[pid] = ATTACK_NODE_CLASSES[spec["name"]]
        kwargs[pid] = dict(spec["kwargs"])
    return classes, kwargs


__all__ = ["ATTACK_NODE_CLASSES", "resolve_attack_nodes"]
