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

from typing import Any, Dict, Mapping, Tuple, Union

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

#: One attack assignment: a bare registry name, or {"name": ..., "kwargs": {...}}.
AttackSpec = Union[str, Mapping[str, Any]]


def resolve_attack_nodes(
    attack_nodes: Mapping[Union[int, str], AttackSpec], n: int
) -> Tuple[Dict[int, type], Dict[int, dict]]:
    """Resolve ``ExperimentConfig.attack_nodes`` into builder maps.

    Keys may be ints or their string form (JSON object keys); values are
    registry names or ``{"name", "kwargs"}`` mappings.  Returns
    ``(node_classes, node_kwargs)`` keyed by pid.
    """
    classes: Dict[int, type] = {}
    kwargs: Dict[int, dict] = {}
    for raw_pid, spec in attack_nodes.items():
        pid = int(raw_pid)
        if not 0 <= pid < n:
            raise ValueError(f"attack_nodes targets unknown pid {pid} (n={n})")
        if isinstance(spec, str):
            spec = {"name": spec}
        unknown = set(spec) - {"name", "kwargs"}
        if unknown:
            raise ValueError(
                f"unknown attack_nodes fields for pid {pid}: {sorted(unknown)}"
            )
        name = spec.get("name")
        cls = ATTACK_NODE_CLASSES.get(name)
        if cls is None:
            raise ValueError(
                f"unknown attack node class {name!r}; known: "
                f"{sorted(ATTACK_NODE_CLASSES)}"
            )
        classes[pid] = cls
        extra = dict(spec.get("kwargs") or {})
        # JSON round-trips tuples as lists; node constructors normalise.
        kwargs[pid] = extra
    return classes, kwargs


__all__ = ["ATTACK_NODE_CLASSES", "resolve_attack_nodes"]
