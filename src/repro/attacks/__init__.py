"""Reordering attacks and Byzantine behaviours (§I Fig. 1, §V-E, §VI-D).

- :mod:`repro.attacks.byzantine` — Byzantine Lyra replicas: equivocating
  broadcasters, prefix stallers, flooders, future-sequence spammers,
  silent/partial proposers, cipher replayers and Fig. 1's backdating
  front-runner.
- :mod:`repro.attacks.pompe_attacks` — Byzantine Pompē participants:
  the censoring HotStuff leader and the timestamp cherry-picking orderer.
- :mod:`repro.attacks.corpus` — the commit-reveal / piggyback attack
  corpus: selective-reveal and piggyback-forgery replicas plus the named
  :data:`~repro.attacks.corpus.CORPUS` cases mapped to the audit findings
  they stress.
- :mod:`repro.attacks.registry` — the name→class registry resolving
  ``ExperimentConfig.attack_nodes`` into cluster builder maps.
- :mod:`repro.attacks.fuzz` — the seeded adversarial-schedule fuzzer
  (generate / run / shrink / replay).
"""

from repro.attacks.byzantine import (
    BackdatingNode,
    CipherReplayNode,
    EquivocatingNode,
    FloodingNode,
    FutureSequenceNode,
    PrefixStallerNode,
    SilentProposerNode,
)
from repro.attacks.pompe_attacks import (
    CensoringLeaderNode,
    CherryPickingOrdererNode,
)
from repro.attacks.corpus import (
    CORPUS,
    CorpusCase,
    PiggybackForgeryNode,
    SelectiveRevealNode,
)
from repro.attacks.registry import ATTACK_NODE_CLASSES, resolve_attack_nodes

__all__ = [
    "BackdatingNode",
    "CipherReplayNode",
    "EquivocatingNode",
    "FloodingNode",
    "FutureSequenceNode",
    "PrefixStallerNode",
    "SilentProposerNode",
    "CensoringLeaderNode",
    "CherryPickingOrdererNode",
    "SelectiveRevealNode",
    "PiggybackForgeryNode",
    "CorpusCase",
    "CORPUS",
    "ATTACK_NODE_CLASSES",
    "resolve_attack_nodes",
]
