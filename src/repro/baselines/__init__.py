"""Baselines reimplemented from scratch (§VI compares against Pompē [32]).

- :mod:`repro.baselines.hotstuff` — HotStuff [30]: leader-based 3-phase
  BFT consensus with threshold-signature quorum certificates, pipelined
  heights and view changes.  Pompē's consensus substrate.
- :mod:`repro.baselines.pompe` — Pompē's Byzantine ordered consensus:
  an ordering phase (2f+1 signed timestamps, median assignment) feeding
  ordering certificates into HotStuff, with timestamp-ordered execution
  behind a stability watermark.
- :mod:`repro.baselines.fino` — Fino-style commit-reveal SMR [23]
  ("blind order-fairness"): payload obfuscation without leaderlessness.
"""

from repro.baselines.hotstuff import Block, HotStuffParticipant, QuorumCert
from repro.baselines.pompe import OrderingCert, PompeConfig, PompeNode
from repro.baselines.fino import FinoConfig, FinoNode

__all__ = [
    "Block",
    "QuorumCert",
    "HotStuffParticipant",
    "OrderingCert",
    "PompeConfig",
    "PompeNode",
    "FinoNode",
    "FinoConfig",
]
