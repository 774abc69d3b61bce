"""Simulated wide-area network substrate.

Models the paper's experimental platform: nodes spread over AWS regions on
three continents, connected by authenticated reliable channels whose
latencies follow published inter-region figures (including the triangle-
inequality violations of Fig. 1), with per-node NIC bandwidth.  One
:class:`~repro.net.faults.FaultPlan` describes everything the wire does
wrong: the partial-synchrony adversary (fixed delays, partition holds and
random delays, all over by the plan's ``gst_us``) and the lossy links,
duplicates, corruption and crashes the model itself rules out.
"""

from repro.net.message import Message, estimate_size
from repro.net.latency import (
    LatencyModel,
    GeoLatencyModel,
    UniformLatencyModel,
    AWS_ONE_WAY_MS,
    triangle_violations,
)
from repro.net.topology import Topology, EVAL_REGIONS, FIG1_REGIONS
from repro.net.bandwidth import BandwidthModel, NicQueue
from repro.net.faults import (
    CrashEvent,
    FaultInjector,
    FaultPlan,
    FaultStats,
    LinkFault,
    partition_faults,
)
from repro.net.network import Network, NetworkConfig
from repro.net.reliable import ReliableConfig, ReliableLayer, ReliableStats

__all__ = [
    "Message",
    "estimate_size",
    "LatencyModel",
    "GeoLatencyModel",
    "UniformLatencyModel",
    "AWS_ONE_WAY_MS",
    "triangle_violations",
    "Topology",
    "EVAL_REGIONS",
    "FIG1_REGIONS",
    "BandwidthModel",
    "NicQueue",
    "LinkFault",
    "partition_faults",
    "CrashEvent",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
    "ReliableLayer",
    "ReliableConfig",
    "ReliableStats",
    "Network",
    "NetworkConfig",
]
