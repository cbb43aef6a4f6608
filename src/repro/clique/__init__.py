"""The congested clique simulator substrate.

This subpackage implements the model of Section 3 of the paper: ``n``
fully connected nodes computing in synchronous rounds, one message of
``O(log n)`` bits per ordered pair per round, unlimited local
computation.  Round counts reported by the engine are the paper's time
complexity measure.
"""

from .algorithm import run_algorithm
from .bits import BitReader, BitString, BitWriter, uint_width
from .errors import (
    BandwidthExceeded,
    CacheCorruption,
    CliqueError,
    DuplicateMessage,
    EncodingError,
    FaultInjected,
    InvalidAddress,
    ProtocolViolation,
    RoundLimitExceeded,
    RoutingOverload,
    SweepPointFailed,
)
from .graph import INF, CliqueGraph, edge_owner, private_bit_layout
from .network import CongestedClique, RunResult, default_bandwidth
from .node import Node
from .primitives import (
    agree_uint_max,
    all_broadcast,
    all_broadcast_concat,
    all_gather_uint,
    broadcast_from,
    chunks_needed,
    exchange,
    idle,
)
from .routing import ROUTE_SCHEMES, relay_min_bandwidth, route
from .simulation import VirtualNode, simulate_virtual_clique
from .sorting import distributed_sort
from .transcript import RoundRecord, Transcript

__all__ = [
    "BandwidthExceeded",
    "BitReader",
    "BitString",
    "BitWriter",
    "CacheCorruption",
    "CliqueError",
    "CliqueGraph",
    "CongestedClique",
    "DuplicateMessage",
    "EncodingError",
    "FaultInjected",
    "INF",
    "InvalidAddress",
    "Node",
    "ProtocolViolation",
    "ROUTE_SCHEMES",
    "RoundLimitExceeded",
    "RoundRecord",
    "RoutingOverload",
    "RunResult",
    "SweepPointFailed",
    "Transcript",
    "VirtualNode",
    "agree_uint_max",
    "all_broadcast",
    "all_broadcast_concat",
    "all_gather_uint",
    "broadcast_from",
    "chunks_needed",
    "default_bandwidth",
    "distributed_sort",
    "edge_owner",
    "exchange",
    "idle",
    "private_bit_layout",
    "relay_min_bandwidth",
    "route",
    "run_algorithm",
    "simulate_virtual_clique",
    "uint_width",
]
