"""Simulated MPI substrate for the SIP runtime.

The paper's SIP runs on real MPI clusters; this package provides a
deterministic discrete-event stand-in with the same programming model
(non-blocking sends/receives, tags, barriers, asynchronous disk I/O)
plus explicit machine performance parameters, so that the runtime's
overlap, prefetching and scheduling behaviour can be both *executed*
(real numpy data) and *measured* (simulated seconds) on one laptop.
"""

from .comm import (
    ANY_SOURCE, ANY_TAG, Barrier, Message, Request, SimComm, World, WorldStats
)  # fmt: skip
from .disk import Disk, DiskStats
from .faults import (
    DiskFault,
    FaultEvent,
    FaultPlan,
    FaultReport,
    FaultStats,
    ResilienceStats,
    WorkerCrashed,
)
from .network import Network, payload_nbytes
from .simulator import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AllOf",
    "AnyOf",
    "Barrier",
    "DeadlockError",
    "Disk",
    "DiskFault",
    "DiskStats",
    "Event",
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "FaultStats",
    "ResilienceStats",
    "WorkerCrashed",
    "Message",
    "Network",
    "Process",
    "Request",
    "SimComm",
    "SimulationError",
    "Simulator",
    "Timeout",
    "World",
    "WorldStats",
    "payload_nbytes",
]
