"""SIP: the Super Instruction Processor.

The parallel virtual machine that executes SIA bytecode (paper,
Section V): a master that analyses memory in a dry run and doles out
pardo chunks, workers interpreting bytecode with asynchronous block
communication, lookahead prefetching and LRU block caches, and I/O
servers backing disk-resident (served) arrays with write-back caches
and asynchronous disk I/O -- all on the deterministic simulated MPI of
:mod:`repro.simmpi`.
"""

from ..simmpi.faults import (
    DiskFault,
    FaultPlan,
    FaultReport,
    FaultStats,
    ResilienceStats,
    WorkerCrashed,
)
from .backend import KernelOperand, ModelBackend, RealBackend
from .blocks import Block, BlockId, ResolvedIndexTable
from .cache import BlockCache
from .config import SIPConfig, SIPError
from .distributed import Placement, ReplicaMap
from .dryrun import DryRunReport, InfeasibleComputation, dry_run
from .memory import BlockPool, OutOfBlockMemory
from .profiling import RunProfile, WorkerProfile
from .registry import GLOBAL_REGISTRY, SuperCall, SuperInstructionRegistry, register
from .runner import RunResult, run_program, run_source
from .sanitizer import (
    AccessPoint,
    BarrierViolation,
    SanitizerConflict,
    SanitizerReport,
)
from .scheduler import (
    GuidedScheduler,
    LocalityScheduler,
    SchedStats,
    StaticScheduler,
    enumerate_pardo,
    make_scheduler,
)
from .tracing import SchedTraceEvent, TraceRecorder
from .transport import BarrierHandle, CommEndpoint, TransportWorld

__all__ = [
    "AccessPoint",
    "BarrierHandle",
    "BarrierViolation",
    "CommEndpoint",
    "TransportWorld",
    "Block",
    "BlockCache",
    "BlockId",
    "BlockPool",
    "DiskFault",
    "DryRunReport",
    "FaultPlan",
    "FaultReport",
    "FaultStats",
    "GLOBAL_REGISTRY",
    "GuidedScheduler",
    "InfeasibleComputation",
    "KernelOperand",
    "ModelBackend",
    "OutOfBlockMemory",
    "Placement",
    "RealBackend",
    "ResilienceStats",
    "ResolvedIndexTable",
    "RunProfile",
    "RunResult",
    "SIPConfig",
    "SIPError",
    "SanitizerConflict",
    "SanitizerReport",
    "LocalityScheduler",
    "ReplicaMap",
    "SchedStats",
    "SchedTraceEvent",
    "StaticScheduler",
    "SuperCall",
    "TraceRecorder",
    "make_scheduler",
    "SuperInstructionRegistry",
    "WorkerCrashed",
    "WorkerProfile",
    "dry_run",
    "enumerate_pardo",
    "register",
    "run_program",
    "run_source",
]
