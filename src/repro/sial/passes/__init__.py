"""The SIAL optimizing middle-end: verified passes between compiler and SIP.

The compiler emits naive, source-shaped bytecode; the SIP executes
whatever it is handed.  This package sits between them: a
:class:`~.manager.PassManager` pipeline of independent rewrite passes,
each of which must leave the program *structurally valid* (checked by
:func:`~.rewrite.verify_program` after every pass) and *bitwise
identical* in observable results to the unoptimized program (enforced
by the differential harness over every bundled program and backend).

Levels:

* ``-O0`` -- no passes; the compiler's output runs verbatim.
* ``-O1`` -- cheap, always-profitable cleanups: constant folding and
  RPN dedup, dead-instruction/dead-temp elimination.
* ``-O2`` -- everything: ``-O1`` plus contraction fusion, loop-
  invariant fetch hoisting, pardo prefetch insertion, and race-check-
  proven barrier coalescing.  DCE runs *after* fusion so the fused
  temps' writes and descriptors are swept up.
"""

from __future__ import annotations

from ..bytecode import CompiledProgram
from .barriers import coalesce_barriers
from .constfold import fold_constants
from .dce import eliminate_dead
from .fuse import fuse_contractions
from .hoist import (
    eliminate_redundant_fetches,
    hoist_invariants,
    insert_prefetches,
)
from .manager import PassManager, PassReport, PipelineReport
from .rewrite import Rewriter, verify_program

__all__ = [
    "PassManager",
    "PassReport",
    "PipelineReport",
    "Rewriter",
    "build_pipeline",
    "coalesce_barriers",
    "eliminate_dead",
    "eliminate_redundant_fetches",
    "fold_constants",
    "fuse_contractions",
    "hoist_invariants",
    "insert_prefetches",
    "optimize_program",
    "verify_program",
]


def build_pipeline(level: int) -> PassManager:
    """The standard pipeline for one ``-O`` level."""
    pm = PassManager(level)
    if level >= 1:
        pm.add("constfold", fold_constants)
        pm.add("dce", eliminate_dead)
    if level >= 2:
        pm.add("fuse", fuse_contractions)
        pm.add("dce2", eliminate_dead)
        pm.add("hoist", hoist_invariants)
        pm.add("dedup_fetch", eliminate_redundant_fetches)
        pm.add("prefetch", insert_prefetches)
        pm.add("barriers", coalesce_barriers)
    return pm


def optimize_program(prog: CompiledProgram, level: int) -> CompiledProgram:
    """Run the ``-O{level}`` pipeline; ``-O0`` returns the program as-is.

    Idempotent per program object: a program already optimized at the
    requested (or a higher) level is returned unchanged, and the result
    for each level is remembered on the input program, so callers can
    apply the config level unconditionally and pay the passes once.
    """
    if not 0 <= level <= 2:
        raise ValueError(f"optimization level must be 0..2, got {level}")
    if level == 0 or prog.opt_level >= level:
        return prog
    done = prog.optimized.get(level)
    if done is None:
        done = prog.optimized[level] = build_pipeline(level).run(prog)
    return done
