"""High-level public API of the Super Instruction Architecture reproduction.

Typical use::

    from repro import api

    program = api.compile_sial(source)          # SIAL -> SIA bytecode
    config = api.SIPConfig(workers=8, segment_size=4)
    report = api.dry_run(program, config, symbolics={"norb": 32})
    result = api.run(program, config, symbolics={"norb": 32})
    result.array("R"), result.scalar("e"), result.profile.report()
"""

from __future__ import annotations

from typing import Optional, Union

from .machines import MACHINES, Machine, get_machine
from .sial import CompiledProgram, compile_source, disassemble
from .sip import RunResult, SIPConfig
from .sip.blocks import ResolvedIndexTable
from .sip.dryrun import DryRunReport
from .sip.dryrun import dry_run as _dry_run
from .sip.runner import run_program

__all__ = [
    "MACHINES",
    "Machine",
    "SIPConfig",
    "compile_sial",
    "disassemble",
    "dry_run",
    "get_machine",
    "run",
]


def compile_sial(source: str, filename: str = "<sial>") -> CompiledProgram:
    """Compile SIAL source text into SIA bytecode, optimized at ``-O2``."""
    return compile_source(source, filename)


def run(
    program: Union[str, CompiledProgram],
    config: Optional[SIPConfig] = None,
    symbolics: Optional[dict[str, float]] = None,
) -> RunResult:
    """Execute a SIAL program (source or compiled) on the simulated SIP."""
    if isinstance(program, str):
        # verbatim: run_program applies the config's -O level
        program = compile_source(program, optimize=0)
    return run_program(program, config, symbolics)


def dry_run(
    program: Union[str, CompiledProgram],
    config: Optional[SIPConfig] = None,
    symbolics: Optional[dict[str, float]] = None,
) -> DryRunReport:
    """The master's memory-feasibility analysis, without executing."""
    config = config if config is not None else SIPConfig()
    if isinstance(program, str):
        program = compile_source(program, optimize=config.opt_level)
    table = ResolvedIndexTable(
        program,
        symbolics or {},
        segment_size=config.segment_size,
        segment_sizes=config.segment_sizes,
        subsegments_per_segment=config.subsegments_per_segment,
    )
    return _dry_run(program, config, table)
