"""The pass manager: runs rewrite passes and collects legality evidence.

A *pass* is a callable ``(CompiledProgram) -> (CompiledProgram, PassReport)``
registered under a stable name.  :class:`PassManager` runs a pipeline of
them, verifying the structural invariants of the program after every
pass (see :func:`~.rewrite.verify_program`) and accumulating a
:class:`PipelineReport` -- a picklable record of what each pass did
(instruction counts before/after, per-pass notes, verification result)
that travels on ``CompiledProgram.opt_report`` into ``RunResult.stats``.

A pass that breaks a structural invariant aborts the pipeline with
:class:`ValueError` rather than shipping a corrupt program; bitwise
result identity with ``-O0`` is enforced separately by the differential
harness in ``tests/sial/test_passes_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..bytecode import CompiledProgram
from .rewrite import verify_program

__all__ = ["PassReport", "PipelineReport", "PassManager"]


@dataclass
class PassReport:
    """What one pass did to one program (picklable)."""

    name: str
    instructions_before: int = 0
    instructions_after: int = 0
    removed: int = 0
    inserted: int = 0
    #: free-form pass-specific facts ("folded 3 rpn ops", ...)
    notes: list[str] = field(default_factory=list)
    verified: bool = True

    @property
    def delta(self) -> int:
        return self.instructions_after - self.instructions_before


@dataclass
class PipelineReport:
    """Accumulated evidence for one pipeline run (picklable)."""

    level: int
    passes: list[PassReport] = field(default_factory=list)

    @property
    def instructions_before(self) -> int:
        return self.passes[0].instructions_before if self.passes else 0

    @property
    def instructions_after(self) -> int:
        return self.passes[-1].instructions_after if self.passes else 0

    def counters(self) -> dict[str, int]:
        """Flat ``opt_*`` counters for ``RunResult.stats``."""
        out = {
            "opt_level": self.level,
            "opt_instructions_before": self.instructions_before,
            "opt_instructions_after": self.instructions_after,
        }
        for rep in self.passes:
            out[f"opt_{rep.name}_removed"] = rep.removed
            out[f"opt_{rep.name}_inserted"] = rep.inserted
        return out

    def render(self) -> str:
        lines = [f"pass pipeline at -O{self.level}:"]
        for rep in self.passes:
            note = f"  ({'; '.join(rep.notes)})" if rep.notes else ""
            lines.append(
                f"  {rep.name:<18s} {rep.instructions_before:4d} -> "
                f"{rep.instructions_after:4d} instrs "
                f"(-{rep.removed} +{rep.inserted}){note}"
            )
        lines.append(
            f"  total              {self.instructions_before:4d} -> "
            f"{self.instructions_after:4d} instrs"
        )
        return "\n".join(lines)


Pass = Callable[[CompiledProgram], tuple[CompiledProgram, PassReport]]


class PassManager:
    """Runs an ordered pipeline of verified rewrite passes."""

    def __init__(self, level: int) -> None:
        self.level = level
        self._passes: list[tuple[str, Pass]] = []

    def add(self, name: str, fn: Pass) -> "PassManager":
        self._passes.append((name, fn))
        return self

    @property
    def passes(self) -> list[tuple[str, Pass]]:
        return list(self._passes)

    def run(self, prog: CompiledProgram) -> CompiledProgram:
        report = PipelineReport(level=self.level)
        for name, fn in self._passes:
            before = len(prog.instructions)
            prog, pass_report = fn(prog)
            pass_report.name = name
            pass_report.instructions_before = before
            pass_report.instructions_after = len(prog.instructions)
            verdict = verify_program(prog)
            pass_report.verified = bool(verdict)
            report.passes.append(pass_report)
            if not verdict:
                raise ValueError(
                    f"optimizer pass {name!r} broke the program:\n"
                    + verdict.render()
                )
        prog.opt_level = self.level
        prog.opt_report = report
        # the passes were the AST's last reader; a run should not keep
        # it resident beside its blocks
        prog.analysis = None
        return prog
