"""Compiler from the analyzed SIAL AST to SIA bytecode.

The translation is a straightforward single pass: loops become
START/END instruction pairs with explicit jump targets, `if` becomes a
conditional branch, block statements become one super instruction each
(the analyzer already guaranteed the single-operation property), and
procedures are compiled after the main body with call sites patched at
the end.

Every loop START instruction additionally carries the program counters
of the GET/REQUEST instructions inside its body that the loop can
resolve (:func:`~.passes.rewrite.loop_get_pcs`); the SIP's lookahead
prefetcher uses these to issue block requests for upcoming iterations
(paper, Section V-A: "The SIP looks ahead and requests several blocks
that it expects will be needed soon").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ast_nodes as ast
from .analyzer import (
    FORM_ADD,
    FORM_CONTRACT,
    FORM_COPY,
    FORM_FILL,
    FORM_NEGATE,
    FORM_SCALAR_RHS,
    FORM_SCALE,
    AnalyzedProgram,
    analyze,
)
from .bytecode import (
    ArrayDesc,
    BlockOperand,
    CompiledCondition,
    CompiledProgram,
    IndexDesc,
    Instr,
    Op,
    OPS,
)
from .errors import SemanticError, SourceLocation
from .parser import parse
from .passes.rewrite import loop_get_pcs
from .symbols import (
    ArraySymbol,
    IndexSymbol,
    ScalarSymbol,
    SubindexSymbol,
    SymbolicSymbol,
)

__all__ = ["compile_program", "compile_source"]


def compile_source(
    source: str, filename: str = "<sial>", optimize: int = 2
) -> CompiledProgram:
    """Parse, analyze and compile SIAL source text.

    ``optimize`` selects the middle-end level (``-O0``..``-O2``, see
    :mod:`repro.sial.passes`); the default runs the full pipeline, and
    ``optimize=0`` returns the compiler's output verbatim.
    """
    program = parse(source, filename)
    analyzed = analyze(program, source)
    compiled = compile_program(analyzed)
    if optimize:
        from .passes import optimize_program  # local import: avoids a cycle

        compiled = optimize_program(compiled, optimize)
    return compiled


def compile_program(analyzed: AnalyzedProgram) -> CompiledProgram:
    return _Compiler(analyzed).compile()


@dataclass
class _PendingInstr:
    op: str
    args: list
    location: Optional[SourceLocation]


class _Compiler:
    def __init__(self, analyzed: AnalyzedProgram) -> None:
        self.analyzed = analyzed
        self.program = analyzed.program
        self.symbols = analyzed.symbols
        self.source = self.symbols.source
        self.code: list[_PendingInstr] = []
        self.call_sites: list[tuple[int, str]] = []
        self.pardo_counter = 0

        # descriptor tables ------------------------------------------------
        self.index_names: list[str] = []
        self.index_ids: dict[str, int] = {}
        self.array_ids: dict[str, int] = {}
        self.scalar_ids: dict[str, int] = {}
        self.symbolic_ids: dict[str, int] = {}
        self.index_table: list[IndexDesc] = []
        self.array_table: list[ArrayDesc] = []
        self.scalar_table: list[str] = []
        self.symbolic_table: list[str] = []

    # -- table construction -------------------------------------------------
    def build_tables(self) -> None:
        for sym in self.symbols.symbolics():
            self.symbolic_ids[sym.name.lower()] = len(self.symbolic_table)
            self.symbolic_table.append(sym.name)
        for sym in self.symbols.scalars():
            self.scalar_ids[sym.name.lower()] = len(self.scalar_table)
            self.scalar_table.append(sym.name)
        # plain indices first, then subindices (they reference super ids)
        for sym in self.symbols.indices():
            self.index_ids[sym.name.lower()] = len(self.index_table)
            self.index_table.append(
                IndexDesc(
                    name=sym.name,
                    kind=sym.kind,
                    lo_rpn=self.compile_rpn(sym.lo),
                    hi_rpn=self.compile_rpn(sym.hi),
                )
            )
        for sym in self.symbols.subindices():
            super_id = self.index_ids[sym.super_name.lower()]
            sup = self.index_table[super_id]
            self.index_ids[sym.name.lower()] = len(self.index_table)
            self.index_table.append(
                IndexDesc(
                    name=sym.name,
                    kind=sym.kind,
                    lo_rpn=sup.lo_rpn,
                    hi_rpn=sup.hi_rpn,
                    super_id=super_id,
                )
            )
        for sym in self.symbols.arrays():
            self.array_ids[sym.name.lower()] = len(self.array_table)
            self.array_table.append(
                ArrayDesc(
                    name=sym.name,
                    kind=sym.kind,
                    index_ids=tuple(
                        self.index_ids[n.lower()] for n in sym.index_names
                    ),
                )
            )

    # -- main ------------------------------------------------------------------
    def compile(self) -> CompiledProgram:
        self.build_tables()
        self.emit_body(self.program.body)
        self.emit(Op.STOP, [])
        proc_entries: dict[str, int] = {}
        for name, decl in self.program.procs.items():
            proc_entries[name] = len(self.code)
            self.emit_body(decl.body)
            self.emit(Op.RETURN, [], decl.location)
        for pc, name in self.call_sites:
            entry = proc_entries.get(name.lower())
            if entry is None:  # pragma: no cover - analyzer catches this
                raise SemanticError(
                    f"undefined procedure {name!r}",
                    self.code[pc].location,
                    self.source,
                )
            self.code[pc].args = [entry, name]
        for start, get_pcs in loop_get_pcs(self.code).items():
            self.code[start].args[OPS[self.code[start].op].get_pcs] = get_pcs
        return CompiledProgram(
            name=self.program.name,
            instructions=[
                Instr(op=p.op, args=tuple(p.args), location=p.location)
                for p in self.code
            ],
            index_table=self.index_table,
            array_table=self.array_table,
            scalar_table=self.scalar_table,
            symbolic_table=self.symbolic_table,
            proc_entries=proc_entries,
            source=self.source,
            analysis=self.analyzed,
        )

    # -- emission helpers ----------------------------------------------------
    def emit(
        self,
        op: str,
        args: list,
        location: Optional[SourceLocation] = None,
    ) -> int:
        pc = len(self.code)
        self.code.append(_PendingInstr(op=op, args=args, location=location))
        return pc

    def here(self) -> int:
        return len(self.code)

    # -- statement emission ----------------------------------------------------
    def emit_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.emit_stmt(stmt)

    def emit_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, f"emit_{type(stmt).__name__.lower()}")
        method(stmt)

    def emit_pardo(self, stmt: ast.Pardo) -> None:
        pardo_id = self.pardo_counter
        self.pardo_counter += 1
        index_ids = tuple(self.index_ids[n.lower()] for n in stmt.indices)
        conditions = tuple(self.compile_condition(c) for c in stmt.where)
        start = self.emit(
            Op.PARDO_START,
            [pardo_id, index_ids, conditions, None, ()],
            stmt.location,
        )
        self.emit_body(stmt.body)
        self.emit(Op.PARDO_END, [start], stmt.location)
        self.code[start].args[3] = self.here()  # exit pc

    def emit_do(self, stmt: ast.Do) -> None:
        index_id = self.index_ids[stmt.index.lower()]
        start = self.emit(Op.DO_START, [index_id, None, ()], stmt.location)
        self.emit_body(stmt.body)
        self.emit(Op.DO_END, [index_id, start + 1], stmt.location)
        self.code[start].args[1] = self.here()

    def emit_doin(self, stmt: ast.DoIn) -> None:
        sub_id = self.index_ids[stmt.subindex.lower()]
        start = self.emit(Op.DOIN_START, [sub_id, None, ()], stmt.location)
        self.emit_body(stmt.body)
        self.emit(Op.DOIN_END, [sub_id, start + 1], stmt.location)
        self.code[start].args[1] = self.here()

    def emit_if(self, stmt: ast.If) -> None:
        cond = self.compile_condition(stmt.condition)
        branch = self.emit(Op.BRANCH_FALSE, [cond, None], stmt.location)
        self.emit_body(stmt.then_body)
        if stmt.else_body:
            jump = self.emit(Op.JUMP, [None], stmt.location)
            self.code[branch].args[1] = self.here()
            self.emit_body(stmt.else_body)
            self.code[jump].args[0] = self.here()
        else:
            self.code[branch].args[1] = self.here()

    def emit_call(self, stmt: ast.Call) -> None:
        pc = self.emit(Op.CALL, [None, stmt.name], stmt.location)
        self.call_sites.append((pc, stmt.name))

    def emit_get(self, stmt: ast.Get) -> None:
        self.emit(Op.GET, [self.block_operand(stmt.ref)], stmt.location)

    def emit_request(self, stmt: ast.Request) -> None:
        self.emit(Op.REQUEST, [self.block_operand(stmt.ref)], stmt.location)

    def emit_put(self, stmt: ast.Put) -> None:
        self.emit(
            Op.PUT,
            [self.block_operand(stmt.dst), stmt.op, self.block_operand(stmt.src)],
            stmt.location,
        )

    def emit_prepare(self, stmt: ast.Prepare) -> None:
        self.emit(
            Op.PREPARE,
            [self.block_operand(stmt.dst), stmt.op, self.block_operand(stmt.src)],
            stmt.location,
        )

    def emit_create(self, stmt: ast.Create) -> None:
        self.emit(Op.CREATE, [self.array_ids[stmt.array.lower()]], stmt.location)

    def emit_delete(self, stmt: ast.Delete) -> None:
        self.emit(Op.DELETE, [self.array_ids[stmt.array.lower()]], stmt.location)

    def emit_allocate(self, stmt: ast.Allocate) -> None:
        self.emit(Op.ALLOCATE, [self.block_operand(stmt.ref)], stmt.location)

    def emit_deallocate(self, stmt: ast.Deallocate) -> None:
        self.emit(Op.DEALLOCATE, [self.block_operand(stmt.ref)], stmt.location)

    def emit_computeintegrals(self, stmt: ast.ComputeIntegrals) -> None:
        self.emit(Op.COMPUTE_INTEGRALS, [self.block_operand(stmt.ref)], stmt.location)

    def emit_execute(self, stmt: ast.Execute) -> None:
        args = []
        for arg in stmt.args:
            if isinstance(arg, ast.BlockRef):
                args.append(("block", self.block_operand(arg)))
            elif isinstance(arg, ast.NumberLit):
                args.append(("num", arg.value))
            elif isinstance(arg, ast.ScalarRef):
                args.append(self.resolve_name_item(arg))
            else:  # pragma: no cover - analyzer rejects
                raise SemanticError(
                    "bad execute argument", stmt.location, self.source
                )
        self.emit(Op.EXECUTE, [stmt.name, tuple(args)], stmt.location)

    def emit_collective(self, stmt: ast.Collective) -> None:
        self.emit(
            Op.COLLECTIVE, [self.scalar_ids[stmt.scalar.lower()]], stmt.location
        )

    def emit_barrier(self, stmt: ast.Barrier) -> None:
        op = Op.SIP_BARRIER if stmt.kind == "sip" else Op.SERVER_BARRIER
        self.emit(op, [], stmt.location)

    def emit_blockstolist(self, stmt: ast.BlocksToList) -> None:
        self.emit(
            Op.BLOCKS_TO_LIST, [self.array_ids[stmt.array.lower()]], stmt.location
        )

    def emit_listtoblocks(self, stmt: ast.ListToBlocks) -> None:
        self.emit(
            Op.LIST_TO_BLOCKS, [self.array_ids[stmt.array.lower()]], stmt.location
        )

    def emit_checkpoint(self, stmt: ast.Checkpoint) -> None:
        self.emit(Op.CHECKPOINT, [], stmt.location)

    def emit_blockassign(self, stmt: ast.BlockAssign) -> None:
        form = self.analyzed.assign_forms[id(stmt)]
        dst = self.block_operand(stmt.lhs)
        rhs = stmt.rhs
        loc = stmt.location
        if form == FORM_FILL:
            self.require_op(stmt, ("=", "+=", "-="))
            self.emit(Op.FILL, [dst, stmt.op, self.compile_rpn(rhs)], loc)
        elif form == FORM_COPY:
            assert isinstance(rhs, ast.BlockRef)
            src = self.block_operand(rhs)
            if stmt.op == "=":
                self.emit(Op.COPY, [dst, src], loc)
            else:
                self.require_op(stmt, ("+=", "-="))
                self.emit(Op.ACCUM, [dst, stmt.op, src], loc)
        elif form == FORM_NEGATE:
            self.require_op(stmt, ("=",))
            assert isinstance(rhs, ast.UnaryOp)
            self.emit(Op.NEGATE, [dst, self.block_operand(rhs.operand)], loc)
        elif form == FORM_SCALE:
            assert isinstance(rhs, ast.BinaryOp)
            block = rhs.left if isinstance(rhs.left, ast.BlockRef) else rhs.right
            scalar = rhs.right if isinstance(rhs.left, ast.BlockRef) else rhs.left
            self.require_op(stmt, ("=", "+=", "-="))
            self.emit(
                Op.SCALE,
                [dst, stmt.op, self.block_operand(block), self.compile_rpn(scalar)],
                loc,
            )
        elif form == FORM_CONTRACT:
            assert isinstance(rhs, ast.BinaryOp)
            self.require_op(stmt, ("=", "+=", "-="))
            self.emit(
                Op.CONTRACT,
                [
                    dst,
                    stmt.op,
                    self.block_operand(rhs.left),
                    self.block_operand(rhs.right),
                ],
                loc,
            )
        elif form == FORM_ADD:
            assert isinstance(rhs, ast.BinaryOp)
            self.require_op(stmt, ("=",))
            self.emit(
                Op.ADDSUB,
                [
                    dst,
                    rhs.op,
                    self.block_operand(rhs.left),
                    self.block_operand(rhs.right),
                ],
                loc,
            )
        elif form == FORM_SCALAR_RHS:
            self.require_op(stmt, ("*=",))
            self.emit(Op.SCALE_INPLACE, [dst, self.compile_rpn(rhs)], loc)
        else:  # pragma: no cover - analyzer covers all forms
            raise SemanticError(
                f"unknown assignment form {form!r}", stmt.location, self.source
            )

    def require_op(self, stmt: ast.BlockAssign, allowed: tuple[str, ...]) -> None:
        if stmt.op not in allowed:
            raise SemanticError(
                f"operator {stmt.op!r} is not supported for this block "
                f"operation (allowed: {', '.join(allowed)})",
                stmt.location,
                self.source,
            )

    def emit_scalarassign(self, stmt: ast.ScalarAssign) -> None:
        form = self.analyzed.assign_forms[id(stmt)]
        scalar_id = self.scalar_ids[stmt.name.lower()]
        if form == "scalar_contract":
            rhs = stmt.rhs
            assert isinstance(rhs, ast.BinaryOp)
            if stmt.op not in ("=", "+=", "-="):
                raise SemanticError(
                    f"operator {stmt.op!r} not supported for scalar contraction",
                    stmt.location,
                    self.source,
                )
            self.emit(
                Op.SCALAR_CONTRACT,
                [
                    scalar_id,
                    stmt.op,
                    self.block_operand(rhs.left),
                    self.block_operand(rhs.right),
                ],
                stmt.location,
            )
        else:
            self.emit(
                Op.SCALAR_ASSIGN,
                [scalar_id, stmt.op, self.compile_rpn(stmt.rhs)],
                stmt.location,
            )

    # -- operand helpers --------------------------------------------------------
    def block_operand(self, ref: ast.BlockRef) -> BlockOperand:
        return BlockOperand(
            array_id=self.array_ids[ref.array.lower()],
            index_ids=tuple(self.index_ids[n.lower()] for n in ref.indices),
        )

    def resolve_name_item(self, ref: ast.ScalarRef) -> tuple:
        sym = self.symbols.lookup(ref.name)
        if isinstance(sym, ScalarSymbol):
            return ("scalar", self.scalar_ids[ref.name.lower()])
        if isinstance(sym, SymbolicSymbol):
            return ("symbolic", self.symbolic_ids[ref.name.lower()])
        if isinstance(sym, (IndexSymbol, SubindexSymbol)):
            return ("index", self.index_ids[ref.name.lower()])
        if isinstance(sym, ArraySymbol):
            raise SemanticError(
                f"array {ref.name!r} used without indices",
                ref.location,
                self.source,
            )
        raise SemanticError(
            f"undeclared name {ref.name!r}", ref.location, self.source
        )

    def compile_rpn(self, expr: ast.Expr) -> tuple:
        out: list[tuple] = []
        self._rpn(expr, out)
        return tuple(out)

    def _rpn(self, expr: ast.Expr, out: list[tuple]) -> None:
        if isinstance(expr, ast.NumberLit):
            out.append(("num", expr.value))
        elif isinstance(expr, ast.ScalarRef):
            out.append(self.resolve_name_item(expr))
        elif isinstance(expr, ast.BinaryOp):
            self._rpn(expr.left, out)
            self._rpn(expr.right, out)
            out.append((expr.op,))
        elif isinstance(expr, ast.UnaryOp):
            self._rpn(expr.operand, out)
            out.append(("neg",))
        else:  # pragma: no cover - analyzer rejects blocks in scalar exprs
            raise SemanticError(
                "invalid scalar expression",
                getattr(expr, "location", None),
                self.source,
            )

    def compile_condition(self, cond: ast.Condition) -> CompiledCondition:
        return CompiledCondition(
            op=cond.op,
            left_rpn=self.compile_rpn(cond.left),
            right_rpn=self.compile_rpn(cond.right),
        )
