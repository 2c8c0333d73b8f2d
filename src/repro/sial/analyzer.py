"""Semantic analysis for SIAL programs.

Enforces the language's static rules (paper, Section IV):

* declaration-before-use, no duplicate declarations;
* typed segment indices -- an array dimension declared with an
  ``aoindex`` can only be addressed by an ``ao``-kind variable (or a
  subindex of one), which is exactly the "useful checks on the
  consistent use of index variables" the type system provides;
* ``pardo`` loops may not nest, not even through procedure calls;
* index variables must be bound by an enclosing loop before use, and a
  loop may not rebind an already-bound variable;
* ``do ii in i`` requires ``i`` to be bound in an enclosing loop;
* ``get``/``put`` only touch distributed arrays, ``request``/``prepare``
  only served arrays; distributed/served blocks may be *read* in
  expressions only after a ``get``/``request`` of the same block in the
  enclosing loop nest; direct assignment into them is rejected;
* block statements perform ONE block operation (SIAL is an *assembly*
  language): fill, copy/permute/slice/insert, scale, add/subtract, or a
  single contraction -- compound block expressions are rejected with a
  hint to introduce a temporary;
* contraction shape rules: the LHS indices must be exactly the
  non-contracted indices of the two operands;
* ``where`` clauses may reference only that pardo's own indices,
  numbers, and symbolic constants;
* barriers, ``collective`` and ``checkpoint`` must appear outside pardo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .errors import SemanticError
from .symbols import (
    ArraySymbol,
    IndexSymbol,
    ProcSymbol,
    ScalarSymbol,
    SubindexSymbol,
    SymbolicSymbol,
    SymbolTable,
)

__all__ = ["analyze", "AnalyzedProgram"]

DISTRIBUTED = "distributed"
SERVED = "served"
LOCAL_KINDS = ("static", "temp", "local")


@dataclass
class AnalyzedProgram:
    """A parsed program that passed all static checks."""

    program: ast.Program
    symbols: SymbolTable
    # statement-level classification cache used by the compiler
    assign_forms: dict[int, str] = field(default_factory=dict)


def analyze(
    program: ast.Program, source: str = "", strict: bool = False
) -> AnalyzedProgram:
    """Run all semantic checks; returns the annotated program.

    With ``strict=True`` the static race detector
    (:mod:`~repro.sial.racecheck`) also runs, and any potential race
    on a distributed/served array is raised as a :class:`SemanticError`
    carrying the source location of the offending access.
    """
    checker = _Checker(program, source)
    checker.run()
    analyzed = AnalyzedProgram(
        program=program, symbols=checker.symbols, assign_forms=checker.assign_forms
    )
    if strict:
        from .racecheck import check_races  # local import: avoids a cycle

        report = check_races(analyzed)
        if not report.ok:
            diag = report.diagnostics[0]
            raise SemanticError(
                f"{diag.kind}: {diag.message}", diag.location, source
            )
    return analyzed


# The single-operation forms a BlockAssign may take.
FORM_FILL = "fill"  # X(...) = 0.0 | scalar
FORM_COPY = "copy"  # X(...) = Y(...)        (permute / slice / insert)
FORM_SCALE = "scale"  # X(...) = s * Y(...)
FORM_CONTRACT = "contract"  # X(...) = Y(...) * Z(...)
FORM_ADD = "add"  # X(...) = Y(...) + Z(...)   (or '-')
FORM_NEGATE = "negate"  # X(...) = -Y(...)
FORM_SCALAR_RHS = "scalar_rhs"  # X(...) *= s  etc.


class _Checker:
    def __init__(self, program: ast.Program, source: str) -> None:
        self.program = program
        self.source = source
        self.symbols = SymbolTable(source=source)
        self.assign_forms: dict[int, str] = {}
        # procs that (transitively) contain a pardo
        self._proc_has_pardo: dict[str, bool] = {}

    def error(self, message: str, node) -> SemanticError:
        loc = getattr(node, "location", None)
        return SemanticError(message, loc, self.source)

    # -- entry ---------------------------------------------------------------
    def run(self) -> None:
        self.declare_all()
        self.compute_proc_pardo_flags()
        ctx = _Context()
        self.check_body(self.program.body, ctx)

    # -- declarations ----------------------------------------------------------
    def declare_all(self) -> None:
        for decl in self.program.decls:
            if isinstance(decl, ast.IndexDecl):
                self.check_range_expr(decl.lo)
                self.check_range_expr(decl.hi)
                self.symbols.declare(
                    IndexSymbol(decl.name, decl.kind, decl.lo, decl.hi, decl.location)
                )
            elif isinstance(decl, ast.SubindexDecl):
                sup = self.symbols.require(
                    decl.super_name, IndexSymbol, decl.location, "index"
                )
                assert isinstance(sup, IndexSymbol)
                if not sup.is_segment_index:
                    raise self.error(
                        f"subindex {decl.name!r} requires a segment index, "
                        f"but {decl.super_name!r} is a simple index",
                        decl,
                    )
                self.symbols.declare(
                    SubindexSymbol(decl.name, decl.super_name, sup.kind, decl.location)
                )
            elif isinstance(decl, ast.ArrayDecl):
                for ix in decl.index_names:
                    sym = self.symbols.require(
                        ix, (IndexSymbol, SubindexSymbol), decl.location, "index"
                    )
                    if isinstance(sym, IndexSymbol) and not sym.is_segment_index:
                        raise self.error(
                            f"array {decl.name!r} dimension uses simple index {ix!r}; "
                            "array dimensions require segment indices",
                            decl,
                        )
                self.symbols.declare(
                    ArraySymbol(decl.name, decl.kind, decl.index_names, decl.location)
                )
            elif isinstance(decl, ast.ScalarDecl):
                self.symbols.declare(ScalarSymbol(decl.name, decl.location))
            elif isinstance(decl, ast.SymbolicDecl):
                self.symbols.declare(SymbolicSymbol(decl.name, decl.location))
            elif isinstance(decl, ast.ProcDecl):
                self.symbols.declare(ProcSymbol(decl.name, decl, decl.location))

    def check_range_expr(self, expr: ast.Expr) -> None:
        """Index bounds: integers and symbolic constants, + - * / only."""
        if isinstance(expr, ast.NumberLit):
            return
        if isinstance(expr, ast.ScalarRef):
            sym = self.symbols.lookup(expr.name)
            if not isinstance(sym, SymbolicSymbol):
                raise self.error(
                    f"index range may reference only numbers and symbolic "
                    f"constants, not {expr.name!r}",
                    expr,
                )
            return
        if isinstance(expr, ast.BinaryOp):
            self.check_range_expr(expr.left)
            self.check_range_expr(expr.right)
            return
        if isinstance(expr, ast.UnaryOp):
            self.check_range_expr(expr.operand)
            return
        raise self.error("invalid index range expression", expr)

    # -- pardo reachability through procs ----------------------------------------
    def compute_proc_pardo_flags(self) -> None:
        procs = self.program.procs

        def contains_pardo(name: str, stack: tuple[str, ...]) -> bool:
            key = name.lower()
            if key in self._proc_has_pardo:
                return self._proc_has_pardo[key]
            if key in stack:
                raise SemanticError(
                    f"recursive procedure call cycle through {name!r}",
                    procs[key].location,
                    self.source,
                )
            decl = procs.get(key)
            if decl is None:
                return False
            result = body_has_pardo(decl.body, stack + (key,))
            self._proc_has_pardo[key] = result
            return result

        def body_has_pardo(body: list[ast.Stmt], stack: tuple[str, ...]) -> bool:
            for stmt in body:
                if isinstance(stmt, ast.Pardo):
                    return True
                if isinstance(stmt, ast.Call) and contains_pardo(stmt.name, stack):
                    return True
                for sub in _sub_bodies(stmt):
                    if body_has_pardo(sub, stack):
                        return True
            return False

        for name in procs:
            contains_pardo(name, ())

    def proc_has_pardo(self, name: str) -> bool:
        return self._proc_has_pardo.get(name.lower(), False)

    # -- statement checking ----------------------------------------------------
    def check_body(self, body: list[ast.Stmt], ctx: "_Context") -> None:
        for stmt in body:
            self.check_stmt(stmt, ctx)

    def check_stmt(self, stmt: ast.Stmt, ctx: "_Context") -> None:
        method = getattr(self, f"check_{type(stmt).__name__.lower()}", None)
        if method is None:  # pragma: no cover - defensive
            raise self.error(f"unhandled statement {type(stmt).__name__}", stmt)
        method(stmt, ctx)

    def check_pardo(self, stmt: ast.Pardo, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("pardo loops may not be nested", stmt)
        for name in stmt.indices:
            sym = self.symbols.require(
                name, (IndexSymbol, SubindexSymbol), stmt.location, "index"
            )
            if isinstance(sym, SubindexSymbol):
                raise self.error(
                    f"pardo may not iterate a subindex ({name!r}); "
                    "use 'pardo ... do {sub} in {super}'",
                    stmt,
                )
            if name.lower() in ctx.bound:
                raise self.error(f"index {name!r} is already bound", stmt)
        if len({n.lower() for n in stmt.indices}) != len(stmt.indices):
            raise self.error("duplicate index in pardo list", stmt)
        pardo_names = {n.lower() for n in stmt.indices}
        for cond in stmt.where:
            self.check_where_condition(cond, pardo_names)
        inner = ctx.bind(stmt.indices, in_pardo=True)
        self.check_body(stmt.body, inner)

    def check_where_condition(self, cond: ast.Condition, pardo_names: set[str]) -> None:
        for operand in (cond.left, cond.right):
            if isinstance(operand, ast.NumberLit):
                continue
            if isinstance(operand, ast.ScalarRef):
                sym = self.symbols.lookup(operand.name)
                if isinstance(sym, SymbolicSymbol):
                    continue
                if (
                    isinstance(sym, IndexSymbol)
                    and operand.name.lower() in pardo_names
                ):
                    continue
                raise self.error(
                    "where clauses may reference only this pardo's indices, "
                    f"numbers, and symbolic constants, not {operand.name!r}",
                    operand,
                )
            else:
                raise self.error("where clause operands must be simple values", cond)

    def check_do(self, stmt: ast.Do, ctx: "_Context") -> None:
        sym = self.symbols.require(
            stmt.index, (IndexSymbol, SubindexSymbol), stmt.location, "index"
        )
        if isinstance(sym, SubindexSymbol):
            raise self.error(
                f"'do {stmt.index}' iterates a subindex; use "
                f"'do {stmt.index} in {sym.super_name}'",
                stmt,
            )
        if stmt.index.lower() in ctx.bound:
            raise self.error(f"index {stmt.index!r} is already bound", stmt)
        inner = ctx.bind((stmt.index,), in_pardo=ctx.in_pardo)
        self.check_body(stmt.body, inner)

    def check_doin(self, stmt: ast.DoIn, ctx: "_Context") -> None:
        sub = self.symbols.require(
            stmt.subindex, SubindexSymbol, stmt.location, "subindex"
        )
        assert isinstance(sub, SubindexSymbol)
        if sub.super_name.lower() != stmt.super_index.lower():
            raise self.error(
                f"{stmt.subindex!r} is a subindex of {sub.super_name!r}, "
                f"not of {stmt.super_index!r}",
                stmt,
            )
        if stmt.super_index.lower() not in ctx.bound:
            raise self.error(
                f"'do {stmt.subindex} in {stmt.super_index}' requires "
                f"{stmt.super_index!r} to be bound by an enclosing loop",
                stmt,
            )
        if stmt.subindex.lower() in ctx.bound:
            raise self.error(f"subindex {stmt.subindex!r} is already bound", stmt)
        inner = ctx.bind((stmt.subindex,), in_pardo=ctx.in_pardo)
        self.check_body(stmt.body, inner)

    def check_if(self, stmt: ast.If, ctx: "_Context") -> None:
        self.check_scalar_condition(stmt.condition, ctx)
        self.check_body(stmt.then_body, ctx)
        self.check_body(stmt.else_body, ctx)

    def check_scalar_condition(self, cond: ast.Condition, ctx: "_Context") -> None:
        for operand in (cond.left, cond.right):
            self.check_scalar_expr(operand, ctx)

    def check_call(self, stmt: ast.Call, ctx: "_Context") -> None:
        self.symbols.require(stmt.name, ProcSymbol, stmt.location, "procedure")
        if ctx.in_pardo and self.proc_has_pardo(stmt.name):
            raise self.error(
                f"procedure {stmt.name!r} contains a pardo and may not be "
                "called from inside a pardo",
                stmt,
            )
        # procedure bodies are checked in the context of each call site so
        # that index bindings are validated; guard against exponential blowup
        # by limiting to the first check per (proc, binding) signature.
        decl = self.program.procs[stmt.name.lower()]
        sig = (stmt.name.lower(), frozenset(ctx.bound), ctx.in_pardo)
        if sig not in ctx.checked_calls:
            ctx.checked_calls.add(sig)
            self.check_body(decl.body, ctx)

    def check_get(self, stmt: ast.Get, ctx: "_Context") -> None:
        self.check_block_ref(stmt.ref, ctx, want_kinds=(DISTRIBUTED,), verb="get")
        ctx.note_fetch(stmt.ref.array, self.canonical_indices(stmt.ref))

    def check_request(self, stmt: ast.Request, ctx: "_Context") -> None:
        self.check_block_ref(stmt.ref, ctx, want_kinds=(SERVED,), verb="request")
        ctx.note_fetch(stmt.ref.array, self.canonical_indices(stmt.ref))

    def check_put(self, stmt: ast.Put, ctx: "_Context") -> None:
        self.check_block_ref(stmt.dst, ctx, want_kinds=(DISTRIBUTED,), verb="put")
        self.check_block_ref(stmt.src, ctx, want_kinds=LOCAL_KINDS, verb="read")
        self.check_same_index_set(stmt.dst, stmt.src, stmt)

    def check_prepare(self, stmt: ast.Prepare, ctx: "_Context") -> None:
        self.check_block_ref(stmt.dst, ctx, want_kinds=(SERVED,), verb="prepare")
        self.check_block_ref(stmt.src, ctx, want_kinds=LOCAL_KINDS, verb="read")
        self.check_same_index_set(stmt.dst, stmt.src, stmt)

    def check_same_index_set(
        self, a: ast.BlockRef, b: ast.BlockRef, stmt: ast.Stmt
    ) -> None:
        if sorted(i.lower() for i in a.indices) != sorted(
            i.lower() for i in b.indices
        ):
            raise self.error(
                f"blocks {a.array}({', '.join(a.indices)}) and "
                f"{b.array}({', '.join(b.indices)}) must use the same index "
                "variables (possibly permuted)",
                stmt,
            )

    def check_create(self, stmt: ast.Create, ctx: "_Context") -> None:
        self.require_array(stmt.array, stmt, kinds=(DISTRIBUTED, SERVED))

    def check_delete(self, stmt: ast.Delete, ctx: "_Context") -> None:
        self.require_array(stmt.array, stmt, kinds=(DISTRIBUTED, SERVED))

    def check_allocate(self, stmt: ast.Allocate, ctx: "_Context") -> None:
        self.check_block_ref(stmt.ref, ctx, want_kinds=("local",), verb="allocate")

    def check_deallocate(self, stmt: ast.Deallocate, ctx: "_Context") -> None:
        self.check_block_ref(stmt.ref, ctx, want_kinds=("local",), verb="deallocate")

    def check_computeintegrals(self, stmt: ast.ComputeIntegrals, ctx: "_Context") -> None:
        self.check_block_ref(
            stmt.ref, ctx, want_kinds=("temp", "local"), verb="compute_integrals into"
        )
        ctx.note_fetch(stmt.ref.array, self.canonical_indices(stmt.ref))

    def check_execute(self, stmt: ast.Execute, ctx: "_Context") -> None:
        for arg in stmt.args:
            if isinstance(arg, ast.BlockRef):
                self.check_block_ref(arg, ctx, want_kinds=None, verb="pass")
            elif isinstance(arg, ast.ScalarRef):
                sym = self.symbols.lookup(arg.name)
                if sym is None:
                    raise self.error(f"undeclared name {arg.name!r}", arg)
            elif isinstance(arg, ast.NumberLit):
                pass
            else:
                raise self.error(
                    "execute arguments must be blocks, scalars, or numbers", stmt
                )

    def check_collective(self, stmt: ast.Collective, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("collective must appear outside pardo", stmt)
        self.symbols.require(stmt.scalar, ScalarSymbol, stmt.location, "scalar")

    def check_barrier(self, stmt: ast.Barrier, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("barriers are not allowed inside pardo", stmt)

    def check_blockstolist(self, stmt: ast.BlocksToList, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("blocks_to_list must appear outside pardo", stmt)
        self.require_array(stmt.array, stmt, kinds=(DISTRIBUTED,))

    def check_listtoblocks(self, stmt: ast.ListToBlocks, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("list_to_blocks must appear outside pardo", stmt)
        self.require_array(stmt.array, stmt, kinds=(DISTRIBUTED,))

    def check_checkpoint(self, stmt: ast.Checkpoint, ctx: "_Context") -> None:
        if ctx.in_pardo:
            raise self.error("checkpoint must appear outside pardo", stmt)

    # -- assignments -------------------------------------------------------------
    def check_blockassign(self, stmt: ast.BlockAssign, ctx: "_Context") -> None:
        lhs_sym = self.require_array(stmt.lhs.array, stmt)
        if lhs_sym.kind in (DISTRIBUTED, SERVED):
            verb = "put" if lhs_sym.kind == DISTRIBUTED else "prepare"
            raise self.error(
                f"{lhs_sym.kind} array {stmt.lhs.array!r} blocks are written "
                f"with '{verb}', not direct assignment",
                stmt,
            )
        if lhs_sym.kind == "static" and ctx.in_pardo:
            raise self.error(
                f"static array {stmt.lhs.array!r} may not be written inside "
                "pardo (it is replicated on all workers)",
                stmt,
            )
        self.check_block_ref(stmt.lhs, ctx, want_kinds=None, verb="assign")
        form = self.classify_and_check_rhs(stmt, ctx)
        self.assign_forms[id(stmt)] = form

    def classify_and_check_rhs(self, stmt: ast.BlockAssign, ctx: "_Context") -> str:
        rhs = stmt.rhs
        lhs_set = sorted(i.lower() for i in stmt.lhs.indices)

        def ref_ok(ref: ast.BlockRef) -> None:
            self.check_block_ref(ref, ctx, want_kinds=None, verb="read")
            self.check_readable(ref, ctx)

        if stmt.op == "*=":
            self.check_scalar_expr(rhs, ctx)
            return FORM_SCALAR_RHS
        if isinstance(rhs, (ast.NumberLit, ast.ScalarRef)):
            if isinstance(rhs, ast.ScalarRef):
                self.check_scalar_expr(rhs, ctx)
            return FORM_FILL
        if isinstance(rhs, ast.BlockRef):
            ref_ok(rhs)
            rhs_set = sorted(i.lower() for i in rhs.indices)
            if rhs_set != lhs_set:
                raise self.error(
                    "block copy requires the same index variables on both "
                    f"sides (possibly permuted): {stmt.lhs.indices} vs {rhs.indices}",
                    stmt,
                )
            return FORM_COPY
        if isinstance(rhs, ast.UnaryOp) and isinstance(rhs.operand, ast.BlockRef):
            ref_ok(rhs.operand)
            return FORM_NEGATE
        if isinstance(rhs, ast.BinaryOp):
            left, right = rhs.left, rhs.right
            if rhs.op == "*":
                if isinstance(left, ast.BlockRef) and isinstance(right, ast.BlockRef):
                    ref_ok(left)
                    ref_ok(right)
                    self.check_contraction_shape(stmt.lhs, left, right, stmt)
                    return FORM_CONTRACT
                if isinstance(left, ast.BlockRef) != isinstance(right, ast.BlockRef):
                    block = left if isinstance(left, ast.BlockRef) else right
                    scalar = right if isinstance(left, ast.BlockRef) else left
                    ref_ok(block)
                    self.check_scalar_expr(scalar, ctx)
                    blk_set = sorted(i.lower() for i in block.indices)
                    if blk_set != lhs_set:
                        raise self.error(
                            "scaled block must use the same index variables as "
                            "the left-hand side",
                            stmt,
                        )
                    return FORM_SCALE
            if rhs.op in ("+", "-"):
                if isinstance(left, ast.BlockRef) and isinstance(right, ast.BlockRef):
                    ref_ok(left)
                    ref_ok(right)
                    for ref in (left, right):
                        if sorted(i.lower() for i in ref.indices) != lhs_set:
                            raise self.error(
                                "elementwise +/- requires all three blocks to "
                                "use the same index variables",
                                stmt,
                            )
                    return FORM_ADD
        raise self.error(
            "SIAL block statements perform a single block operation (fill, "
            "copy/permute, scale, add, or one contraction); split compound "
            "expressions using a temp array",
            stmt,
        )

    def check_contraction_shape(
        self,
        lhs: ast.BlockRef,
        a: ast.BlockRef,
        b: ast.BlockRef,
        stmt: ast.Stmt,
    ) -> None:
        a_set = {i.lower() for i in a.indices}
        b_set = {i.lower() for i in b.indices}
        out = a_set.symmetric_difference(b_set)
        lhs_set = {i.lower() for i in lhs.indices}
        if lhs_set != out:
            raise self.error(
                f"contraction output indices {sorted(out)} do not match "
                f"left-hand side indices {sorted(lhs_set)}",
                stmt,
            )
        if len(a_set) != len(a.indices) or len(b_set) != len(b.indices):
            raise self.error(
                "repeated index within a single contraction operand is not "
                "supported",
                stmt,
            )

    def check_scalarassign(self, stmt: ast.ScalarAssign, ctx: "_Context") -> None:
        sym = self.symbols.lookup(stmt.name)
        if not isinstance(sym, ScalarSymbol):
            raise self.error(
                f"assignment target {stmt.name!r} is not a declared scalar", stmt
            )
        rhs = stmt.rhs
        # scalar = full contraction of two blocks
        if (
            isinstance(rhs, ast.BinaryOp)
            and rhs.op == "*"
            and isinstance(rhs.left, ast.BlockRef)
            and isinstance(rhs.right, ast.BlockRef)
        ):
            self.check_block_ref(rhs.left, ctx, want_kinds=None, verb="read")
            self.check_block_ref(rhs.right, ctx, want_kinds=None, verb="read")
            self.check_readable(rhs.left, ctx)
            self.check_readable(rhs.right, ctx)
            a_set = sorted(i.lower() for i in rhs.left.indices)
            b_set = sorted(i.lower() for i in rhs.right.indices)
            if a_set != b_set:
                raise self.error(
                    "scalar-valued contraction requires both blocks to use "
                    "the same index variables (full contraction)",
                    stmt,
                )
            self.assign_forms[id(stmt)] = "scalar_contract"
            return
        self.check_scalar_expr(rhs, ctx)
        self.assign_forms[id(stmt)] = "scalar_expr"

    def check_scalar_expr(self, expr: ast.Expr, ctx: "_Context") -> None:
        if isinstance(expr, ast.NumberLit):
            return
        if isinstance(expr, ast.ScalarRef):
            sym = self.symbols.lookup(expr.name)
            if sym is None:
                raise self.error(f"undeclared name {expr.name!r}", expr)
            if isinstance(sym, (ScalarSymbol, SymbolicSymbol)):
                return
            if isinstance(sym, (IndexSymbol, SubindexSymbol)):
                if expr.name.lower() not in ctx.bound:
                    raise self.error(
                        f"index {expr.name!r} is not bound by an enclosing loop",
                        expr,
                    )
                return
            raise self.error(
                f"{expr.name!r} cannot appear in a scalar expression", expr
            )
        if isinstance(expr, ast.BinaryOp):
            self.check_scalar_expr(expr.left, ctx)
            self.check_scalar_expr(expr.right, ctx)
            return
        if isinstance(expr, ast.UnaryOp):
            self.check_scalar_expr(expr.operand, ctx)
            return
        if isinstance(expr, ast.BlockRef):
            raise self.error(
                "block used where a scalar is required; scalar-valued block "
                "contractions have the form 's = A(...) * B(...)'",
                expr,
            )
        raise self.error("invalid scalar expression", expr)

    # -- shared reference checks ----------------------------------------------
    def require_array(
        self, name: str, node, kinds: tuple[str, ...] | None = None
    ) -> ArraySymbol:
        sym = self.symbols.require(
            name, ArraySymbol, getattr(node, "location", None), "array"
        )
        assert isinstance(sym, ArraySymbol)
        if kinds is not None and sym.kind not in kinds:
            raise self.error(
                f"array {name!r} has kind {sym.kind!r}; expected one of {kinds}",
                node,
            )
        return sym

    def check_block_ref(
        self,
        ref: ast.BlockRef,
        ctx: "_Context",
        want_kinds: tuple[str, ...] | None,
        verb: str,
    ) -> None:
        sym = self.require_array(ref.array, ref, kinds=want_kinds)
        if len(ref.indices) != sym.rank:
            raise self.error(
                f"array {ref.array!r} has rank {sym.rank}, referenced with "
                f"{len(ref.indices)} indices",
                ref,
            )
        for used, declared in zip(ref.indices, sym.index_names):
            self.check_index_compatible(used, declared, ref, ctx)

    def check_index_compatible(
        self, used: str, declared: str, ref: ast.BlockRef, ctx: "_Context"
    ) -> None:
        used_sym = self.symbols.require(
            used, (IndexSymbol, SubindexSymbol), ref.location, "index"
        )
        if used.lower() not in ctx.bound:
            raise self.error(
                f"index {used!r} is not bound by an enclosing loop", ref
            )
        declared_sym = self.symbols.lookup(declared)
        assert isinstance(declared_sym, (IndexSymbol, SubindexSymbol))
        used_kind = used_sym.kind
        declared_kind = declared_sym.kind
        if used_kind != declared_kind:
            raise self.error(
                f"index {used!r} has kind {used_kind!r} but dimension of "
                f"{ref.array!r} was declared with kind {declared_kind!r}",
                ref,
            )

    def canonical_indices(self, ref: ast.BlockRef) -> tuple[str, ...]:
        """Index tuple with subindices replaced by their super index.

        A ``get A(a, b)`` fetches the whole block; a later read of the
        slice ``A(aa, b)`` (aa a subindex of a) touches the same block,
        so fetch tracking compares super-resolved tuples.
        """
        out = []
        for name in ref.indices:
            sym = self.symbols.lookup(name)
            if isinstance(sym, SubindexSymbol):
                out.append(sym.super_name.lower())
            else:
                out.append(name.lower())
        return tuple(out)

    def check_readable(self, ref: ast.BlockRef, ctx: "_Context") -> None:
        """Distributed/served blocks may be read only after get/request."""
        sym = self.require_array(ref.array, ref)
        canonical = self.canonical_indices(ref)
        if sym.kind == DISTRIBUTED and not ctx.was_fetched(ref.array, canonical):
            raise self.error(
                f"block {ref.array}({', '.join(ref.indices)}) of a distributed "
                "array is read without a preceding 'get' in the enclosing "
                "loop nest",
                ref,
            )
        if sym.kind == SERVED and not ctx.was_fetched(ref.array, canonical):
            raise self.error(
                f"block {ref.array}({', '.join(ref.indices)}) of a served "
                "array is read without a preceding 'request' in the "
                "enclosing loop nest",
                ref,
            )


@dataclass
class _Context:
    """Static context threaded through statement checking."""

    bound: frozenset[str] = frozenset()
    in_pardo: bool = False
    # (array, indices) fetched by get/request/compute_integrals in this or
    # an enclosing loop body -- shared via parent chain for simplicity
    fetched: set[tuple[str, tuple[str, ...]]] = field(default_factory=set)
    checked_calls: set = field(default_factory=set)

    def bind(self, names: tuple[str, ...], in_pardo: bool) -> "_Context":
        return _Context(
            bound=self.bound | {n.lower() for n in names},
            in_pardo=in_pardo,
            fetched=set(self.fetched),
            checked_calls=self.checked_calls,
        )

    def note_fetch(self, array: str, canonical_indices: tuple[str, ...]) -> None:
        self.fetched.add((array.lower(), canonical_indices))

    def was_fetched(self, array: str, canonical_indices: tuple[str, ...]) -> bool:
        return (array.lower(), canonical_indices) in self.fetched


def _sub_bodies(stmt: ast.Stmt) -> list[list[ast.Stmt]]:
    if isinstance(stmt, (ast.Pardo, ast.Do, ast.DoIn)):
        return [stmt.body]
    if isinstance(stmt, ast.If):
        return [stmt.then_body, stmt.else_body]
    return []

