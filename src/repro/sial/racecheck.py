"""Static race detection for SIAL programs.

The SIA programming model (paper, Section IV-C) is only deterministic
when the accesses to ``distributed`` and ``served`` arrays issued
between two barriers commute: pardo iterations may run in any order on
any worker, so within one barrier *phase*

* a plain (overwriting) ``put``/``prepare`` must write each block from
  at most one iteration,
* a ``get``/``request`` must not read a block that another iteration
  writes in the same phase, and
* only ``+=`` accumulates may target the same block from different
  iterations.

This pass checks those rules symbolically, before the program ever
runs.  It walks the whole program -- inlining procedure calls, walking
``do``/``do..in`` bodies twice so hazards across the loop's back edge
are seen, and splitting the instruction stream into barrier phases
(``sip_barrier`` delimits distributed-array phases, ``server_barrier``
served-array phases).  Every ``get``/``request``/``put``/``prepare``
becomes an access record carrying its canonical index tuple (subindices
resolved to their super index, as in the analyzer), the enclosing pardo,
the phases it may execute in, and its source location.

Two accesses to the same array conflict when their phase sets
intersect, they can occur on the same block from different pardo
iterations (or from different SPMD workers outside pardo), and they are
not both reads or both accumulates.  Iterations of one pardo are known
to touch distinct blocks only when the access tuples are identical and
contain every pardo index; anything else is conservatively reported.

``if`` branches outside pardo are treated as mutually exclusive (every
worker evaluates the same replicated scalar condition), so accesses in
opposite branches never conflict; inside pardo different iterations may
take different branches, so branches are unioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ast_nodes as ast
from .errors import SourceLocation
from .symbols import ArraySymbol, SubindexSymbol, SymbolTable

__all__ = ["RaceDiagnostic", "RaceReport", "RaceWalk", "check_races"]

DISTRIBUTED = "distributed"
SERVED = "served"

# conflict kinds
WRITE_WRITE = "write-write"
READ_WRITE = "read-write"
NON_INJECTIVE = "non-injective-overwrite"
SPMD_OVERWRITE = "spmd-overwrite"


@dataclass(frozen=True)
class RaceDiagnostic:
    """One potential race, with the source locations of both endpoints."""

    kind: str  # WRITE_WRITE | READ_WRITE | NON_INJECTIVE | SPMD_OVERWRITE
    array: str
    message: str
    location: Optional[SourceLocation] = None
    related: Optional[SourceLocation] = None

    def render(self) -> str:
        loc = f"{self.location}: " if self.location is not None else ""
        return f"{loc}{self.kind}: {self.message}"


@dataclass
class RaceReport:
    """All potential races found in one program."""

    program_name: str
    diagnostics: list[RaceDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def render(self) -> str:
        if self.ok:
            return f"{self.program_name}: no races detected"
        lines = [
            f"{self.program_name}: {len(self.diagnostics)} potential race(s)"
        ]
        for diag in self.diagnostics:
            lines.append("  " + diag.render())
        return "\n".join(lines)


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 6x
class _Access:
    """One get/request/put/prepare occurrence along the symbolic walk."""

    array: str  # lowercased array name
    display: str  # declared spelling, for messages
    cls: str  # DISTRIBUTED or SERVED
    mode: str  # "read" | "=" | "+="
    tuple: Optional[tuple[str, ...]]  # canonical indices; None = whole array
    pardo: Optional[int]  # pardo instance id, None outside pardo
    covers: bool  # tuple contains every enclosing-pardo index
    phases: frozenset[int]
    branch: tuple[tuple[int, int], ...]  # (if instance, arm) path outside pardo
    location: Optional[SourceLocation]
    verb: str  # source spelling: get/request/put/prepare/...
    owned_only: bool = False  # list_to_blocks: each worker writes its own blocks


@dataclass
class _WalkState:
    """Mutable state threaded through the program walk."""

    phases: dict[str, frozenset[int]]
    branch: tuple[tuple[int, int], ...] = ()
    pardo: Optional[int] = None
    pardo_indices: frozenset[str] = frozenset()
    pardo_location: Optional[SourceLocation] = None


#: statements that touch only worker-local state or replicated scalars;
#: the walk skips them before its type dispatch (most statements are
#: block or scalar assignments)
_LOCAL_ONLY = (
    ast.BlockAssign, ast.ScalarAssign, ast.Collective, ast.Create,
    ast.Delete, ast.Allocate, ast.Deallocate, ast.ComputeIntegrals,
    ast.Execute,
)  # fmt: skip


class _Walker:
    def __init__(self, program: ast.Program, symbols: SymbolTable) -> None:
        self.program = program
        self.symbols = symbols
        self.accesses: list[_Access] = []
        # id(BlockRef) -> (array symbol, canonical tuple): loop bodies
        # are walked twice, nested ones four times, ...
        self._refs: dict[int, tuple[ArraySymbol, tuple[str, ...]]] = {}
        #: barrier statement (line, column) -> one (phase id it opens,
        #: phase set it closes) per walked instance
        self.barriers: dict[tuple[int, int], list[tuple[int, frozenset[int]]]] = {}
        self._next_id = 0

    def fresh(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- helpers ------------------------------------------------------------
    def canonical(self, ref: ast.BlockRef) -> tuple[str, ...]:
        out = []
        for name in ref.indices:
            sym = self.symbols.lookup(name)
            if isinstance(sym, SubindexSymbol):
                out.append(sym.super_name.lower())
            else:
                out.append(name.lower())
        return tuple(out)

    def array_symbol(self, name: str) -> ArraySymbol:
        sym = self.symbols.lookup(name)
        assert isinstance(sym, ArraySymbol)
        return sym

    def record(
        self,
        st: _WalkState,
        ref: ast.BlockRef,
        mode: str,
        verb: str,
        location: Optional[SourceLocation],
    ) -> None:
        resolved = self._refs.get(id(ref))
        if resolved is None:
            resolved = self._refs[id(ref)] = (
                self.array_symbol(ref.array),
                self.canonical(ref),
            )
        sym, canonical = resolved
        if sym.kind not in (DISTRIBUTED, SERVED):
            return
        covers = st.pardo is not None and st.pardo_indices <= set(canonical)
        self.accesses.append(
            _Access(
                array=ref.array.lower(),
                display=sym.name,
                cls=sym.kind,
                mode=mode,
                tuple=canonical,
                pardo=st.pardo,
                covers=covers,
                phases=st.phases[sym.kind],
                branch=st.branch,
                location=location,
                verb=verb,
            )
        )

    def record_whole_array(
        self,
        st: _WalkState,
        name: str,
        mode: str,
        verb: str,
        location: Optional[SourceLocation],
        owned_only: bool = False,
    ) -> None:
        sym = self.array_symbol(name)
        self.accesses.append(
            _Access(
                array=sym.name.lower(),
                display=sym.name,
                cls=sym.kind,
                mode=mode,
                tuple=None,
                pardo=st.pardo,
                covers=False,
                phases=st.phases[sym.kind],
                branch=st.branch,
                location=location,
                verb=verb,
                owned_only=owned_only,
            )
        )

    # -- the walk -----------------------------------------------------------
    def walk_program(self) -> None:
        st = _WalkState(
            phases={DISTRIBUTED: frozenset([self.fresh()]),
                    SERVED: frozenset([self.fresh()])}
        )
        self.walk_body(self.program.body, st, proc_stack=())

    def walk_body(
        self, body: list[ast.Stmt], st: _WalkState, proc_stack: tuple[str, ...]
    ) -> None:
        for stmt in body:
            self.walk_stmt(stmt, st, proc_stack)

    def walk_stmt(
        self, stmt: ast.Stmt, st: _WalkState, proc_stack: tuple[str, ...]
    ) -> None:
        if isinstance(stmt, _LOCAL_ONLY):
            return
        if isinstance(stmt, ast.Barrier):
            cls = DISTRIBUTED if stmt.kind == "sip" else SERVED
            opened = self.fresh()
            loc = stmt.location
            if loc is not None:
                self.barriers.setdefault((loc.line, loc.column), []).append(
                    (opened, st.phases[cls])
                )
            st.phases[cls] = frozenset([opened])
        elif isinstance(stmt, ast.Pardo):
            inner = _WalkState(
                phases=st.phases,
                branch=st.branch,
                pardo=self.fresh(),
                pardo_indices=frozenset(n.lower() for n in stmt.indices),
                pardo_location=stmt.location,
            )
            # barriers cannot appear inside pardo (analyzer-enforced), so
            # the shared phase dict cannot change during the body walk
            self.walk_body(stmt.body, inner, proc_stack)
        elif isinstance(stmt, (ast.Do, ast.DoIn)):
            # walk the body twice so accesses of consecutive iterations
            # land in the walk together: hazards across the loop's back
            # edge (a last-phase write meeting a first-phase read of the
            # next iteration) are only visible then
            self.walk_body(stmt.body, st, proc_stack)
            self.walk_body(stmt.body, st, proc_stack)
        elif isinstance(stmt, ast.If):
            if st.pardo is not None:
                # iterations may branch differently: union both arms
                self.walk_body(stmt.then_body, st, proc_stack)
                self.walk_body(stmt.else_body, st, proc_stack)
            else:
                # outside pardo the condition is replicated SPMD state:
                # every worker takes the same arm, so the arms are
                # mutually exclusive program-wide
                if_id = self.fresh()
                then_st = _WalkState(
                    phases=dict(st.phases),
                    branch=st.branch + ((if_id, 0),),
                )
                else_st = _WalkState(
                    phases=dict(st.phases),
                    branch=st.branch + ((if_id, 1),),
                )
                self.walk_body(stmt.then_body, then_st, proc_stack)
                self.walk_body(stmt.else_body, else_st, proc_stack)
                # either arm may have been taken: afterwards the current
                # phase is any phase either arm ended in
                for cls in st.phases:
                    st.phases[cls] = then_st.phases[cls] | else_st.phases[cls]
        elif isinstance(stmt, ast.Call):
            key = stmt.name.lower()
            decl = self.program.procs.get(key)
            if decl is None or key in proc_stack:
                return  # undefined/recursive: the analyzer reports these
            self.walk_body(decl.body, st, proc_stack + (key,))
        elif isinstance(stmt, ast.Get):
            self.record(st, stmt.ref, "read", "get", stmt.location)
        elif isinstance(stmt, ast.Request):
            self.record(st, stmt.ref, "read", "request", stmt.location)
        elif isinstance(stmt, ast.Put):
            self.record(st, stmt.dst, stmt.op, "put", stmt.location)
        elif isinstance(stmt, ast.Prepare):
            self.record(st, stmt.dst, stmt.op, "prepare", stmt.location)
        elif isinstance(stmt, ast.BlocksToList):
            # reads every owned block, then synchronizes all workers
            self.record_whole_array(
                st, stmt.array, "read", "blocks_to_list", stmt.location
            )
            st.phases[DISTRIBUTED] = frozenset([self.fresh()])
        elif isinstance(stmt, ast.ListToBlocks):
            # each worker overwrites only the blocks it owns, then
            # synchronizes; the write itself cannot self-conflict
            self.record_whole_array(
                st,
                stmt.array,
                "=",
                "list_to_blocks",
                stmt.location,
                owned_only=True,
            )
            st.phases[DISTRIBUTED] = frozenset([self.fresh()])
        elif isinstance(stmt, ast.Checkpoint):
            for sym in self.symbols.arrays():
                if sym.kind == DISTRIBUTED:
                    self.record_whole_array(
                        st, sym.name, "read", "checkpoint", stmt.location
                    )
            st.phases[DISTRIBUTED] = frozenset([self.fresh()])
        # all remaining statements are _LOCAL_ONLY


# -- conflict rules ---------------------------------------------------------


def _branch_compatible(a: _Access, b: _Access) -> bool:
    """False when the accesses sit in opposite arms of one if."""
    arms = dict(a.branch)
    for if_id, arm in b.branch:
        if arms.get(if_id, arm) != arm:
            return False
    return True


def _may_overlap(a: _Access, b: _Access) -> bool:
    """Can a and b touch the same block from different iterations?

    Same-pardo accesses with identical canonical tuples containing
    every pardo index map iteration -> block injectively; any other
    same-phase combination is conservatively overlapping.
    """
    if a.pardo is not None and a.pardo == b.pardo:
        return not (a.tuple == b.tuple and a.covers and b.covers)
    return True


def _describe(acc: _Access) -> str:
    if acc.tuple is None:
        ref = acc.display
    else:
        ref = f"{acc.display}({', '.join(acc.tuple)})"
    stmt = f"{acc.verb} {ref}"
    if acc.mode == "+=":
        stmt += " +="
    where = "" if acc.location is None else f" at {acc.location}"
    return f"'{stmt}'{where}"


class _ConflictFinder:
    def __init__(self, program_name: str) -> None:
        self.report = RaceReport(program_name)
        self._seen: set[tuple] = set()

    def reported(
        self, kind: str, acc: _Access, related: Optional[SourceLocation] = None
    ) -> bool:
        return (kind, acc.array, acc.location, related) in self._seen

    def add(
        self,
        kind: str,
        acc: _Access,
        message: str,
        related: Optional[SourceLocation] = None,
    ) -> None:
        key = (kind, acc.array, acc.location, related)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.diagnostics.append(
            RaceDiagnostic(
                kind=kind,
                array=acc.display,
                message=message,
                location=acc.location,
                related=related,
            )
        )

    def check_single(self, acc: _Access) -> None:
        """Self-conflicts: one overwrite executed by many iterations/workers."""
        if acc.mode != "=" or acc.owned_only:
            return
        if acc.pardo is not None:
            if not acc.covers:
                self.add(
                    NON_INJECTIVE,
                    acc,
                    f"{_describe(acc)} does not use every index of the "
                    "enclosing pardo, so different iterations may overwrite "
                    "the same block; use '+=' to accumulate or cover all "
                    "pardo indices",
                )
        else:
            self.add(
                SPMD_OVERWRITE,
                acc,
                f"{_describe(acc)} executes outside pardo, so every worker "
                "overwrites the same block in the same phase; move it into "
                "a pardo or use '+='",
            )

    def check_pair(self, a: _Access, b: _Access) -> None:
        """Cross-conflicts of two accesses the caller found in one phase."""
        if a.mode == "read" and b.mode == "read":
            return
        if a.mode == "+=" and b.mode == "+=":
            return  # accumulates commute
        if (
            a.pardo is None
            and b.pardo is None
            and a.location == b.location
            and a.verb == b.verb
        ):
            # the same sequential statement seen again through a loop
            # unroll; SPMD self-conflicts are reported by check_single
            return
        if not _branch_compatible(a, b):
            return
        if not _may_overlap(a, b):
            return
        # order: writer first for the message
        if a.mode == "read":
            a, b = b, a
        if b.mode == "read":
            kind, primary, related = READ_WRITE, b, a.location
        else:
            kind, primary, related = WRITE_WRITE, a, b.location
        if self.reported(kind, primary, related):
            return  # loop unrolls repeat a pair; build its message once
        if kind == READ_WRITE:
            msg = (
                f"{_describe(b)} may read a block that {_describe(a)} writes "
                "in the same barrier phase"
            )
        else:
            msg = (
                f"{_describe(a)} and {_describe(b)} may write the same block "
                "in the same barrier phase and at most one is an accumulate"
            )
        self.add(kind, primary, msg, related)


class RaceWalk:
    """A program's barrier phases, walked once with every barrier present.

    Removing a barrier never needs a second walk.  Each walked instance
    of a barrier closes a phase set ``S`` and opens a fresh phase ``p``;
    without that barrier the walk would simply have carried ``S`` on
    where it now carries ``{p}``.  Phase sets only ever flow on by
    copy and union, which commute with substitution, so every access's
    phase set in the barrier-free walk is its recorded set with each
    removed ``p`` replaced by (the substituted) ``S``.  Ids in ``S``
    are older than ``p``, so one ascending sweep resolves chains of
    removed barriers.
    """

    def __init__(self, analyzed) -> None:
        walker = _Walker(analyzed.program, analyzed.symbols)
        walker.walk_program()
        self.name = analyzed.program.name
        self.accesses = walker.accesses
        self.barriers = walker.barriers
        # (class, array) -> phase id -> (readers, writers): indices of the
        # accesses in that phase.  Two reads never conflict, so only
        # pairs with a writer are ever checked.  Groups keep
        # first-appearance order, which fixes the report's order.
        self._buckets: dict[
            tuple[str, str], dict[int, tuple[list[int], list[int]]]
        ] = {}
        for i, acc in enumerate(self.accesses):
            by_phase = self._buckets.setdefault((acc.cls, acc.array), {})
            for pid in acc.phases:
                by_phase.setdefault(pid, ([], []))[acc.mode != "read"].append(i)

    def report(self) -> RaceReport:
        """Every diagnostic of the program as written."""
        finder = _ConflictFinder(self.name)
        for acc in self.accesses:
            finder.check_single(acc)
        for by_phase in self._buckets.values():
            pairs = set()
            for readers, writers in by_phase.values():
                for x, i in enumerate(writers):
                    pairs.update(
                        (i, j) if i < j else (j, i)
                        for j in (*writers[x + 1 :], *readers)
                    )
            self._check_pairs(finder, pairs)
        return finder.report

    def merged_report(self, removed: set[tuple[int, int]]) -> RaceReport:
        """The diagnostics the program gains without the barriers at the
        ``removed`` (line, column) positions.

        Only pairs of accesses whose phase sets newly intersect are
        checked; a pair that already shared a phase reports the same
        diagnostic with or without the barriers.
        """
        subst = self._substitution(removed)
        finder = _ConflictFinder(self.name)
        accesses = self.accesses
        for by_phase in self._buckets.values():
            # the accesses whose phase set the removal rewrites
            moved: dict[int, frozenset[int]] = {}
            for pid in subst:
                for side in by_phase.get(pid, ()):
                    for i in side:
                        if i not in moved:
                            moved[i] = frozenset().union(
                                *(subst.get(x, (x,)) for x in accesses[i].phases)
                            )
            merged: dict[int, tuple[list[int], list[int]]] = {}
            for i, phases in moved.items():
                for pid in phases:
                    merged.setdefault(pid, ([], []))[
                        accesses[i].mode != "read"
                    ].append(i)
            pairs = set()
            for pid, (moved_r, moved_w) in merged.items():
                readers, writers = by_phase.get(pid, ((), ()))
                kept_r = [j for j in readers if j not in moved]
                kept_w = [j for j in writers if j not in moved]
                # every new pair has a moved access and a writer
                new = [
                    (i, j)
                    for x, i in enumerate(moved_w)
                    for j in (*moved_w[x + 1 :], *moved_r, *kept_r, *kept_w)
                ]
                new += [(i, j) for i in kept_w for j in moved_r]
                pairs.update(
                    (i, j) if i < j else (j, i)
                    for i, j in new
                    if not accesses[i].phases & accesses[j].phases
                )
            self._check_pairs(finder, pairs)
        return finder.report

    def _substitution(
        self, removed: set[tuple[int, int]]
    ) -> dict[int, frozenset[int]]:
        """Phase id a removed barrier opened -> the phases it continues."""
        opened = sorted(
            instance for loc in removed for instance in self.barriers.get(loc, ())
        )
        subst: dict[int, frozenset[int]] = {}
        for pid, closed in opened:
            subst[pid] = frozenset().union(*(subst.get(x, (x,)) for x in closed))
        return subst

    def _check_pairs(self, finder: _ConflictFinder, pairs: set) -> None:
        # walk order, as a pairwise sweep over the group would visit them
        for i, j in sorted(pairs):
            finder.check_pair(self.accesses[i], self.accesses[j])


def check_races(analyzed) -> RaceReport:
    """Run the race check on an :class:`~.analyzer.AnalyzedProgram`."""
    return RaceWalk(analyzed).report()
