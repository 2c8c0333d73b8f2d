"""SIA bytecode: the compiled form of a SIAL program.

A compiled program is a flat *instruction table* plus *data descriptor
tables* (paper, Section V-A): an index table, an array table, a scalar
table, and a table of symbolic constants whose concrete values are
supplied at initialization.  Operands in instructions are integer ids
into these tables, so the SIP interpreter never touches names on the
hot path.

Scalar expressions (index bounds, fill values, scalar arithmetic) are
compiled to small RPN programs evaluated against the worker's scalar
store and current index values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import SourceLocation

__all__ = [
    "Op",
    "OpSpec",
    "OPS",
    "Instr",
    "IndexDesc",
    "ArrayDesc",
    "BlockOperand",
    "CompiledCondition",
    "CompiledProgram",
    "evaluate_rpn",
    "format_rpn",
    "disassemble",
]


class Op:
    """Opcode mnemonics."""

    # control
    JUMP = "JUMP"
    DO_START = "DO_START"
    DO_END = "DO_END"
    DOIN_START = "DOIN_START"
    DOIN_END = "DOIN_END"
    PARDO_START = "PARDO_START"
    PARDO_END = "PARDO_END"
    BRANCH_FALSE = "BRANCH_FALSE"
    CALL = "CALL"
    RETURN = "RETURN"
    STOP = "STOP"
    # data movement
    GET = "GET"
    PUT = "PUT"
    PREPARE = "PREPARE"
    REQUEST = "REQUEST"
    CREATE = "CREATE"
    DELETE = "DELETE"
    ALLOCATE = "ALLOCATE"
    DEALLOCATE = "DEALLOCATE"
    # optimizer-inserted: a hint that a block will be needed soon.
    # Same argument layout as GET/REQUEST; never blocks.
    PREFETCH = "PREFETCH"
    # block compute (super instructions)
    FILL = "FILL"
    COPY = "COPY"
    NEGATE = "NEGATE"
    SCALE = "SCALE"
    SCALE_INPLACE = "SCALE_INPLACE"
    CONTRACT = "CONTRACT"
    ADDSUB = "ADDSUB"
    ACCUM = "ACCUM"
    # optimizer-fused ``tmp = a*b; c op2 tmp`` super instruction:
    # args = (dst, op2, a, b, tmp_index_ids, factor_rpn | None)
    CONTRACT_FUSED = "CONTRACT_FUSED"
    SCALAR_CONTRACT = "SCALAR_CONTRACT"
    SCALAR_ASSIGN = "SCALAR_ASSIGN"
    COMPUTE_INTEGRALS = "COMPUTE_INTEGRALS"
    EXECUTE = "EXECUTE"
    # synchronization & utility
    COLLECTIVE = "COLLECTIVE"
    SIP_BARRIER = "SIP_BARRIER"
    SERVER_BARRIER = "SERVER_BARRIER"
    BLOCKS_TO_LIST = "BLOCKS_TO_LIST"
    LIST_TO_BLOCKS = "LIST_TO_BLOCKS"
    CHECKPOINT = "CHECKPOINT"


@dataclass(frozen=True)
class OpSpec:
    """What one opcode's argument slots mean: the one place it is said.

    The passes, :func:`~.passes.rewrite.verify_program`, the workload
    extractor, the tracer and the interpreter's handler tables all read
    :data:`OPS` rather than keep their own per-opcode tables.
    """

    arity: int
    #: explicit branch targets, remapped when pcs move
    pcs: tuple[int, ...] = ()
    #: loop bookkeeping, recomputed structurally when pcs move: a
    #: "start" binds index ids at ``bind`` (one id, or a tuple of them),
    #: keeps its exit pc (one past its end) at ``exit`` and its prefetch
    #: list at ``get_pcs``; an "end" keeps its back link at ``back``,
    #: which names the start pc plus ``back_offset``
    loop: Optional[str] = None
    partner: Optional[str] = None
    bind: Optional[int] = None
    exit: Optional[int] = None
    get_pcs: Optional[int] = None
    back: Optional[int] = None
    back_offset: int = 0
    #: BlockOperand slots the instruction writes and reads
    writes: tuple[int, ...] = ()
    reads: tuple[int, ...] = ()
    #: slot of the '=' / '+=' / '-=' operator of an accumulate form
    assign: Optional[int] = None
    #: slots holding a raw array-table id
    arrays: tuple[int, ...] = ()
    #: its operand joins the enclosing loops' get_pcs (lookahead fetch)
    fetch: bool = False
    #: how the workload extractor charges it (None: negligible)
    cost: Optional[str] = None
    #: timeline glyph of a traced (time-taking) instruction
    glyph: str = ""
    #: the handler is a generator: simulated time may pass
    yields: bool = False
    #: a loop body holding one vetoes code motion across the loop
    barrier: bool = False
    #: derived: the written and read slots, each once
    operands: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        slots = tuple(dict.fromkeys(self.writes + self.reads))
        object.__setattr__(self, "operands", slots)

    def binds(self, args: tuple) -> tuple[int, ...]:
        """The index ids a loop start binds."""
        ids = args[self.bind]
        return ids if isinstance(ids, tuple) else (ids,)


def _kernel(arity: int, cost: str, glyph: str = "=", **slots) -> OpSpec:
    """A block compute super instruction writing the block at slot 0."""
    return OpSpec(arity, writes=(0,), cost=cost, glyph=glyph, yields=True, **slots)


#: every opcode's spec, by mnemonic
OPS: dict[str, OpSpec] = {
    # control
    Op.JUMP: OpSpec(1, pcs=(0,), barrier=True),
    Op.BRANCH_FALSE: OpSpec(2, pcs=(1,), barrier=True),
    Op.CALL: OpSpec(2, pcs=(0,), barrier=True),
    Op.RETURN: OpSpec(0),
    Op.STOP: OpSpec(0),
    Op.DO_START: OpSpec(3, loop="start", partner=Op.DO_END, bind=0, exit=1, get_pcs=2),
    Op.DO_END: OpSpec(2, loop="end", partner=Op.DO_START, back=1, back_offset=1),
    Op.DOIN_START: OpSpec(3, loop="start", partner=Op.DOIN_END, bind=0, exit=1,
                          get_pcs=2),
    Op.DOIN_END: OpSpec(2, loop="end", partner=Op.DOIN_START, back=1, back_offset=1),
    Op.PARDO_START: OpSpec(5, loop="start", partner=Op.PARDO_END, bind=1, exit=3,
                           get_pcs=4, glyph="?", yields=True),
    Op.PARDO_END: OpSpec(1, loop="end", partner=Op.PARDO_START, back=0),
    # data movement
    Op.GET: OpSpec(1, reads=(0,), fetch=True, cost="get"),
    Op.REQUEST: OpSpec(1, reads=(0,), fetch=True, cost="request"),
    Op.PREFETCH: OpSpec(1, reads=(0,), fetch=True),
    Op.PUT: OpSpec(3, writes=(0,), reads=(2,), assign=1, cost="put", glyph=">",
                   yields=True),
    Op.PREPARE: OpSpec(3, writes=(0,), reads=(2,), assign=1, cost="prepare", glyph=">",
                       yields=True),
    Op.CREATE: OpSpec(1, arrays=(0,), barrier=True),
    Op.DELETE: OpSpec(1, arrays=(0,), barrier=True),
    Op.ALLOCATE: OpSpec(1, writes=(0,)),
    Op.DEALLOCATE: OpSpec(1, writes=(0,)),
    # block compute (super instructions)
    Op.FILL: _kernel(3, "elementwise", assign=1),
    Op.COPY: _kernel(2, "elementwise", reads=(1,)),
    Op.NEGATE: _kernel(2, "elementwise", reads=(1,)),
    Op.SCALE: _kernel(4, "elementwise", reads=(2,), assign=1),
    Op.SCALE_INPLACE: _kernel(2, "elementwise", reads=(0,)),  # read-modify-write
    Op.ACCUM: _kernel(3, "elementwise", reads=(2,), assign=1),
    Op.ADDSUB: _kernel(4, "elementwise", reads=(2, 3)),
    Op.CONTRACT: _kernel(4, "contraction", "#", reads=(2, 3), assign=1),
    Op.CONTRACT_FUSED: _kernel(6, "fused_contraction", "#", reads=(2, 3), assign=1),
    Op.SCALAR_CONTRACT: OpSpec(4, reads=(2, 3), assign=1, cost="contraction", glyph="#",
                               yields=True),
    Op.SCALAR_ASSIGN: OpSpec(3),
    Op.COMPUTE_INTEGRALS: _kernel(1, "integral", "%"),
    Op.EXECUTE: OpSpec(2, cost="flops", glyph="x", yields=True),
    # synchronization & utility: every rank takes them, no code moves across
    Op.COLLECTIVE: OpSpec(1, glyph="+", yields=True, barrier=True),
    Op.SIP_BARRIER: OpSpec(0, glyph="|", yields=True, barrier=True),
    Op.SERVER_BARRIER: OpSpec(0, glyph="|", yields=True, barrier=True),
    Op.BLOCKS_TO_LIST: OpSpec(1, arrays=(0,), glyph="s", yields=True, barrier=True),
    Op.LIST_TO_BLOCKS: OpSpec(1, arrays=(0,), glyph="s", yields=True, barrier=True),
    Op.CHECKPOINT: OpSpec(0, glyph="s", yields=True, barrier=True),
}  # fmt: skip

#: the assign operators an accumulate form's ``assign`` slot may hold
ASSIGN_OPS = frozenset(("=", "+=", "-="))
#: instructions that fetch a block the program demands (not a hint)
FETCHES = frozenset(op for op, s in OPS.items() if s.fetch and s.cost)
#: block kernels that compute their written blocks from their read
#: slots alone (integrals and user super instructions call out)
PURE_KERNELS = frozenset(
    op
    for op, s in OPS.items()
    if s.writes and s.cost in ("elementwise", "contraction", "fused_contraction")
)
#: the two barriers, the only instructions barrier coalescing removes
BARRIERS = frozenset((Op.SIP_BARRIER, Op.SERVER_BARRIER))


@dataclass(frozen=True)
class IndexDesc:
    """Descriptor-table entry for an index variable."""

    name: str
    kind: str  # 'ao', 'mo', 'moa', 'mob', 'la', 'simple'
    lo_rpn: tuple  # RPN over numbers and symbolic constants
    hi_rpn: tuple
    super_id: Optional[int] = None  # set for subindices

    @property
    def is_subindex(self) -> bool:
        return self.super_id is not None


@dataclass(frozen=True)
class ArrayDesc:
    """Descriptor-table entry for an array."""

    name: str
    kind: str  # 'static', 'temp', 'local', 'distributed', 'served'
    index_ids: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.index_ids)


@dataclass(frozen=True)
class BlockOperand:
    """An (array, index variables) operand of a block instruction."""

    array_id: int
    index_ids: tuple[int, ...]


@dataclass(frozen=True)
class CompiledCondition:
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left_rpn: tuple
    right_rpn: tuple


@dataclass(frozen=True)
class Instr:
    op: str
    args: tuple = ()
    location: Optional[SourceLocation] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instr({self.op}, {self.args})"


@dataclass
class CompiledProgram:
    """A SIAL program compiled to SIA bytecode."""

    name: str
    instructions: list[Instr]
    index_table: list[IndexDesc]
    array_table: list[ArrayDesc]
    scalar_table: list[str]
    symbolic_table: list[str]
    # pc of each procedure's entry, by lowered name
    proc_entries: dict[str, int] = field(default_factory=dict)
    source: str = ""
    # set by the middle-end pass pipeline (repro.sial.passes): the -O
    # level the program was optimized at and the machine-checkable
    # PipelineReport describing what each pass did
    opt_level: int = 0
    opt_report: Optional[Any] = None
    # the AnalyzedProgram this program was compiled from, for passes that
    # reason about the source (barrier coalescing); never pickled, so a
    # program crosses a pipe at its bytecode's size
    analysis: Optional[Any] = field(default=None, repr=False, compare=False)
    # optimize_program's results for this program, by level: a driver
    # that compiles once and runs many times pays the passes once
    optimized: dict[int, "CompiledProgram"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("analysis", None)  # unpickles as the class default, None
        return state

    def index_id(self, name: str) -> int:
        return self._lookup(self.index_table, name)

    def array_id(self, name: str) -> int:
        return self._lookup(self.array_table, name)

    def scalar_id(self, name: str) -> int:
        lowered = name.lower()
        for i, n in enumerate(self.scalar_table):
            if n.lower() == lowered:
                return i
        raise KeyError(name)

    @staticmethod
    def _lookup(table, name: str) -> int:
        lowered = name.lower()
        for i, desc in enumerate(table):
            if desc.name.lower() == lowered:
                return i
        raise KeyError(name)


# -- RPN evaluation ----------------------------------------------------------
#
# RPN items: ('num', v) | ('scalar', id) | ('symbolic', id) | ('index', id)
#            | ('+',) | ('-',) | ('*',) | ('/',) | ('neg',)
def evaluate_rpn(
    rpn: tuple,
    scalars: Optional[list[float]] = None,
    symbolics: Optional[list[float]] = None,
    index_values: Optional[dict[int, int]] = None,
) -> float:
    """Evaluate a compiled RPN scalar expression."""
    stack: list[float] = []
    for item in rpn:
        tag = item[0]
        if tag == "num":
            stack.append(item[1])
        elif tag == "scalar":
            assert scalars is not None
            stack.append(scalars[item[1]])
        elif tag == "symbolic":
            assert symbolics is not None
            stack.append(symbolics[item[1]])
        elif tag == "index":
            assert index_values is not None
            stack.append(float(index_values[item[1]]))
        elif tag == "neg":
            stack.append(-stack.pop())
        else:
            b = stack.pop()
            a = stack.pop()
            if tag == "+":
                stack.append(a + b)
            elif tag == "-":
                stack.append(a - b)
            elif tag == "*":
                stack.append(a * b)
            elif tag == "/":
                stack.append(a / b)
            else:  # pragma: no cover - compiler emits only the above
                raise ValueError(f"bad RPN op {tag!r}")
    if len(stack) != 1:
        raise ValueError("malformed RPN expression")
    return stack[0]


_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def evaluate_condition(
    cond: CompiledCondition,
    scalars: Optional[list[float]] = None,
    symbolics: Optional[list[float]] = None,
    index_values: Optional[dict[int, int]] = None,
) -> bool:
    left = evaluate_rpn(cond.left_rpn, scalars, symbolics, index_values)
    right = evaluate_rpn(cond.right_rpn, scalars, symbolics, index_values)
    return _COMPARATORS[cond.op](left, right)


_RPN_TAGS = {"num", "scalar", "symbolic", "index", "+", "-", "*", "/", "neg"}

_BINOP_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _is_rpn(arg: Any) -> bool:
    """True for a compiled RPN scalar program (a tuple of tagged tuples)."""
    return (
        isinstance(arg, tuple)
        and len(arg) > 0
        and all(
            isinstance(item, tuple)
            and len(item) >= 1
            and item[0] in _RPN_TAGS
            for item in arg
        )
    )


def format_rpn(rpn: tuple, prog: Optional[CompiledProgram] = None) -> str:
    """Render a compiled RPN program as a symbolic infix expression."""
    stack: list[tuple[str, int]] = []  # (text, precedence); atoms = 3
    for item in rpn:
        tag = item[0]
        if tag == "num":
            value = item[1]
            text = repr(value)
            stack.append((text, 0 if value < 0 else 3))
        elif tag == "scalar":
            name = prog.scalar_table[item[1]] if prog else f"s{item[1]}"
            stack.append((name, 3))
        elif tag == "symbolic":
            name = prog.symbolic_table[item[1]] if prog else f"c{item[1]}"
            stack.append((name, 3))
        elif tag == "index":
            name = prog.index_table[item[1]].name if prog else f"i{item[1]}"
            stack.append((name, 3))
        elif tag == "neg":
            text, prec = stack.pop()
            if prec < 3:
                text = f"({text})"
            stack.append((f"-{text}", 0))
        else:
            prec = _BINOP_PREC[tag]
            b_text, b_prec = stack.pop()
            a_text, a_prec = stack.pop()
            if a_prec < prec:
                a_text = f"({a_text})"
            # -, / are left associative: parenthesize an equal-precedence rhs
            if b_prec < prec or (b_prec == prec and tag in ("-", "/")):
                b_text = f"({b_text})"
            stack.append((f"{a_text} {tag} {b_text}", prec))
    if len(stack) != 1:
        return repr(rpn)
    return stack[0][0]


def disassemble(prog: CompiledProgram) -> str:
    """Human-readable listing of the bytecode, for debugging and docs."""
    lines = [f"; program {prog.name}"]
    lines.append(f"; {len(prog.index_table)} indices, {len(prog.array_table)} arrays")
    if prog.opt_level:
        lines.append(f"; optimized at -O{prog.opt_level}")
    rev_procs = {pc: name for name, pc in prog.proc_entries.items()}
    for pc, instr in enumerate(prog.instructions):
        if pc in rev_procs:
            lines.append(f"proc {rev_procs[pc]}:")
        args = ", ".join(_fmt_arg(a, prog) for a in instr.args)
        lines.append(f"  {pc:4d}  {instr.op:<18s} {args}")
    return "\n".join(lines)


def _fmt_arg(arg: Any, prog: CompiledProgram) -> str:
    if isinstance(arg, BlockOperand):
        name = prog.array_table[arg.array_id].name
        idx = ",".join(prog.index_table[i].name for i in arg.index_ids)
        return f"{name}({idx})"
    if isinstance(arg, CompiledCondition):
        left = format_rpn(arg.left_rpn, prog)
        right = format_rpn(arg.right_rpn, prog)
        return f"<{left} {arg.op} {right}>"
    if _is_rpn(arg):
        return f"{{{format_rpn(arg, prog)}}}"
    if isinstance(arg, (tuple, list)):
        inner = ", ".join(_fmt_arg(a, prog) for a in arg)
        return f"[{inner}]" if isinstance(arg, list) else f"({inner})"
    return repr(arg)
