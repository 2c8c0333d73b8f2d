"""Constant folding and deduplication of RPN scalar programs.

Folding evaluates constant subexpressions of an RPN program at compile
time with the *same* Python float arithmetic :func:`evaluate_rpn` uses
at run time, so the folded program is bitwise-identical by
construction.  Only number-number operations fold; ``x / 0`` is left
alone so a run-time ``ZeroDivisionError`` still happens exactly where
the unoptimized program raised it.

Dedup then interns equal RPN tuples program-wide (instruction operands
and compiled conditions alike), so the runtime's constant-RPN memo --
which is keyed by tuple identity -- hits once per distinct expression
instead of once per occurrence.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from ..bytecode import CompiledCondition, CompiledProgram, Op
from .manager import PassReport

__all__ = ["fold_constants"]

_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

_RPN_TAGS = {"num", "scalar", "symbolic", "index", "+", "-", "*", "/", "neg"}


def _is_rpn(arg) -> bool:
    return (
        isinstance(arg, tuple)
        and len(arg) > 0
        and all(
            isinstance(item, tuple) and len(item) >= 1 and item[0] in _RPN_TAGS
            for item in arg
        )
    )


def fold_rpn(rpn: tuple) -> tuple:
    """Fold constant subexpressions; returns the input when nothing folds.

    Simulates the evaluation stack symbolically: each slot is either a
    known number or an opaque item run, and an operator over two known
    numbers becomes one ``('num', value)`` item.
    """
    # stack of (items, const_value_or_None)
    stack: list[tuple[tuple, object]] = []
    for item in rpn:
        tag = item[0]
        if tag == "num":
            stack.append(((item,), item[1]))
        elif tag in ("scalar", "symbolic", "index"):
            stack.append(((item,), None))
        elif tag == "neg":
            if not stack:
                return rpn  # malformed; leave for the runtime to report
            items, value = stack.pop()
            if value is not None:
                folded = -value
                stack.append(((("num", folded),), folded))
            else:
                stack.append((items + (item,), None))
        else:
            if len(stack) < 2:
                return rpn
            b_items, b_val = stack.pop()
            a_items, a_val = stack.pop()
            if (
                a_val is not None
                and b_val is not None
                and not (tag == "/" and b_val == 0)
            ):
                folded = _BINOPS[tag](a_val, b_val)
                stack.append(((("num", folded),), folded))
            else:
                stack.append((a_items + b_items + (item,), None))
    if len(stack) != 1:
        return rpn
    out = stack[0][0]
    return out if out != rpn else rpn


def fold_constants(prog: CompiledProgram) -> tuple[CompiledProgram, PassReport]:
    report = PassReport(name="constfold")
    folded = 0
    interned: dict[tuple, tuple] = {}

    def intern(rpn: tuple) -> tuple:
        return interned.setdefault(rpn, rpn)

    def fix(arg):
        nonlocal folded
        if isinstance(arg, CompiledCondition):
            return CompiledCondition(
                arg.op, fix(arg.left_rpn), fix(arg.right_rpn)
            )
        if _is_rpn(arg):
            new = fold_rpn(arg)
            if new is not arg:
                folded += 1
            return intern(new)
        if isinstance(arg, tuple):
            return tuple(fix(a) for a in arg)
        return arg

    instrs = []
    changed = 0
    for instr in prog.instructions:
        # EXECUTE argument specs are (kind, value) pairs the fold walk
        # could misread as one-item RPNs; user superinstructions see
        # their arguments verbatim, so leave them untouched
        if instr.op == Op.EXECUTE:
            instrs.append(instr)
            continue
        new_args = fix(instr.args)
        if new_args != instr.args:
            changed += 1
        instrs.append(dc_replace(instr, args=new_args))

    report.notes.append(f"folded {folded} expressions in {changed} instrs")
    report.notes.append(
        f"{len(interned)} distinct RPN programs after interning"
    )
    out = dc_replace(
        prog, instructions=instrs, proc_entries=dict(prog.proc_entries)
    )
    return out, report
