"""The lookahead prefetcher: speculative gets for upcoming iterations.

Resolves the get/request/prefetch operands of the next few loop
iterations against hypothetical index bindings and hands the blocks
that could still move to the transfer engine as *hints* -- never
waiting, never faulting, and stopping as soon as the engine reports no
headroom (the single backpressure predicate that used to be two
copy-pasted ``capacity - 2`` guards).

Each loop's get list is decoded once into (operand, pc) pairs -- the
block's array routes the fetch; the compiler lists only gets the loop
can resolve (:func:`repro.sial.passes.rewrite.loop_get_pcs`).  A block this rank
owns, or one the cache already holds, needs no call to the engine.
A hint names the iteration it fetches for and the pc of the get it
serves (never a ``PREFETCH``), so a legal ``get X ... put X =`` inside
one iteration stays legal for the race checker however early it ran.
"""

from __future__ import annotations

from ...sial.bytecode import FETCHES, OPS, Op
from ..config import SIPError

__all__ = ["LookaheadPrefetcher"]


def demand_pcs(instrs) -> list[int]:
    """pc -> pc of the fetch a hint there serves: for a ``PREFETCH``,
    the first later get or request of its operand (the optimizer hints
    only a fetch the pardo body issues later in the same iteration);
    every other pc serves itself."""
    fetches = [(q, i.args[0]) for q, i in enumerate(instrs) if i.op in FETCHES]
    return [
        next((q for q, o in fetches if q > pc and o == i.args[0]), pc)
        if i.op == Op.PREFETCH
        else pc
        for pc, i in enumerate(instrs)
    ]


class LookaheadPrefetcher:
    def __init__(self, vm) -> None:
        self.vm = vm
        self.rank = vm.rank
        self.engine = vm.engine
        self.depth = vm.config.prefetch_depth
        self.demand_pc = demand_pcs(vm.rt.program.instructions)
        # loop start pc -> ((decoded operand, get pc), ...);
        # no entry when the loop has nothing to prefetch
        self.plans: dict[int, tuple] = {}
        if self.depth:
            instrs = vm.rt.decoded.instructions
            for pc, instr in enumerate(instrs):
                slot = OPS[instr.op].get_pcs
                if slot is not None:
                    get_pcs = instr.args[slot]
                    if get_pcs:
                        self.plans[pc] = tuple(
                            (instrs[g].args[0], self.demand_pc[g]) for g in get_pcs
                        )

    def _hint_all(self, plan, iteration) -> bool:
        """Hint one hypothetical iteration's blocks; False = stop."""
        index_values = self.vm.index_values
        rank = self.rank
        engine = self.engine
        lookup = engine.cache.lookup
        for operand, pc in plan:
            try:
                r = operand.resolve(index_values)
            except SIPError:
                continue  # uses an index only a procedure's caller binds
            if r.owner_rank == rank:
                continue
            entry = lookup(r.block_id, False)
            if entry is not None:
                if entry.pending:
                    engine.stats.coalesced += 1
                continue
            if not engine.hint(r.block_id, iteration, pc, mark_refetch=False):
                return False
        return True

    def future(self, start_pc: int, index_id: int, values, start: int) -> None:
        """Issue gets for a loop's iterations ``values[start:]``."""
        plan = self.plans.get(start_pc)
        if plan is None:
            return
        index_values = self.vm.index_values
        saved = index_values.get(index_id)
        try:
            for v in values[start : start + self.depth]:
                if not self.engine.headroom():
                    break  # leave room for demand fetches
                index_values[index_id] = v
                # a do loop runs inside the running iteration
                if not self._hint_all(plan, self.vm.race_iter):
                    return  # cache full of pending blocks
        finally:
            # the early returns above must not leak a future index value
            # into the running iteration's bindings
            if saved is None:
                index_values.pop(index_id, None)
            else:
                index_values[index_id] = saved

    def pardo(self, start_pc: int, index_ids: tuple[int, ...], chunk, start: int) -> None:
        """Issue gets for the pardo iterations ``chunk[start:]``."""
        plan = self.plans.get(start_pc)
        if plan is None:
            return
        head = self.vm.race_iter[:3]  # (0, pardo id, activation)
        index_values = self.vm.index_values
        saved = {i: index_values.get(i) for i in index_ids}
        for combo in chunk[start : start + self.depth]:
            if not self.engine.headroom():
                break  # leave room for demand fetches
            for i, v in zip(index_ids, combo):
                index_values[i] = v
            self._hint_all(plan, (*head, combo))
        for i, v in saved.items():
            if v is None:
                index_values.pop(i, None)
            else:
                index_values[i] = v
