"""The lookahead prefetcher: speculative gets for upcoming iterations.

Resolves the get/request/prefetch operands of the next few loop
iterations against hypothetical index bindings and hands the resulting
block ids to the transfer engine as *hints* -- never waiting, never
faulting, and stopping as soon as the engine reports no headroom (the
single backpressure predicate that used to be two copy-pasted
``capacity - 2`` guards).
"""

from __future__ import annotations

from ...sial.bytecode import Op
from ..config import SIPError

__all__ = ["LookaheadPrefetcher"]


class LookaheadPrefetcher:
    def __init__(self, vm) -> None:
        self.vm = vm
        self.engine = vm.engine

    def _hint(self, instr, r) -> bool:
        """Hand one resolved operand to the engine; False = stop this pass."""
        vm = self.vm
        op = instr.op
        if op == Op.PREFETCH:
            # optimizer hints fetch by the operand's kind
            op = Op.GET if r.kind == "distributed" else Op.REQUEST
        if op == Op.GET:
            if r.owner_rank == vm.rank:
                return True
            return self.engine.hint(r.block_id, "get", mark_refetch=False)
        if op == Op.REQUEST:
            return self.engine.hint(r.block_id, "request", mark_refetch=False)
        return True

    def future(self, get_pcs: tuple[int, ...], index_id: int, future_values) -> None:
        """Issue gets for upcoming iterations of one loop index."""
        vm = self.vm
        if not get_pcs or vm.config.prefetch_depth == 0:
            return
        saved = vm.index_values.get(index_id)
        instrs = vm._instrs
        try:
            for v in future_values:
                if not self.engine.headroom():
                    break  # leave room for demand fetches
                vm.index_values[index_id] = v
                for gpc in get_pcs:
                    instr = instrs[gpc]
                    try:
                        r = vm.resolve(instr.args[0])
                    except SIPError:
                        continue  # depends on an index not currently bound
                    if not self._hint(instr, r):
                        # cache full of pending blocks: stop prefetching
                        return
        finally:
            # the early returns above must not leak a future index value
            # into the running iteration's bindings
            if saved is None:
                vm.index_values.pop(index_id, None)
            else:
                vm.index_values[index_id] = saved

    def pardo(
        self, get_pcs: tuple[int, ...], index_ids: tuple[int, ...], tuples
    ) -> None:
        """Issue gets for upcoming pardo iterations in the current chunk."""
        vm = self.vm
        if not get_pcs or vm.config.prefetch_depth == 0:
            return
        saved = {i: vm.index_values.get(i) for i in index_ids}
        instrs = vm._instrs
        for combo in tuples:
            if not self.engine.headroom():
                break  # leave room for demand fetches
            for i, v in zip(index_ids, combo):
                vm.index_values[i] = v
            for gpc in get_pcs:
                instr = instrs[gpc]
                try:
                    r = vm.resolve(instr.args[0])
                except SIPError:
                    continue
                if not self._hint(instr, r):
                    break
        for i, v in saved.items():
            if v is None:
                vm.index_values.pop(i, None)
            else:
                vm.index_values[i] = v
