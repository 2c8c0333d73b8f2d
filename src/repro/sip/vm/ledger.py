"""The collective scalar ledger.

Each scalar's value is decomposed into a non-pardo *base* plus
per-iteration *deltas* keyed ``(pardo_id, activation, iteration)``, so
the master can reduce collectives in canonical iteration order --
bitwise identical results no matter which worker ran which iteration.
Updates the decomposition cannot represent (scaling with deltas
outstanding, increments computed from a mid-accumulation scalar) poison
the scalar: the master then sums the workers' full values in worker
order instead.
"""

from __future__ import annotations

__all__ = ["ScalarLedger"]


class ScalarLedger:
    def __init__(self, n_scalars: int) -> None:
        self.base: list[float] = [0.0] * n_scalars
        self.deltas: list[dict[tuple, float]] = [{} for _ in range(n_scalars)]
        self.poisoned: list[bool] = [False] * n_scalars

    def note(self, scalar_id, op, value, iter_key, rpn=()) -> None:
        """Record one scalar update against the decomposition.

        ``iter_key`` is the identity of the running pardo iteration, or
        None outside one (SPMD statements fold into the base).
        """
        if iter_key is None:
            base = self.base
            if op == "=":
                base[scalar_id] = value
                self.deltas[scalar_id].clear()
                self.poisoned[scalar_id] = False
            elif op == "+=":
                base[scalar_id] += value
            elif op == "-=":
                base[scalar_id] -= value
            else:
                # scaling distributes over the base but not over pending
                # deltas; with deltas outstanding the decomposition no
                # longer holds
                if self.deltas[scalar_id]:
                    self.poisoned[scalar_id] = True
                base[scalar_id] *= value
        elif op in ("+=", "-=") and not self.order_dependent(rpn):
            deltas = self.deltas[scalar_id]
            signed = value if op == "+=" else -value
            deltas[iter_key] = deltas.get(iter_key, 0.0) + signed
        else:
            # a non-additive update inside a pardo iteration (or an
            # increment computed from another accumulating scalar) makes
            # the per-iteration decomposition assignment-dependent
            self.poisoned[scalar_id] = True

    def order_dependent(self, rpn) -> bool:
        """Whether an expression reads a scalar still mid-accumulation."""
        for item in rpn:
            if item[0] == "scalar":
                sid = item[1]
                if self.deltas[sid] or self.poisoned[sid]:
                    return True
        return False

    def contribution(self, scalar_id: int) -> tuple[float, tuple, bool]:
        """The (base, sorted deltas, poisoned) triple shipped to the master."""
        return (
            self.base[scalar_id],
            tuple(sorted(self.deltas[scalar_id].items())),
            self.poisoned[scalar_id],
        )

    def absorb_reduction(self, scalar_id: int, total: float) -> None:
        """A collective completed: the reduced value becomes the scalar's
        new base everywhere."""
        self.base[scalar_id] = total
        self.deltas[scalar_id].clear()
        self.poisoned[scalar_id] = False
