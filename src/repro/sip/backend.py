"""Compute backends: the super-instruction kernels.

Super instructions take one or two blocks as input and produce a new
block, never communicating (paper, Section III).  The SIP treats them
as opaque; here they come in two flavours sharing one interface:

* :class:`RealBackend` executes numpy kernels (einsum/matmul play
  the role of the paper's Fortran+DGEMM implementations) *and* charges
  modeled time;
* :class:`ModelBackend` charges only the modeled time, letting the
  simulator run performance experiments without touching data.

Every method returns the simulated seconds the instruction costs; the
interpreter yields a Timeout for that amount.

Real kernels run through a :class:`~repro.sip.plans.KernelPlanCache`:
contractions execute compiled GEMM / einsum-path plans and axis
permutations are memoized.  The runtime shares one cache among all the
workers of a run; a backend built without one compiles into its own.
A plan charges the same modeled time the model backend computes from
shapes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Optional

import numpy as np

from ..costmodel import CostModel
from .blocks import DTYPE_BYTES
from .config import SIPError
from .plans import KernelPlanCache

__all__ = ["KernelOperand", "ComputeBackend", "RealBackend", "ModelBackend", "make_backend"]

@dataclass
class KernelOperand:
    """A block operand as seen by a kernel.

    ``data`` is the (already sliced) ndarray view in real mode, None in
    model mode.  ``index_ids`` names each axis by the index variable
    addressing it; kernels align axes by matching these ids.
    ``element_ranges`` gives, per axis, the global element offsets the
    block covers within its dimension -- user super instructions (e.g.
    orbital-energy denominators) need them to know *which* elements
    they are looking at.
    """

    shape: tuple[int, ...]
    index_ids: tuple[int, ...]
    data: Optional[np.ndarray] = None
    element_ranges: tuple[tuple[int, int], ...] = ()

    @property
    def nbytes(self) -> int:
        # model mode carries no data; the runtime is double precision
        # throughout, so both modes charge identical costs
        itemsize = DTYPE_BYTES if self.data is None else self.data.dtype.itemsize
        return prod(self.shape, start=1) * itemsize


class ComputeBackend:
    """Shared cost accounting; subclasses add/skip real data movement."""

    real = False

    def __init__(
        self, cost: CostModel, plans: Optional[KernelPlanCache] = None
    ) -> None:
        self.cost = cost
        if plans is None and self.real:
            plans = KernelPlanCache()
        self.plans = plans

    def _perm(self, dst_ids: tuple[int, ...], src_ids: tuple[int, ...]) -> tuple[int, ...]:
        return self.plans.perm(dst_ids, src_ids)

    # -- kernels -----------------------------------------------------------
    def fill(self, dst: KernelOperand, value: float, op: str) -> float:
        if self.real:
            if op == "=":
                dst.data[...] = value
            elif op == "+=":
                dst.data[...] += value
            else:
                dst.data[...] -= value
        return self.cost.elementwise_time(dst.nbytes)

    def copy(self, dst: KernelOperand, src: KernelOperand) -> float:
        if self.real:
            dst.data[...] = np.transpose(
                src.data, self._perm(dst.index_ids, src.index_ids)
            )
        return self.cost.elementwise_time(dst.nbytes)

    def accumulate(self, dst: KernelOperand, op: str, src: KernelOperand) -> float:
        if self.real:
            aligned = np.transpose(
                src.data, self._perm(dst.index_ids, src.index_ids)
            )
            if op == "+=":
                dst.data[...] += aligned
            else:
                dst.data[...] -= aligned
        return self.cost.elementwise_time(dst.nbytes)

    def scale(
        self, dst: KernelOperand, op: str, src: KernelOperand, factor: float
    ) -> float:
        if self.real:
            aligned = factor * np.transpose(
                src.data, self._perm(dst.index_ids, src.index_ids)
            )
            if op == "=":
                dst.data[...] = aligned
            elif op == "+=":
                dst.data[...] += aligned
            else:
                dst.data[...] -= aligned
        return self.cost.elementwise_time(dst.nbytes)

    def scale_inplace(self, dst: KernelOperand, factor: float) -> float:
        if self.real:
            dst.data[...] *= factor
        return self.cost.elementwise_time(dst.nbytes)

    def negate(self, dst: KernelOperand, src: KernelOperand) -> float:
        if self.real:
            dst.data[...] = -np.transpose(
                src.data, self._perm(dst.index_ids, src.index_ids)
            )
        return self.cost.elementwise_time(dst.nbytes)

    def addsub(
        self, dst: KernelOperand, op: str, a: KernelOperand, b: KernelOperand
    ) -> float:
        if self.real:
            aa = np.transpose(a.data, self._perm(dst.index_ids, a.index_ids))
            bb = np.transpose(b.data, self._perm(dst.index_ids, b.index_ids))
            dst.data[...] = aa + bb if op == "+" else aa - bb
        return self.cost.elementwise_time(2 * dst.nbytes)

    def _plan_time(self, plan) -> float:
        """Modeled time of a compiled contraction, memoised on the plan
        (the plan cache and the cost model both live for one run)."""
        cost = plan.cost
        if cost is None:
            cost = plan.cost = self.cost.contraction_time(
                plan.out_shape, plan.contracted_shape
            )
        return cost

    def contract(
        self, dst: KernelOperand, op: str, a: KernelOperand, b: KernelOperand
    ) -> float:
        if self.real:
            plan = self.plans.contraction(
                a.index_ids, a.shape, b.index_ids, b.shape, dst.index_ids
            )
            plan.execute(a.data, b.data, dst.data, op)
            return self._plan_time(plan)
        contracted_shape = tuple(
            dim
            for dim, ix in zip(a.shape, a.index_ids)
            if ix not in dst.index_ids
        )
        return self.cost.contraction_time(dst.shape, contracted_shape)

    def fused_contract(
        self,
        dst: KernelOperand,
        op: str,
        a: KernelOperand,
        b: KernelOperand,
        tmp_ids: tuple[int, ...],
        factor: Optional[float],
    ) -> float:
        """Optimizer-fused ``tmp = a*b; dst op [factor*]tmp``.

        Contracts into the *virtual* temp layout ``tmp_ids`` and applies
        the transposed (optionally scaled) result to ``dst`` -- the exact
        data flow of the unfused CONTRACT + ACCUM/SCALE/COPY pair, so the
        result is bit-identical, with one block allocation and one
        instruction dispatch less.  Charges the sum of both unfused
        costs, keeping the simulated-time model honest.
        """
        if self.real:
            plan = self.plans.contraction(
                a.index_ids, a.shape, b.index_ids, b.shape, tmp_ids
            )
            res = np.empty(plan.out_shape)
            plan.execute(a.data, b.data, res, "=")
            contraction_time = self._plan_time(plan)
            aligned = np.transpose(res, self._perm(dst.index_ids, tmp_ids))
            if factor is not None:
                aligned = factor * aligned
            if op == "=":
                dst.data[...] = aligned
            elif op == "+=":
                dst.data[...] += aligned
            else:
                dst.data[...] -= aligned
        else:
            dims = dict(zip(a.index_ids, a.shape))
            dims.update(zip(b.index_ids, b.shape))
            tmp_shape = tuple(dims[ix] for ix in tmp_ids)
            contracted_shape = tuple(
                dim
                for dim, ix in zip(a.shape, a.index_ids)
                if ix not in tmp_ids
            )
            contraction_time = self.cost.contraction_time(tmp_shape, contracted_shape)
        return contraction_time + self.cost.elementwise_time(dst.nbytes)

    def scalar_contract(self, a: KernelOperand, b: KernelOperand) -> tuple[float, float]:
        """Full contraction to a scalar; returns (value, cost)."""
        value = 0.0
        if self.real:
            aligned = np.transpose(b.data, self._perm(a.index_ids, b.index_ids))
            value = float(np.sum(a.data * aligned))
        cost = self.cost.contraction_time((), a.shape)
        return value, cost

    def compute_integrals(
        self,
        dst: KernelOperand,
        element_ranges: tuple[tuple[int, int], ...],
        source: Optional[Callable],
    ) -> float:
        n_elements = prod(dst.shape, start=1)
        if self.real:
            if source is None:
                raise SIPError(
                    "compute_integrals used but no integral_source configured"
                )
            values = source(element_ranges)
            if values.shape != dst.shape:
                raise SIPError(
                    f"integral_source returned shape {values.shape}, "
                    f"expected {dst.shape}"
                )
            dst.data[...] = values
        return self.cost.integral_time(n_elements)


class RealBackend(ComputeBackend):
    real = True


class ModelBackend(ComputeBackend):
    real = False


def make_backend(
    kind: str,
    cost: CostModel,
    plans: Optional[KernelPlanCache] = None,
) -> ComputeBackend:
    if kind == "real":
        return RealBackend(cost, plans=plans)
    if kind == "model":
        return ModelBackend(cost)
    raise ValueError(f"unknown backend {kind!r}")
