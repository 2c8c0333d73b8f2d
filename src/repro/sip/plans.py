"""Compiled kernel plans: contraction lowering cached per signature.

The paper's super instructions get their speed from tuned Fortran
kernels built around DGEMM; our ``RealBackend`` previously rebuilt an
einsum subscript string and re-ran ``np.einsum``'s path search on
*every* contraction call.  Block programs execute the same handful of
contraction signatures thousands of times (once per block per sweep),
so this module compiles each distinct signature **once** and caches the
result:

* a :class:`_GemmPlan` when the contraction is a clean GEMM -- both
  operands are transposed to a canonical layout, the kept/contracted
  axes are folded, and a single ``np.matmul`` runs into a reusable
  scratch buffer (``out=``); this mirrors exactly how numpy's own
  optimized einsum lowers a two-operand contraction, so the results are
  bit-identical to the legacy path;
* an :class:`_OuterPlan` when nothing is contracted -- one broadcast
  ``np.multiply`` and the output transpose; every output element is a
  single product, so the bits equal einsum's;
* a :class:`_EinsumPlan` otherwise (repeated indices, batch dimensions,
  pure reductions).  Its precomputed ``np.einsum_path`` pins the
  contraction order, but ``np.einsum`` still parses the subscripts and
  validates the path on every call (~25 us on 2x2 blocks, ten times a
  small GEMM), which is why the common shapes get plans of their own.

The cache key is ``(index-id signature, operand shapes)``; the
same cache also memoizes the ``_perm`` axis permutations used by the
transpose-style kernels.  One :class:`KernelPlanCache` is shared by all
workers of a run (plans are immutable apart from the scratch buffer,
and the simulator interleaves workers on a single thread).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .config import SIPError

__all__ = ["PlanCacheStats", "KernelPlanCache", "einsum_subscripts", "perm"]


def perm(dst_ids: tuple[int, ...], src_ids: tuple[int, ...]) -> tuple[int, ...]:
    """Axes permutation mapping src layout onto dst layout.

    Handles repeated index variables (e.g. a diagonal block ``D(M, M)``)
    by matching each destination axis to the first unused source axis
    with the same id.
    """
    used = [False] * len(src_ids)
    out = []
    for ix in dst_ids:
        for pos, sid in enumerate(src_ids):
            if sid == ix and not used[pos]:
                used[pos] = True
                out.append(pos)
                break
        else:
            raise SIPError(f"operand index mismatch: {dst_ids} vs {src_ids}")
    return tuple(out)


def einsum_subscripts(
    a_ids: tuple[int, ...], b_ids: tuple[int, ...], out_ids: tuple[int, ...]
) -> str:
    """The einsum spec for a contraction, lettered deterministically."""
    letters: dict[int, str] = {}
    pool = iter(string.ascii_lowercase)
    for ix in (*a_ids, *b_ids, *out_ids):
        if ix not in letters:
            letters[ix] = next(pool)
    a_sub = "".join(letters[i] for i in a_ids)
    b_sub = "".join(letters[i] for i in b_ids)
    out_sub = "".join(letters[i] for i in out_ids)
    return f"{a_sub},{b_sub}->{out_sub}"


@dataclass
class PlanCacheStats:
    """Observable effect of the plan cache (surfaced in RunProfile)."""

    hits: int = 0
    misses: int = 0
    gemm_plans: int = 0
    outer_plans: int = 0
    einsum_plans: int = 0
    perm_hits: int = 0
    perm_misses: int = 0

    @property
    def hit_rate(self) -> float:
        attempts = self.hits + self.misses
        return self.hits / attempts if attempts else 0.0


def _apply(dst: np.ndarray, res: np.ndarray, op: str) -> None:
    if op == "=":
        dst[...] = res
    elif op == "+=":
        dst[...] += res
    else:
        dst[...] -= res


class _Plan:
    """What every compiled contraction carries besides its executor:
    the shapes that follow from its signature, and a slot where the
    backend memoises the modeled time it charges for them."""

    __slots__ = ("out_shape", "contracted_shape", "cost")


class _GemmPlan(_Plan):
    """Fold a contraction into one ``matmul`` through a scratch buffer.

    The fold order matches numpy's own GEMM lowering of a two-operand
    einsum *exactly*.  Subtlety: numpy's optimized-einsum executor pops
    operands off its work list in reverse, so a two-operand einsum
    actually contracts ``b, a`` -- ``b``'s kept axes become the GEMM
    rows (M), the contracted axes fold in b-order (K), and ``a``'s kept
    axes become the columns (N).  We mirror that layout so the BLAS call
    sums in the same order and results are bitwise identical to
    ``np.einsum(..., optimize=True)``.
    """

    __slots__ = ("b_perm", "b_fold", "a_perm", "a_fold", "res_shape", "out_perm", "scratch")

    def __init__(
        self,
        b_perm: tuple[int, ...],
        b_fold: tuple[int, int],
        a_perm: tuple[int, ...],
        a_fold: tuple[int, int],
        res_shape: tuple[int, ...],
        out_perm: tuple[int, ...],
    ) -> None:
        self.b_perm = b_perm
        self.b_fold = b_fold
        self.a_perm = a_perm
        self.a_fold = a_fold
        self.res_shape = res_shape
        self.out_perm = out_perm
        self.scratch = np.empty((b_fold[0], a_fold[1]), dtype=np.float64)

    def execute(self, a: np.ndarray, b: np.ndarray, dst: np.ndarray, op: str) -> None:
        lhs = b.transpose(self.b_perm).reshape(self.b_fold)
        rhs = a.transpose(self.a_perm).reshape(self.a_fold)
        np.matmul(lhs, rhs, out=self.scratch)
        _apply(dst, self.scratch.reshape(self.res_shape).transpose(self.out_perm), op)


class _OuterPlan(_Plan):
    """An outer product: ``a`` broadcast against ``b``, then transposed.

    ``a`` gains one trailing unit axis per axis of ``b``, so the
    multiply yields ``a``'s axes followed by ``b``'s; ``out_perm`` puts
    them in output order.
    """

    __slots__ = ("a_shape", "out_perm")

    def __init__(
        self, a_shape: tuple[int, ...], b_ndim: int, out_perm: tuple[int, ...]
    ) -> None:
        self.a_shape = a_shape + (1,) * b_ndim
        self.out_perm = out_perm

    def execute(self, a: np.ndarray, b: np.ndarray, dst: np.ndarray, op: str) -> None:
        _apply(dst, np.multiply(a.reshape(self.a_shape), b).transpose(self.out_perm), op)


class _EinsumPlan(_Plan):
    """Fallback: the naive einsum with its contraction order fixed.

    The precomputed path spares the path search, not einsum's per-call
    subscript parsing and path validation.
    """

    __slots__ = ("subscripts", "path")

    def __init__(self, subscripts: str, a_shape: tuple[int, ...], b_shape: tuple[int, ...]):
        self.subscripts = subscripts
        self.path = np.einsum_path(
            subscripts,
            np.empty(a_shape, dtype=np.float64),
            np.empty(b_shape, dtype=np.float64),
            optimize=True,
        )[0]

    def execute(self, a: np.ndarray, b: np.ndarray, dst: np.ndarray, op: str) -> None:
        _apply(dst, np.einsum(self.subscripts, a, b, optimize=self.path), op)


def _compile_contraction(
    a_ids: tuple[int, ...],
    a_shape: tuple[int, ...],
    b_ids: tuple[int, ...],
    b_shape: tuple[int, ...],
    out_ids: tuple[int, ...],
):
    """Lower one contraction signature to a GEMM or outer-product plan,
    or bail to einsum.

    Both apply only to the clean case: no repeated index within an
    operand (diagonals), no batch index (present in a, b, and out), no
    pure reductions (an index of one operand absent from both the other
    operand and the output).  A clean signature with a contracted index
    is a GEMM, one without is an outer product.  Everything else runs
    through einsum on a fixed path, which is what the legacy backend
    executed anyway.
    """
    set_a, set_b, set_out = set(a_ids), set(b_ids), set(out_ids)
    clean = (
        len(set_a) == len(a_ids)
        and len(set_b) == len(b_ids)
        and len(set_out) == len(out_ids)
        and not (set_a & set_b & set_out)  # batch dims
        and all(ix in set_out or ix in set_b for ix in a_ids)
        and all(ix in set_out or ix in set_a for ix in b_ids)
        and all(ix in set_a or ix in set_b for ix in out_ids)
    )
    if not clean:
        return _EinsumPlan(einsum_subscripts(a_ids, b_ids, out_ids), a_shape, b_shape)
    # numpy's path executor pops operands in reverse, so the pair
    # contraction runs as "b, a": b's kept axes are the GEMM rows (M),
    # the contracted axes fold in b-order (K), a's kept axes are the
    # columns (N).  Mirror that so BLAS sums in the identical order.
    m_ids = tuple(ix for ix in b_ids if ix in set_out)
    k_ids = tuple(ix for ix in b_ids if ix in set_a)
    n_ids = tuple(ix for ix in a_ids if ix in set_out)
    if not k_ids:
        return _OuterPlan(a_shape, len(b_ids), perm(out_ids, (*a_ids, *b_ids)))
    a_pos = {ix: p for p, ix in enumerate(a_ids)}
    b_pos = {ix: p for p, ix in enumerate(b_ids)}
    b_perm = tuple(b_pos[ix] for ix in (*m_ids, *k_ids))
    a_perm = tuple(a_pos[ix] for ix in (*k_ids, *n_ids))
    m_shape = tuple(b_shape[b_pos[ix]] for ix in m_ids)
    k_shape = tuple(b_shape[b_pos[ix]] for ix in k_ids)
    n_shape = tuple(a_shape[a_pos[ix]] for ix in n_ids)
    if tuple(a_shape[a_pos[ix]] for ix in k_ids) != k_shape:
        raise SIPError(
            f"contraction dimension mismatch between operands "
            f"{a_shape}/{a_ids} and {b_shape}/{b_ids}"
        )
    m = int(np.prod(m_shape, dtype=np.int64)) if m_shape else 1
    k = int(np.prod(k_shape, dtype=np.int64)) if k_shape else 1
    n = int(np.prod(n_shape, dtype=np.int64)) if n_shape else 1
    res_ids = (*m_ids, *n_ids)
    out_perm = perm(out_ids, res_ids)
    return _GemmPlan(b_perm, (m, k), a_perm, (k, n), m_shape + n_shape, out_perm)


class KernelPlanCache:
    """Per-run cache of compiled kernel plans and axis permutations."""

    def __init__(self) -> None:
        self.stats = PlanCacheStats()
        self._contractions: dict[tuple, object] = {}
        self._perms: dict[tuple, tuple[int, ...]] = {}

    def contraction(
        self,
        a_ids: tuple[int, ...],
        a_shape: tuple[int, ...],
        b_ids: tuple[int, ...],
        b_shape: tuple[int, ...],
        out_ids: tuple[int, ...],
    ):
        """The plan for ``out[out_ids] = a[a_ids] * b[b_ids]``.

        The output shape follows from the operands, so it is part of
        the plan (``plan.out_shape``) rather than of the key.
        """
        key = (a_ids, a_shape, b_ids, b_shape, out_ids)
        plan = self._contractions.get(key)
        if plan is not None:
            self.stats.hits += 1
            return plan
        self.stats.misses += 1
        plan = _compile_contraction(a_ids, a_shape, b_ids, b_shape, out_ids)
        dims = dict(zip(a_ids, a_shape))
        dims.update(zip(b_ids, b_shape))
        plan.out_shape = tuple(dims[ix] for ix in out_ids)
        plan.contracted_shape = tuple(
            dim for dim, ix in zip(a_shape, a_ids) if ix not in out_ids
        )
        plan.cost = None
        if isinstance(plan, _GemmPlan):
            self.stats.gemm_plans += 1
        elif isinstance(plan, _OuterPlan):
            self.stats.outer_plans += 1
        else:
            self.stats.einsum_plans += 1
        self._contractions[key] = plan
        return plan

    def perm(self, dst_ids: tuple[int, ...], src_ids: tuple[int, ...]) -> tuple[int, ...]:
        key = (dst_ids, src_ids)
        cached = self._perms.get(key)
        if cached is not None:
            self.stats.perm_hits += 1
            return cached
        self.stats.perm_misses += 1
        cached = self._perms[key] = perm(dst_ids, src_ids)
        return cached
