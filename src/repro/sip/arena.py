"""Pooled shared-memory slab arena for the multiprocess transport.

PR 7's transport paid one ``SharedMemory`` create/copy/close on the
sender and one attach/copy/unlink on the receiver for *every* detoured
block.  This module replaces that per-payload lifecycle with a pooled
arena, the block-transfer layer real SIP implementations rely on:

* Each rank lazily creates a small set of shared-memory **slabs**
  (``SIPConfig.mp_arena_slab_bytes`` each, ``mp_arena_max_bytes``
  total) and carves every slab into power-of-two size-classed
  **slots**.  A block send leases a slot from the free list and copies
  the payload in once; the pickle carries a slim :class:`ArenaRef`.
* The receiver attaches each slab **once** (attach-cached) and maps a
  numpy view directly over the slot — no copy-out.  The view becomes a
  :class:`~repro.sip.blocks.Block` with a permanent phantom entry in
  the PR 3 copy-on-write cell, so ``ensure_writable`` copies on the
  first in-place *write*; the receive itself is zero-copy, and the
  block pool can never recycle borrowed arena memory.
* Slot reclamation needs no cross-process atomics.  Every slot owns
  ``world_size`` one-byte **release flags** at the head of its slab;
  the sender sets ``flag[dest] = 1`` before the send, the receiver's
  view finalizer writes it back to 0, and each byte is written by
  exactly one process on each side of the protocol.  The sender
  reclaims lazily when it next needs a slot.
* A **residency** registry remembers which sender buffer each slot
  holds a copy of (keyed by the ndarray's identity, pinned immutable
  via a phantom count in the shared COW cell).  Re-sending the same
  buffer to another rank is then a pure flag write — zero copies.
  Residencies are evicted (phantom dropped, slot freed) under arena
  pressure, so the cache never blocks reclamation for long.

Crash safety: slab names are distinguishable from the one-shot
fallback segments, children never unlink slabs themselves, and the
parent unlinks all of the run's slabs after the fleet joins (the same
sweep that catches genuinely leaked one-shot segments).

The arena guarantees the same snapshot semantics as the simulator's
zero-copy transport: content pinning relies on every in-place block
write going through ``ensure_writable`` — exactly the discipline the
PR 3 COW fast path already requires.
"""

from __future__ import annotations

import contextlib
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from .blocks import Block

__all__ = [
    "ArenaStats",
    "ArenaRef",
    "SlabArena",
    "ArenaReceiver",
    "MIN_SLOT_BYTES",
]

#: smallest slot size class, bytes (power of two)
MIN_SLOT_BYTES = 256
#: alignment of the slot data region inside a slab
_ALIGN = 64

#: Live arena-side objects in this process.  The test suite's autouse
#: teardown sweeps this to assert zero outstanding slot leases after
#: every mp-marked test (zero leaked refcounts, not just segments).
LIVE_ARENAS: "weakref.WeakSet" = weakref.WeakSet()


@contextlib.contextmanager
def _untracked_shm():
    """Open a SharedMemory without resource-tracker registration.

    Segment lifecycle is managed explicitly here (receivers release
    flags, the parent sweeps).  Python < 3.13 has no ``track=False``
    and registers on *attach* as well as create, so with a forked
    (shared) tracker the sender's unregister can race the receiver's
    attach/unlink pair and corrupt the tracker's cache.  Suppressing
    registration around the constructor avoids the race; the engine is
    single-threaded, so the swap is safe.
    """
    orig_reg = resource_tracker.register
    orig_unreg = resource_tracker.unregister
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = orig_reg
        resource_tracker.unregister = orig_unreg


@dataclass
class ArenaStats:
    """Arena traffic of one rank (sender + receiver sides), or summed."""

    hits: int = 0  # payloads copied into a leased slot
    handoffs: int = 0  # repeat sends satisfied with zero copies
    misses: int = 0  # fallbacks to a one-shot segment (full/oversize)
    bytes_placed: int = 0  # bytes copied into slots (sender side)
    handoff_bytes: int = 0  # bytes re-sent without any copy
    slabs_created: int = 0
    slab_bytes: int = 0
    slots_leased: int = 0
    slots_reclaimed: int = 0
    residencies_evicted: int = 0
    recv_mapped: int = 0  # blocks delivered as views over a slot
    bytes_zero_copy: int = 0  # bytes delivered without a receive copy
    recv_released: int = 0  # leases returned by the view finalizer
    recv_live_at_exit: int = 0  # leases still held when the rank reported
    refs_leaked: int = 0  # mapped - released - live; must be 0


@dataclass(frozen=True)
class ArenaRef:
    """Wire stub for a Block payload parked in an arena slot.

    ``release_off`` is the absolute offset of the *receiver's* release
    flag byte inside the slab; the receiver's view finalizer zeroes it
    when the mapped block (and every view derived from it) dies.
    """

    name: str
    data_off: int
    data_shape: tuple
    dtype_str: str
    block_shape: tuple
    release_off: int
    payload_nbytes: int

    @property
    def nbytes(self) -> int:
        # message_nbytes() must account a detoured payload at the block
        # bytes it stands for, never at the size of this stub
        return self.payload_nbytes


class _Slab:
    __slots__ = ("name", "seg", "class_size", "n_slots")

    def __init__(self, name, seg, class_size, n_slots):
        self.name = name
        self.seg = seg
        self.class_size = class_size
        self.n_slots = n_slots


class _Slot:
    __slots__ = ("slab", "data_off", "flags_off", "size", "pending", "res_key")

    def __init__(self, slab, data_off, flags_off, size):
        self.slab = slab
        self.data_off = data_off
        self.flags_off = flags_off
        self.size = size
        self.pending: set[int] = set()  # dest ranks whose flag we set
        self.res_key: Optional[int] = None  # residency key, or None


class _Residency:
    __slots__ = ("key", "slot", "cell", "fin")

    def __init__(self, key, slot, cell, fin):
        self.key = key
        self.slot = slot
        self.cell = cell
        self.fin = fin


class SlabArena:
    """Sender-side slot allocator over pooled shared-memory slabs."""

    def __init__(
        self,
        run_id: str,
        rank: int,
        world_size: int,
        *,
        slab_bytes: int = 1 << 22,
        max_bytes: int = 1 << 26,
        epoch: int = 0,
        stats: Optional[ArenaStats] = None,
        ledger=None,
    ) -> None:
        self.run_id = run_id
        self.rank = rank
        self.world_size = world_size
        self.slab_bytes = int(slab_bytes)
        self.max_bytes = int(max_bytes)
        self.epoch = epoch
        self.stats = stats if stats is not None else ArenaStats()
        #: a MemoryManager charged for the slab footprint, or None
        self.ledger = ledger
        self._free: dict[int, list[_Slot]] = {}
        self._busy: dict[int, list[_Slot]] = {}
        self._slabs: list[_Slab] = []
        self._seg_bytes = 0
        self._slab_counter = 0
        self._residency: dict[int, _Residency] = {}
        LIVE_ARENAS.add(self)

    # -- naming ------------------------------------------------------------
    def _slab_name(self, class_size: int) -> str:
        # the trailing ``a<class-exponent>x<n>`` marker distinguishes an
        # expected slab from a leaked one-shot segment (…n<seq>) in the
        # parent's sweep; the epoch guards a re-created world in one run
        self._slab_counter += 1
        exp = class_size.bit_length()
        return (
            f"rmp{self.run_id}r{self.rank}e{self.epoch}"
            f"a{exp}x{self._slab_counter}"
        )

    # -- allocation --------------------------------------------------------
    @staticmethod
    def _class_for(nbytes: int) -> int:
        c = MIN_SLOT_BYTES
        while c < nbytes:
            c <<= 1
        return c

    def _flags_clear(self, slot: _Slot) -> bool:
        buf = slot.slab.seg.buf
        base = slot.flags_off
        return all(buf[base + r] == 0 for r in slot.pending)

    def _sweep(self, class_size: int, evict_residents: bool = False) -> None:
        """Move released busy slots of one class back to the free list."""
        busy = self._busy.get(class_size)
        if not busy:
            return
        keep: list[_Slot] = []
        free = self._free.setdefault(class_size, [])
        for slot in busy:
            if not self._flags_clear(slot):
                keep.append(slot)
                continue
            if slot.res_key is not None:
                if not evict_residents:
                    keep.append(slot)
                    continue
                self._evict_residency(slot)
            slot.pending.clear()
            free.append(slot)
            self.stats.slots_reclaimed += 1
        self._busy[class_size] = keep

    def _new_slab(self, class_size: int) -> None:
        n_slots = max(1, self.slab_bytes // class_size)
        flags_area = -(-n_slots * self.world_size // _ALIGN) * _ALIGN
        total = flags_area + n_slots * class_size
        if self._seg_bytes + total > self.max_bytes:
            return
        name = self._slab_name(class_size)
        with _untracked_shm():
            seg = shared_memory.SharedMemory(name=name, create=True, size=total)
        # a fresh mapping is zero-filled: every release flag starts clear
        slab = _Slab(name, seg, class_size, n_slots)
        self._slabs.append(slab)
        self._seg_bytes += total
        self.stats.slabs_created += 1
        self.stats.slab_bytes += total
        if self.ledger is not None:
            self.ledger.charge_arena(total)
        free = self._free.setdefault(class_size, [])
        for i in range(n_slots):
            free.append(
                _Slot(
                    slab,
                    data_off=flags_area + i * class_size,
                    flags_off=i * self.world_size,
                    size=class_size,
                )
            )

    def lease(self, nbytes: int) -> Optional[_Slot]:
        """A free slot fitting ``nbytes``, or None (arena full/oversize)."""
        if nbytes > self.slab_bytes:
            return None
        c = self._class_for(nbytes)
        free = self._free.setdefault(c, [])
        if not free:
            self._sweep(c)
        if not free:
            self._new_slab(c)
        if not free:
            self._sweep(c, evict_residents=True)
        if not free:
            return None
        slot = free.pop()
        self._busy.setdefault(c, []).append(slot)
        self.stats.slots_leased += 1
        return slot

    # -- payload placement -------------------------------------------------
    def place(self, block: Block, dest: int) -> Optional[ArenaRef]:
        """Park ``block``'s data in a slot for ``dest``; None on miss.

        A buffer already resident in a slot (an earlier send of the
        same pinned ndarray) is handed off with zero copies — only its
        release flag for ``dest`` is written.
        """
        data = block.data
        ent = self._residency.get(id(data))
        if ent is not None:
            slot = ent.slot
            buf = slot.slab.seg.buf
            if buf[slot.flags_off + dest] == 0:
                buf[slot.flags_off + dest] = 1
                slot.pending.add(dest)
                self.stats.handoffs += 1
                self.stats.handoff_bytes += data.nbytes
                return self._ref(slot, block, dest)
            # dest still holds the previous delivery of this very slot;
            # fall through to a second slot so the one-byte release
            # protocol stays exact (one delivery per flag)
        slot = self.lease(data.nbytes)
        if slot is None:
            self.stats.misses += 1
            return None
        seg = slot.slab.seg
        view = np.ndarray(
            data.shape, dtype=data.dtype, buffer=seg.buf, offset=slot.data_off
        )
        np.copyto(view, data)
        del view
        seg.buf[slot.flags_off + dest] = 1
        slot.pending.add(dest)
        self.stats.hits += 1
        self.stats.bytes_placed += data.nbytes
        self._bind(block, slot)
        return self._ref(slot, block, dest)

    def _ref(self, slot: _Slot, block: Block, dest: int) -> ArenaRef:
        data = block.data
        return ArenaRef(
            name=slot.slab.name,
            data_off=slot.data_off,
            data_shape=tuple(data.shape),
            dtype_str=str(data.dtype),
            block_shape=tuple(block.shape),
            release_off=slot.flags_off + dest,
            payload_nbytes=data.nbytes,
        )

    # -- residency (sender-side zero-copy resends) -------------------------
    def _bind(self, block: Block, slot: _Slot) -> None:
        """Remember that ``slot`` holds a copy of ``block.data``.

        The content is pinned by a phantom count in the block's COW
        cell: every holder's ``ensure_writable`` then copies instead of
        writing in place, so the slot copy stays bitwise equal to the
        buffer for as long as the buffer lives.  (The cell is shared
        with every COW twin, so the pin covers the owner a snapshot
        twin was taken from, too.)
        """
        data = block.data
        key = id(data)
        if key in self._residency:
            # a dest-collision re-copy of an already-bound buffer: the
            # registry keeps pointing at the first slot; this second
            # slot is reclaimed normally once its receiver releases it
            return
        cell = block._shared
        if cell is None:
            cell = block._shared = [1]
        cell[0] += 1  # the phantom held by this residency
        fin = weakref.finalize(data, self._residency_dropped, key)
        slot.res_key = key
        self._residency[key] = _Residency(key, slot, cell, fin)

    def _residency_dropped(self, key: int) -> None:
        # the pinned ndarray died: no holder can resend it, the slot
        # just waits for its receivers' flags like any other lease
        ent = self._residency.pop(key, None)
        if ent is not None:
            ent.slot.res_key = None

    def _evict_residency(self, slot: _Slot) -> None:
        ent = self._residency.pop(slot.res_key, None)
        slot.res_key = None
        if ent is None:
            return
        ent.fin.detach()
        # un-pin: the buffer may be written in place again (heap memory,
        # never the slot), and the slot can be reused immediately
        ent.cell[0] -= 1
        self.stats.residencies_evicted += 1

    # -- observability / teardown -----------------------------------------
    def outstanding(self) -> int:
        """Slots whose receivers have not yet released them."""
        return sum(
            1
            for busy in self._busy.values()
            for slot in busy
            if slot.pending and not self._flags_clear(slot)
        )

    def destroy(self) -> None:
        """Unlink every slab (tests and benchmarks; children never do
        this — the parent's sweep owns slab teardown in a real run)."""
        for ent in list(self._residency.values()):
            ent.fin.detach()
        self._residency.clear()
        self._free.clear()
        self._busy.clear()
        slabs, self._slabs = self._slabs, []
        self._seg_bytes = 0
        for slab in slabs:
            with contextlib.suppress(BufferError):
                slab.seg.close()
            with _untracked_shm(), contextlib.suppress(FileNotFoundError):
                slab.seg.unlink()


class _Lease:
    __slots__ = ("seg", "release_off", "count")

    def __init__(self, seg, release_off):
        self.seg = seg
        self.release_off = release_off
        self.count = 0


class ArenaReceiver:
    """Receiver side: attach-cached slabs, mapped views, flag releases."""

    def __init__(self, stats: Optional[ArenaStats] = None) -> None:
        self.stats = stats if stats is not None else ArenaStats()
        self._segs: dict[str, shared_memory.SharedMemory] = {}
        self._live: dict[tuple[str, int], _Lease] = {}
        LIVE_ARENAS.add(self)

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segs.get(name)
        if seg is None:
            with _untracked_shm():
                seg = shared_memory.SharedMemory(name=name)
            self._segs[name] = seg
        return seg

    def unpack(self, ref: ArenaRef) -> Block:
        """Map a Block view over the slot — the zero-copy receive.

        The returned block is read-only with a permanent phantom COW
        holder: an in-place write triggers ``ensure_writable``'s
        copy-out (the only copy of the transfer), and the block pool
        can never recycle the borrowed slot memory.  The slot's release
        flag is cleared by a finalizer when the mapped view — and every
        view derived from it — is garbage.
        """
        seg = self._attach(ref.name)
        view = np.ndarray(
            ref.data_shape,
            dtype=np.dtype(ref.dtype_str),
            buffer=seg.buf,
            offset=ref.data_off,
        )
        view.flags.writeable = False
        key = (ref.name, ref.release_off)
        lease = self._live.get(key)
        if lease is None:
            lease = self._live[key] = _Lease(seg, ref.release_off)
        lease.count += 1
        block = Block.mapped(ref.block_shape, view)
        weakref.finalize(view, self._release, key)
        self.stats.recv_mapped += 1
        self.stats.bytes_zero_copy += view.nbytes
        return block

    def _release(self, key: tuple[str, int]) -> None:
        lease = self._live.get(key)
        if lease is None:  # pragma: no cover - double-release guard
            return
        lease.count -= 1
        if lease.count > 0:
            return
        del self._live[key]
        try:
            lease.seg.buf[lease.release_off] = 0
        except (TypeError, ValueError, IndexError):  # pragma: no cover
            pass  # the segment is already torn down (test-only path)
        self.stats.recv_released += 1

    # -- observability / teardown -----------------------------------------
    def live_leases(self) -> int:
        return sum(lease.count for lease in self._live.values())

    def outstanding(self) -> int:
        return self.live_leases()

    def account_exit(self) -> None:
        """Record the rank's lease balance right before results ship.

        Leases still live here back blocks the rank is about to pickle
        into its result (or parked mailbox deliveries) — held, not
        leaked.  ``refs_leaked`` counts bookkeeping violations only:
        every mapped lease must be either released or still live.
        """
        st = self.stats
        st.recv_live_at_exit = self.live_leases()
        st.refs_leaked = st.recv_mapped - st.recv_released - st.recv_live_at_exit

    def close(self) -> None:
        """Drop attach caches (tests; a child just exits in a real run)."""
        segs, self._segs = self._segs, {}
        for seg in segs.values():
            with contextlib.suppress(BufferError):
                seg.close()
