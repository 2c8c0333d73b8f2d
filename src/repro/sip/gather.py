"""Shared-memory result gather for the multiprocess backend.

A finished rank holds its share of every result array.  Pickling those
blocks into the result pipe pushed every array byte through a 64 KB
pipe buffer and a second copy in the parent, one child after the other.
Instead the child copies each ndarray once into a single run-scoped
shared-memory segment (:func:`pack`) and ships only a manifest; the
parent maps the segment (:func:`unpack`), unlinks its name at once, and
rebuilds the same nested dicts as numpy views over the mapping.

The mapping is private copy-on-write (``mmap.ACCESS_COPY``): gathered
arrays are ordinary writable ndarrays, a write lands on the writer's
own page, and a page nobody writes is never copied at all.  The views
own the mapping (each one's ``base`` is the mmap object), so it unmaps
when the last of them dies; ``SharedMemory`` cannot do that -- its
``close`` raises ``BufferError`` while views are exported.
"""

from __future__ import annotations

import contextlib
import mmap
import os
from multiprocessing import shared_memory
from typing import Any, NamedTuple, Optional

import numpy as np

from .arena import _ALIGN, _untracked_shm
from .blocks import Block

__all__ = ["pack", "unpack"]


class _Ref(NamedTuple):
    """Manifest stub for one ndarray parked in the segment."""

    block_shape: Optional[tuple]  # the Block's shape; None for a bare ndarray
    data_shape: tuple
    dtype: str
    offset: int


def pack(tree: Any, name: str) -> tuple[Any, str, int]:
    """Park every ndarray under ``tree`` in one segment called ``name``.

    ``tree`` is nested dicts whose leaves are Blocks, ndarrays or small
    picklable values.  Returns the manifest ``(tree with a _Ref in
    place of each parked array, name, segment bytes)``.  Model-mode
    blocks and empty arrays have no bytes to park and stay in the tree;
    when nothing is parked no segment is created and the size is 0.
    """
    parked: list[tuple[int, np.ndarray]] = []
    size = 0

    def strip(leaf: Any) -> Any:
        nonlocal size
        if isinstance(leaf, dict):
            return {key: strip(value) for key, value in leaf.items()}
        is_block = isinstance(leaf, Block)
        data = leaf.data if is_block else leaf
        if not isinstance(data, np.ndarray) or data.nbytes == 0:
            return leaf
        ref = _Ref(leaf.shape if is_block else None, data.shape, data.dtype.str, size)
        parked.append((size, data))
        size += -(-data.nbytes // _ALIGN) * _ALIGN
        return ref

    manifest = strip(tree)
    if parked:
        with _untracked_shm():
            seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        for offset, data in parked:
            np.copyto(
                np.ndarray(data.shape, data.dtype, buffer=seg.buf, offset=offset), data
            )
        seg.close()
    return manifest, name, size


def unpack(manifest: Any, name: str, size: int) -> Any:
    """Rebuild :func:`pack`'s tree as views over a private mapping.

    The segment's name is unlinked here, mapped or not: from now on the
    bytes live exactly as long as the returned arrays do.
    """
    buf = None
    if size:
        path = os.path.join("/dev/shm", name)
        try:
            with open(path, "rb") as f:
                buf = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    def fill(leaf: Any) -> Any:
        if isinstance(leaf, dict):
            return {key: fill(value) for key, value in leaf.items()}
        if not isinstance(leaf, _Ref):
            return leaf
        data = np.ndarray(
            leaf.data_shape, np.dtype(leaf.dtype), buffer=buf, offset=leaf.offset
        )
        return data if leaf.block_shape is None else Block(leaf.block_shape, data)

    return fill(manifest)
