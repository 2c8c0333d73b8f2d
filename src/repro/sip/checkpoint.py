"""Helpers for the serialization / checkpoint external store.

The SIAL statements ``blocks_to_list`` / ``list_to_blocks`` serialize
distributed arrays to and from an *external store* (a plain dict shared
between runs), and ``checkpoint`` snapshots every distributed array
plus the scalar state.  This is the facility the paper describes for
passing data between different SIAL programs and for restarting
interrupted computations (Section IV-C).

These helpers convert between the store's block format and full
ndarrays so test code and applications can seed or inspect stores.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..sial.bytecode import CompiledProgram
from .blocks import DTYPE, ResolvedIndexTable
from .config import SIPError

__all__ = [
    "store_to_array",
    "array_to_store",
    "checkpoint_scalars",
    "has_checkpoint",
    "checkpoint_seq",
    "save_store",
    "load_store",
]


def has_checkpoint(store: dict[str, Any]) -> bool:
    """Whether a ``checkpoint`` statement ever completed into this store."""
    return "__checkpoint_seq__" in store


def checkpoint_seq(store: dict[str, Any]) -> int:
    """Sequence number of the last completed checkpoint (0 = none)."""
    return int(store.get("__checkpoint_seq__", 0))


def store_to_array(
    store: dict[str, Any],
    program: CompiledProgram,
    table: ResolvedIndexTable,
    name: str,
) -> np.ndarray:
    """Assemble the serialized blocks of one array into a full ndarray."""
    entry = store.get(name.lower())
    if entry is None:
        raise SIPError(f"array {name!r} is not in the external store")
    array_id = program.array_id(name)
    desc = program.array_table[array_id]
    full = np.zeros(table.array_shape(desc), dtype=DTYPE)
    for coords, data in entry.items():
        if not isinstance(data, np.ndarray):
            raise SIPError(
                f"store for {name!r} holds shapes only (model-mode run)"
            )
        slices = tuple(
            slice(table[i].segment(c).start, table[i].segment(c).stop)
            for i, c in zip(desc.index_ids, coords)
        )
        full[slices] = data
    return full


def array_to_store(
    store: dict[str, Any],
    program: CompiledProgram,
    table: ResolvedIndexTable,
    name: str,
    value: np.ndarray,
) -> None:
    """Serialize a full ndarray into the store's block format."""
    from itertools import product

    array_id = program.array_id(name)
    desc = program.array_table[array_id]
    value = np.asarray(value, dtype=DTYPE)
    expected = table.array_shape(desc)
    if value.shape != expected:
        raise SIPError(
            f"array {name!r} store input has shape {value.shape}, "
            f"declared {expected}"
        )
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    spaces = [range(1, table[i].n_segments + 1) for i in desc.index_ids]
    for coords in product(*spaces):
        slices = tuple(
            slice(table[i].segment(c).start, table[i].segment(c).stop)
            for i, c in zip(desc.index_ids, coords)
        )
        blocks[coords] = np.ascontiguousarray(value[slices])
    store[name.lower()] = blocks


def checkpoint_scalars(store: dict[str, Any]) -> list[float]:
    """The scalar snapshot saved by the last ``checkpoint`` statement."""
    scalars = store.get("__scalars__")
    if scalars is None:
        raise SIPError("no checkpoint scalars in the external store")
    return list(scalars)


# -- on-disk persistence -------------------------------------------------
#
# The external store is an in-memory dict for single-process use; a real
# restart (new process after a crash) needs it on disk.  The format is a
# single .npz: array blocks keyed "<array>/<c1,c2,...>", scalar and
# sequence metadata under "__"-prefixed keys.
def save_store(store: dict[str, Any], path: str) -> None:
    """Persist an external store (checkpoint) to an .npz file."""
    payload: dict[str, np.ndarray] = {}
    for name, entry in store.items():
        if name == "__scalars__":
            payload["__scalars__"] = np.asarray(entry, dtype=float)
        elif name == "__checkpoint_seq__":
            payload["__checkpoint_seq__"] = np.asarray([entry])
        elif isinstance(entry, dict):
            for coords, data in entry.items():
                if not isinstance(data, np.ndarray):
                    raise SIPError(
                        f"store for {name!r} holds shapes only (model-mode "
                        "run); nothing to persist"
                    )
                key = f"{name}/{','.join(str(c) for c in coords)}"
                payload[key] = data
        else:
            raise SIPError(f"unrecognized store entry {name!r}")
    np.savez_compressed(path, **payload)


def load_store(path: str) -> dict[str, Any]:
    """Load an external store previously written by :func:`save_store`."""
    store: dict[str, Any] = {}
    with np.load(path) as data:
        for key in data.files:
            if key == "__scalars__":
                store["__scalars__"] = list(data[key])
            elif key == "__checkpoint_seq__":
                store["__checkpoint_seq__"] = int(data[key][0])
            else:
                name, _, coord_text = key.partition("/")
                coords = tuple(int(c) for c in coord_text.split(","))
                store.setdefault(name, {})[coords] = data[key]
    return store
