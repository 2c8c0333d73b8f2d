"""Golden bytecode: every bundled program compiles to the same table.

A refactor of the compiler or the ``-O`` passes that means to change
nothing must leave each bundled program's instruction table as it was,
at every level.  ``tests/data/bytecode_golden.json`` pins one sha256
per (program, level) of a canonical text form: the disassembly plus
each instruction's source location.  Text, not a pickle, so the digest
depends on neither ``PYTHONHASHSEED`` nor the Python version.

A change that *means* to move the bytecode regenerates the file and
says so::

    PYTHONPATH=src python tests/sial/test_bytecode_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.programs.library import ALL_PROGRAMS
from repro.sial import compile_source, disassemble

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "bytecode_golden.json"

LEVELS = (0, 1, 2)


def canonical_text(prog) -> str:
    """The disassembly, then one ``pc line:column`` row per instruction."""
    rows = [disassemble(prog)]
    for pc, instr in enumerate(prog.instructions):
        loc = instr.location
        rows.append(f"{pc} {loc.line}:{loc.column}" if loc else f"{pc} -")
    return "\n".join(rows)


def digest(name: str, level: int) -> str:
    prog = compile_source(ALL_PROGRAMS[name], optimize=level)
    return hashlib.sha256(canonical_text(prog).encode()).hexdigest()


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_bytecode_matches_golden(name, level):
    golden = json.loads(GOLDEN.read_text())
    assert digest(name, level) == golden[f"{name}/O{level}"], (
        f"{name} at -O{level} compiles to a different instruction table"
    )


def test_golden_covers_every_program():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {
        f"{name}/O{level}" for name in ALL_PROGRAMS for level in LEVELS
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {
        f"{name}/O{level}": digest(name, level)
        for name in sorted(ALL_PROGRAMS)
        for level in LEVELS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
