"""Unit tests for segment arithmetic and the resolved index table."""

import pytest

from repro.sial.compiler import compile_source
from repro.sip.blocks import (
    Block,
    BlockId,
    ResolvedIndexTable,
    block_nbytes,
    block_shape,
)


def make_table(decls, symbolics=None, seg=4, sub=2, segment_sizes=None):
    prog = compile_source(f"sial t\n{decls}\nendsial t\n", optimize=0)
    return prog, ResolvedIndexTable(
        prog,
        symbolics or {},
        segment_size=seg,
        segment_sizes=segment_sizes,
        subsegments_per_segment=sub,
    )


def test_even_partition():
    prog, table = make_table("symbolic nb\naoindex M = 1, nb", {"nb": 12}, seg=4)
    m = table[prog.index_id("M")]
    assert m.n_segments == 3
    assert [s.length for s in m.segments] == [4, 4, 4]
    assert m.segment(2).start == 4
    assert list(m.values()) == [1, 2, 3]


def test_ragged_last_segment():
    prog, table = make_table("symbolic nb\naoindex M = 1, nb", {"nb": 10}, seg=4)
    m = table[prog.index_id("M")]
    assert [s.length for s in m.segments] == [4, 4, 2]


def test_simple_index_iterates_values():
    prog, table = make_table("index it = 3, 7")
    it = table[prog.index_id("it")]
    assert it.is_simple
    assert list(it.values()) == [3, 4, 5, 6, 7]
    assert it.n_segments == 0


def test_per_kind_segment_sizes():
    decls = "symbolic nb\naoindex M = 1, nb\nmoindex I = 1, nb"
    prog, table = make_table(decls, {"nb": 12}, seg=4, segment_sizes={"mo": 6})
    assert table[prog.index_id("M")].n_segments == 3
    assert table[prog.index_id("I")].n_segments == 2


def test_subindex_partition():
    decls = "symbolic nb\naoindex M = 1, nb\nsubindex MM of M"
    prog, table = make_table(decls, {"nb": 8}, seg=4, sub=2)
    mm = table[prog.index_id("MM")]
    assert mm.is_subindex
    assert mm.per_segment == 2
    assert mm.n_segments == 4  # 2 segments x 2 subsegments
    assert [s.length for s in mm.segments] == [2, 2, 2, 2]
    assert list(mm.subvalues_of(1)) == [1, 2]
    assert list(mm.subvalues_of(2)) == [3, 4]
    assert mm.super_segment_of(3) == 2


def test_subindex_ragged():
    decls = "symbolic nb\naoindex M = 1, nb\nsubindex MM of M"
    prog, table = make_table(decls, {"nb": 6}, seg=4, sub=2)
    mm = table[prog.index_id("MM")]
    # segments of M: [0:4), [4:6); subsegments: [0:2),[2:4),[4:6),[6:6)
    assert [s.length for s in mm.segments] == [2, 2, 2, 0]


def test_missing_symbolic_value_raises():
    with pytest.raises(ValueError, match="missing values"):
        make_table("symbolic nb\naoindex M = 1, nb")


def test_empty_index_range_rejected():
    with pytest.raises(ValueError, match="empty range"):
        make_table("symbolic nb\naoindex M = 5, nb", {"nb": 2})


def test_segment_number_out_of_range():
    prog, table = make_table("symbolic nb\naoindex M = 1, nb", {"nb": 8})
    m = table[prog.index_id("M")]
    with pytest.raises(IndexError):
        m.segment(3)
    with pytest.raises(IndexError):
        m.segment(0)


def test_array_shape_and_block_space():
    decls = "symbolic nb\naoindex M = 1, nb\naoindex N = 1, nb\ntemp A(M, N)"
    prog, table = make_table(decls, {"nb": 10}, seg=4)
    desc = prog.array_table[prog.array_id("A")]
    assert table.array_shape(desc) == (10, 10)
    assert [list(r) for r in table.array_block_space(desc)] == [
        [1, 2, 3],
        [1, 2, 3],
    ]


def test_block_shape_ragged_corner():
    decls = "symbolic nb\naoindex M = 1, nb\naoindex N = 1, nb\ntemp A(M, N)"
    prog, table = make_table(decls, {"nb": 10}, seg=4)
    desc = prog.array_table[prog.array_id("A")]
    assert block_shape(table, desc, (1, 1)) == (4, 4)
    assert block_shape(table, desc, (3, 3)) == (2, 2)
    assert block_shape(table, desc, (1, 3)) == (4, 2)


def test_block_nbytes_doubles():
    assert block_nbytes((4, 4)) == 128
    assert block_nbytes(()) == 8


def test_block_id_hashable_and_distinct():
    a = BlockId(0, (1, 2))
    b = BlockId(0, (1, 2))
    c = BlockId(1, (1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_block_copy_independent():
    import numpy as np

    block = Block((2, 2), np.ones((2, 2)))
    clone = block.copy()
    clone.data[0, 0] = 5.0
    assert block.data[0, 0] == 1.0
    model = Block((2, 2), None)
    assert model.copy().data is None
