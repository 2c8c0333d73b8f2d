"""Input scatter: one owner-filtered helper, same blocks as the three it replaced.

``runner.scatter_inputs`` populates whatever rank objects it is handed:
all of them on the simulator, the one an mp child holds.  The three
functions it folded together are kept below as the reference; for every
bundled program that takes inputs, at 1/2/4 workers, each rank must end
up with exactly the blocks -- ids, order, bytes -- the old code gave it.
The old worker and server variants sliced *every* block of an array and
threw away what the rank did not own; a counting ``ascontiguousarray``
shows the helper slices only owned coordinates.
"""

import numpy as np
import pytest

from repro.programs import drivers
from repro.sial.compiler import compile_source
from repro.simmpi import Simulator, World
from repro.sip import SIPConfig, SIPError
from repro.sip.blocks import DTYPE, BlockId
from repro.sip.ioserver import IOServerProcess
from repro.sip.runner import scatter_inputs
from repro.sip.runtime import SharedRuntime
from repro.sip.vm import WorkerProcess

WORKER_COUNTS = (1, 2, 4)


# -- the replaced functions, verbatim from the parent commit ----------------
def old_scatter_inputs(rt, workers, servers):
    for name, value in rt.config.inputs.items():
        array_id = rt.array_id_by_name(name)
        desc = rt.array_desc(array_id)
        if desc.kind == "static":
            for coords, block in rt.blocks_from_input(array_id, value).items():
                bid = BlockId(array_id, coords)
                for w in workers:
                    twin = block.share()
                    w.local_blocks[bid] = twin
                    w.memman.adopt(bid, twin, "static")
        elif desc.kind == "distributed":
            placement = rt.placements[array_id]
            for coords, block in rt.blocks_from_input(array_id, value).items():
                owner = placement.owner_index(coords)
                bid = BlockId(array_id, coords)
                workers[owner].owned[bid] = block
                workers[owner].memman.adopt(bid, block, "distributed")
        elif desc.kind == "served":
            placement = rt.served_placements[array_id]
            for coords, block in rt.blocks_from_input(array_id, value).items():
                sidx = placement.owner_index(coords)
                bid = BlockId(array_id, coords)
                servers[sidx].disk_data[bid] = (
                    block.data if block.data is not None else block.shape
                )


def old_scatter_worker_inputs(rt, worker):
    for name, value in rt.config.inputs.items():
        array_id = rt.array_id_by_name(name)
        desc = rt.array_desc(array_id)
        if desc.kind == "static":
            for coords, block in rt.blocks_from_input(array_id, value).items():
                bid = BlockId(array_id, coords)
                worker.local_blocks[bid] = block
                worker.memman.adopt(bid, block, "static")
        elif desc.kind == "distributed":
            placement = rt.placements[array_id]
            for coords, block in rt.blocks_from_input(array_id, value).items():
                if placement.owner_index(coords) != worker.worker_index:
                    continue
                bid = BlockId(array_id, coords)
                worker.owned[bid] = block
                worker.memman.adopt(bid, block, "distributed")


def old_scatter_server_inputs(rt, server):
    for name, value in rt.config.inputs.items():
        array_id = rt.array_id_by_name(name)
        if rt.array_desc(array_id).kind != "served":
            continue
        placement = rt.served_placements[array_id]
        for coords, block in rt.blocks_from_input(array_id, value).items():
            if placement.owner_index(coords) != server.server_index:
                continue
            bid = BlockId(array_id, coords)
            server.disk_data[bid] = block.data if block.data is not None else block.shape


# -- cases -------------------------------------------------------------------
class _Captured(Exception):
    pass


def bundled_case(run, monkeypatch, workers, **sizes):
    """(source, config, symbolics) exactly as a bundled driver builds them."""
    seen = {}

    def capture(source, config, symbolics=None):
        seen["case"] = (source, config, dict(symbolics or {}))
        raise _Captured

    monkeypatch.setattr(drivers, "run_source", capture)
    with pytest.raises(_Captured):
        run(config=SIPConfig(workers=workers, io_servers=1, segment_size=2), **sizes)
    return seen["case"]


BUNDLED = {
    "paper_contraction": (drivers.run_paper_contraction, dict(n_basis=4, n_occ=2)),
    "mp2_energy": (drivers.run_mp2, dict(n_basis=6, n_occ=2)),
    "uhf_mp2_energy": (drivers.run_uhf_mp2, dict(n_basis=5, n_alpha=2, n_beta=1)),
    "ao2mo_transform": (drivers.run_ao2mo, dict(n_basis=4)),
    "lccd_iteration": (drivers.run_lccd, dict(n_basis=4, n_occ=1, iterations=1)),
    "lccd_anderson": (drivers.run_lccd_anderson, dict(n_basis=4, n_occ=1, iterations=1)),
    "ccsd": (drivers.run_ccsd, dict(n_basis=4, n_occ=1, iterations=1)),
    "ccsd_t": (drivers.run_ccsd_t, dict(n_basis=3, n_occ=1, sweeps=1)),
    "fock_build": (drivers.run_fock_build, dict(n_basis=5, n_occ=2)),
}

#: one input of each kind an input may have, ragged last segments
ALL_KINDS_SIAL = """
sial all_kinds
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
static S(M, N)
distributed D(M, N)
served V(M, N)
endsial all_kinds
"""


def all_kinds_case(workers, **config):
    rng = np.random.default_rng(7)
    inputs = {
        "S": rng.standard_normal((5, 5)),
        "D": rng.standard_normal((5, 5)).astype(np.float32),  # converted on the way in
        "V": None,  # "no data yet": zero blocks
    }
    cfg = SIPConfig(
        workers=workers, io_servers=2, segment_size=2, inputs=inputs, **config
    )
    return ALL_KINDS_SIAL, cfg, {"nb": 5}


def ranks(case):
    """A fresh runtime and rank objects, wired as the simulator runner does."""
    source, config, symbolics = case
    sim = Simulator()
    world = World(sim, config.world_size, config.machine.network(), None)
    rt = SharedRuntime(compile_source(source, optimize=0), config, symbolics, sim, world)
    workers = [
        WorkerProcess(rt, i, world.comm(config.worker_rank(i)))
        for i in range(config.workers)
    ]
    servers = [
        IOServerProcess(rt, i, world.comm(config.server_rank(i)))
        for i in range(config.io_servers)
    ]
    return rt, workers, servers


def as_bytes(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    data = getattr(value, "data", None)
    if data is not None:
        return (value.shape, data.dtype.str, data.shape, data.tobytes())
    return getattr(value, "shape", value)  # model mode: shapes only


def holdings(workers, servers):
    """What each rank holds: ordered (BlockId, bytes) pairs per container."""
    out = {}
    for w in workers:
        out["worker", w.worker_index] = (
            [(bid, as_bytes(b)) for bid, b in w.owned.items()],
            [(bid, as_bytes(b)) for bid, b in w.local_blocks.items()],
            list(w.memman._spillable),  # registration order drives spill victims
            w.memman.adopted_bytes,
        )
    for s in servers:
        out["server", s.server_index] = [
            (bid, as_bytes(v)) for bid, v in s.disk_data.items()
        ]
    return out


def assert_helper_matches_the_old_functions(case):
    rt, workers, servers = ranks(case)
    old_scatter_inputs(rt, workers, servers)
    expected = holdings(workers, servers)

    # the simulator's call: every rank at once
    rt, workers, servers = ranks(case)
    scatter_inputs(rt, workers, servers)
    assert holdings(workers, servers) == expected

    # an mp child's call: the one rank it holds (the old per-rank
    # functions gave that rank the same share of the same inputs)
    rt, workers, servers = ranks(case)
    for w in workers:
        scatter_inputs(rt, workers=[w])
    for s in servers:
        scatter_inputs(rt, servers=[s])
    assert holdings(workers, servers) == expected

    rt, workers, servers = ranks(case)
    for w in workers:
        old_scatter_worker_inputs(rt, w)
    for s in servers:
        old_scatter_server_inputs(rt, s)
    assert holdings(workers, servers) == expected
    return expected


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_bundled_program_scatters_as_before(name, workers, monkeypatch):
    run, sizes = BUNDLED[name]
    case = bundled_case(run, monkeypatch, workers, **sizes)
    assert case[1].inputs  # every bundled driver feeds its program something
    expected = assert_helper_matches_the_old_functions(case)
    assert any(expected["worker", 0][:2]) or expected["server", 0]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("config", [{}, {"backend": "model"}], ids=["cow", "model"])
def test_every_input_kind_scatters_as_before(workers, config):
    expected = assert_helper_matches_the_old_functions(all_kinds_case(workers, **config))
    served = [pair for k, v in expected.items() if k[0] == "server" for pair in v]
    assert len(served) == 9  # 3 x 3 blocks of V over the two servers


def test_static_inputs_are_shared_copy_on_write():
    rt, workers, _ = ranks(all_kinds_case(2))
    scatter_inputs(rt, workers)
    bid = next(iter(workers[0].local_blocks))
    a, b = (w.local_blocks[bid] for w in workers)
    assert a is not b and a.data is b.data and a._shared is b._shared


def test_scattered_blocks_hold_doubles_sized_by_the_runtime():
    """Inputs of any element type (``D`` arrives as float32) are stored
    as ``blocks.DTYPE`` blocks, and ``SharedRuntime.block_nbytes`` sizes
    every block by its id exactly as large as the data it holds."""
    rt, workers, servers = ranks(all_kinds_case(2))
    scatter_inputs(rt, workers, servers)
    held = [
        (bid, block)
        for w in workers
        for bid, block in (*w.owned.items(), *w.local_blocks.items())
    ]
    held += [(bid, value) for s in servers for bid, value in s.disk_data.items()]
    assert {rt.array_desc(bid.array_id).name for bid, _ in held} == {"S", "D", "V"}
    for bid, block in held:
        data = block if isinstance(block, np.ndarray) else block.data
        assert data.dtype == DTYPE
        assert rt.block_nbytes(bid) == data.nbytes


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_rank_slices_only_the_coordinates_it_owns(workers, monkeypatch):
    case = bundled_case(
        drivers.run_paper_contraction, monkeypatch, workers, n_basis=4, n_occ=2
    )
    sliced = []
    real = np.ascontiguousarray

    def counting(a, *args, **kw):
        sliced.append(a.shape)
        return real(a, *args, **kw)

    rt, ranks_w, ranks_s = ranks(case)
    (array_id,) = rt.placements.keys() & {rt.array_id_by_name("T")}
    placement = rt.placements[array_id]
    monkeypatch.setattr(np, "ascontiguousarray", counting)
    for w in ranks_w:
        del sliced[:]
        scatter_inputs(rt, workers=[w])
        assert len(sliced) == len(w.owned) == len(placement.owned_by(w.worker_index))
    for s in ranks_s:
        del sliced[:]
        scatter_inputs(rt, servers=[s])  # T is not served: nothing to slice
        assert sliced == []
    assert sum(len(w.owned) for w in ranks_w) == placement.n_blocks


def test_inputs_for_undeclared_or_transient_arrays_are_refused():
    source, cfg, symbolics = all_kinds_case(1)
    cfg.inputs = {"nope": np.zeros((5, 5))}
    rt, workers, servers = ranks((source, cfg, symbolics))
    with pytest.raises(SIPError, match="undeclared array 'nope'"):
        scatter_inputs(rt, workers, servers)

    source = ALL_KINDS_SIAL.replace("static S(M, N)", "temp S(M, N)")
    _, cfg, symbolics = all_kinds_case(1)
    rt, workers, servers = ranks((source, cfg, symbolics))
    with pytest.raises(SIPError, match="cannot provide input for temp array 'S'"):
        scatter_inputs(rt, workers, servers)
