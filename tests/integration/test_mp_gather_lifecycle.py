"""Life and death of the mp backend's gather segments.

Every worker child parks its result arrays in one shared-memory segment
(``rmp<run>r<rank>g``) and the parent maps it (:mod:`repro.sip.gather`).
That is one more thing a real run can leave behind, so every way the
hand-over can fail is driven here: the child is killed after it created
its segment, the child's pack step raises, the parent's map step raises
with another rank's segment already mapped.  Each must end in exactly
one ``SIPError`` naming role and rank, nothing under ``/dev/shm``, no
live child and a caller ``external_store`` that was not half-merged.

The children are forked, so a patch made in the test is what the child
runs; what a child saw is read back from marker files.
"""

import gc
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.programs import library, run_checkpoint_demo, run_paper_contraction
from repro.sip import SIPConfig, SIPError, gather
from repro.sip.runner import run_source

pytestmark = pytest.mark.mp

NOOP_SIAL = """
sial noop
scalar x
x = 1.0
endsial noop
"""


def make_config(workers=2, **kw) -> SIPConfig:
    return SIPConfig(
        workers=workers, io_servers=1, segment_size=2, execution="mp", **kw
    )


def run_segments() -> list[str]:
    """Segments of runs this process started (rmp<pid hex><random>...)."""
    prefix = f"rmp{os.getpid():x}"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


def footprint() -> tuple[int, int]:
    """(mapped gather segments, open descriptors) of this process."""
    gc.collect()
    with open("/proc/self/maps") as f:
        mapped = sum("rmp" in line for line in f)
    return mapped, len(os.listdir("/proc/self/fd"))


def checkpointing_run(store: dict, config: SIPConfig):
    """A run whose workers all write the external store and own blocks."""
    config.external_store = store
    return run_source(
        library.CHECKPOINT_DEMO, config, symbolics={"nb": 4, "restart": 0}
    )


def failed_run(config: SIPConfig) -> str:
    """The one SIPError's text, after checking nothing else is left."""
    store = {"sentinel": 1}
    before = footprint()
    with pytest.raises(SIPError) as err:
        checkpointing_run(store, config)
    message = str(err.value)
    del err  # its traceback holds the supervisor's pipes and mappings
    assert run_segments() == []
    assert multiprocessing.active_children() == []
    assert store == {"sentinel": 1}  # never half-merged
    assert footprint() == before
    return message


# -- failure paths ----------------------------------------------------------
@pytest.mark.parametrize("delay", [0.0, 0.5])
def test_worker_killed_after_creating_its_segment(monkeypatch, tmp_path, delay):
    """With the delay every other rank has reported and exited by the
    time the worker dies, so the parent learns of it from a closed pipe
    and not from a peer's error."""
    config = make_config()
    victim = config.worker_rank(1)
    real_pack = gather.pack

    def pack_then_die(tree, name):
        packed = real_pack(tree, name)
        if name.endswith(f"r{victim}g"):
            (tmp_path / "created").write_text(
                f"{packed[2]} {os.path.exists('/dev/shm/' + name)}"
            )
            time.sleep(delay)
            os.kill(os.getpid(), signal.SIGKILL)
        return packed

    monkeypatch.setattr(gather, "pack", pack_then_die)
    message = failed_run(config)
    size, existed = (tmp_path / "created").read_text().split()
    assert int(size) > 0 and existed == "True"  # it died holding a real segment
    assert f"worker 1 (rank {victim}) died with exit code -9" in message


def test_pack_step_raising_in_a_child(monkeypatch):
    config = make_config()
    victim = config.worker_rank(0)
    real_pack = gather.pack

    def pack_or_raise(tree, name):
        if name.endswith(f"r{victim}g"):
            raise RuntimeError("pack step deliberately exploding")
        return real_pack(tree, name)

    monkeypatch.setattr(gather, "pack", pack_or_raise)
    message = failed_run(config)
    assert f"mp backend: worker 0 (rank {victim}) failed" in message
    assert "pack step deliberately exploding" in message


def test_map_step_raising_after_another_rank_is_mapped(monkeypatch):
    config = make_config()
    real_unpack = gather.unpack
    mapped = []

    def unpack_once(manifest, name, size):
        if size and mapped:
            raise OSError("map step deliberately exploding")
        out = real_unpack(manifest, name, size)
        if size:
            mapped.append(name)
        return out

    monkeypatch.setattr(gather, "unpack", unpack_once)
    message = failed_run(config)
    assert len(mapped) == 1  # one rank's segment was live when the next failed
    assert "cannot map the results worker" in message and "(rank " in message
    assert "OSError: map step deliberately exploding" in message


# -- the success path -------------------------------------------------------
def test_gather_segments_are_neither_slabs_nor_leaks():
    before = footprint()
    out = run_paper_contraction(n_basis=4, n_occ=2, config=make_config())
    stats = out.result.stats
    assert out.error < 1e-10
    assert stats["mp_shm_leaked"] == 0
    assert stats["mp_arena_slabs_swept"] == stats["arena_slabs"]
    assert stats["mp_gather_bytes"] >= out.result.array("R").nbytes
    assert stats["mp_gather_s"] > 0.0 and stats["mp_scatter_s"] > 0.0
    assert f"mp_gather_bytes={stats['mp_gather_bytes']}" in out.result.profile.report()
    # the parent unlinked every name before the sweep; the bytes live on
    # in the mappings the result's arrays own
    assert run_segments() == []
    assert footprint()[0] > before[0]
    blocks = next(r for r in out.result.reports if r.role == "worker").owned
    assert all(b.data.flags.writeable and b._shared is None for b in blocks.values())
    del out, blocks
    assert footprint() == before


def test_a_run_with_no_array_bytes_creates_no_segment(monkeypatch, tmp_path):
    """The no-op program sipbench times as ``sip.mprunner.startup_s``."""
    real_pack = gather.pack

    def recording_pack(tree, name):
        packed = real_pack(tree, name)
        (tmp_path / name).write_text(
            f"{packed[2]} {os.path.exists('/dev/shm/' + name)}"
        )
        return packed

    monkeypatch.setattr(gather, "pack", recording_pack)
    before = footprint()
    result = run_source(NOOP_SIAL, make_config(), {})
    seen = [p.read_text() for p in tmp_path.iterdir()]
    assert len(seen) == result.stats["mp_processes"] == 4
    assert set(seen) == {"0 False"}
    assert result.stats["mp_gather_bytes"] == 0
    assert result.stats["mp_shm_segments"] == result.stats["arena_slabs"] == 0
    assert 0 < result.stats["mp_result_pickle_bytes"] < 64 * 1024
    assert footprint() == before


def test_thirty_runs_leave_maps_and_descriptors_flat():
    before = footprint()
    for _ in range(30):
        out = run_paper_contraction(n_basis=4, n_occ=2, config=make_config())
        assert out.error < 1e-10
    assert footprint()[0] > before[0]  # the last result still owns its mappings
    del out
    assert footprint() == before
    assert run_segments() == []


def test_results_and_a_chained_store_outlive_the_sweep():
    """The first run's checkpoint lands in the store as views over its
    gather mappings; a second run (forked from this process) restarts
    from them, and both stay readable after everything else is gone."""
    first, second = run_checkpoint_demo(n_basis=4, config_factory=make_config)
    store = first.result.external_store
    assert store is second.result.external_store
    expected = np.full((4, 4), 2.0)
    assert np.array_equal(first.value, expected)
    assert np.array_equal(second.value, expected)
    second_out = second.result.array("OUT")
    del first, second
    gc.collect()
    assert run_segments() == []
    assert sorted(store["d"]) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for block in store["d"].values():
        assert np.array_equal(block, np.ones((2, 2)))
        block += 1.0  # an ordinary writable array, as it was before
    assert np.array_equal(second_out, expected)
