"""Architecture lint: block movement goes through the transfer engine.

The refactor that extracted :mod:`repro.sip.blockio` concentrated every
block-transfer wire message and every pending-cache insertion in one
module.  These tests keep it that way: they AST-walk the source tree
and fail when a module outside the allowlists starts hand-rolling block
movement again (constructing GetBlock/PutBlock/... directly, inserting
pending cache entries, or importing the raw simulated wire layer).

Control-plane traffic (barriers, the master's dole-out protocol, acks)
deliberately stays outside the engine -- only *block* movement is
restricted.  Distributed and served blocks move by the same messages
and the same owner lookup; the served twins may not come back.

The same goes for the event loop: :meth:`Simulator.run_pending` is the
one owner of the pop / time-monotonicity / dispatch / error-surfacing
loop, so the shape of a heap entry is private to the simulator module.

And for the mp rank's intake: readiness is asked through the one
selector :class:`MPWorld` registers its connections with, never through
the stdlib helpers that build a throw-away selector per call.

And for what crosses between mp processes: shared-memory segments are
created and mapped only by the arena, the transport's one-shot overflow
and the result gather, and the result pipe carries pickled bytes whose
length the parent counts -- never a ``send()`` of whole result blocks.

And for memory pressure: victims are ordered by recency of use alone.

And for the configuration: one path, not two.  The ablation switches
and the fields nobody set are gone and may not come back, and every
definition in ``src/`` has a caller in the product, the benchmarks or
the examples -- or a written reason in an allowlist.

And for the bytecode: one opcode table.  What each opcode's argument
slots mean is declared in ``sial/bytecode.py``'s ``OPS``, and no other
module keeps a table or tuple of opcodes of its own.

And for measurement: one benchmark.  Host time is sipbench's, a gate
is a test; a ``benchmarks/bench_*.py`` script reproduces a paper figure
or an ablation and writes text tables, never a ``main`` or a JSON file.
"""

import ast
import fnmatch
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: the block-transfer wire messages; constructing one of these is
#: putting a block movement on the wire
BLOCK_MESSAGES = {
    "GetBlock",
    "PutBlock",
    "BlockReply",
}

#: the twin served-array path: a block moves by its array's route, not
#: by a message class or an owner lookup of its own
SERVED_TWINS = {"RequestBlock", "PrepareBlock", "server_rank_for"}

#: modules allowed to construct block-transfer messages: the engine
#: itself and the message definitions (dataclass machinery)
MESSAGE_ALLOWLIST = {
    "sip/blockio.py",
    "sip/messages.py",
}

#: modules allowed to create pending cache entries: the engine and the
#: cache that implements them
INSERT_PENDING_ALLOWLIST = {
    "sip/blockio.py",
    "sip/cache.py",
}

#: modules allowed to touch the raw simulated wire layer
#: (``repro.simmpi.comm``): the simulator package itself and the
#: multiprocess transport that mirrors its interface
COMM_ALLOWLIST_PREFIXES = ("simmpi/",)
COMM_ALLOWLIST = {
    "sip/mptransport.py",
}


def repro_modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(), filename=str(path)
        )


def called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_block_messages_are_only_constructed_by_the_engine():
    offenders = []
    for rel, tree in repro_modules():
        if rel in MESSAGE_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node) in BLOCK_MESSAGES:
                offenders.append(f"{rel}:{node.lineno} constructs {called_name(node)}")
    assert not offenders, (
        "block-transfer messages must be built by the BlockTransferEngine "
        "(repro/sip/blockio.py), not hand-rolled:\n  " + "\n  ".join(offenders)
    )


def test_served_blocks_move_by_the_one_transfer_path():
    offenders = []
    for rel, tree in repro_modules():
        for node in ast.walk(tree):
            names = {
                getattr(node, attr, None) for attr in ("id", "attr", "name", "arg")
            }
            for name in names & SERVED_TWINS:
                offenders.append(f"{rel}:{node.lineno} names {name}")
    assert not offenders, (
        "distributed and served blocks share GetBlock / PutBlock and "
        "SharedRuntime.owner_rank:\n  " + "\n  ".join(offenders)
    )


def test_pending_cache_entries_are_only_inserted_by_the_engine():
    offenders = []
    for rel, tree in repro_modules():
        if rel in INSERT_PENDING_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and called_name(node) == "insert_pending"
            ):
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, (
        "cache.insert_pending is the engine's request-table primitive; "
        "call BlockTransferEngine.hint/acquire/ensure_cached instead:\n  "
        + "\n  ".join(offenders)
    )


def test_raw_wire_layer_is_only_imported_by_transports():
    offenders = []
    for rel, tree in repro_modules():
        if rel in COMM_ALLOWLIST or rel.startswith(COMM_ALLOWLIST_PREFIXES):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("simmpi.comm") or (
                    module.endswith("simmpi")
                    and any(a.name == "SimComm" for a in node.names)
                ):
                    offenders.append(f"{rel}:{node.lineno} imports {module}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("simmpi.comm"):
                        offenders.append(
                            f"{rel}:{node.lineno} imports {alias.name}"
                        )
    assert not offenders, (
        "the raw wire layer (repro.simmpi.comm / SimComm) is a transport "
        "detail; code above the transports talks to CommEndpoint:\n  "
        + "\n  ".join(offenders)
    )


#: the one module that may see the event heap and its entries
EVENT_HEAP_OWNER = "simmpi/simulator.py"


def test_event_heap_is_private_to_the_simulator():
    offenders = []
    for rel, tree in repro_modules():
        if rel == EVENT_HEAP_OWNER:
            continue
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_queue":
                offenders.append(f"{rel}:{node.lineno} reaches into ._queue")
        if "Simulator" in names and "heapq" in names:
            offenders.append(f"{rel} drives a Simulator and imports heapq")
    assert not offenders, (
        "the event heap belongs to repro/simmpi/simulator.py; step the "
        "engine with Simulator.run_pending()/run() instead:\n  "
        + "\n  ".join(offenders)
    )


#: the mp transport asks "who is readable?" through one selector that
#: lives as long as the world
MP_TRANSPORT = "sip/mptransport.py"


def test_mp_transport_asks_readiness_only_through_its_selector():
    """``multiprocessing.connection.wait`` and ``Connection.poll`` each
    build, fill and close a throw-away selector per call (7.7 k per
    worker per CCSD run before PR 16)."""
    tree = dict(repro_modules())[MP_TRANSPORT]
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("multiprocessing.connection") or (
                module == "multiprocessing"
                and any(a.name == "connection" for a in node.names)
            ):
                offenders.append(f"line {node.lineno}: imports {module}.connection")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multiprocessing.connection"):
                    offenders.append(f"line {node.lineno}: imports {alias.name}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "poll"
            # MPWorld.poll() takes no argument and is only ever called
            # on the world; Connection.poll(timeout) is the banned one
            and (node.args or ast.unparse(node.func.value) not in ("world", "self.world"))
        ):
            offenders.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not offenders, (
        f"{MP_TRANSPORT} must ask readiness through MPWorld's persistent "
        "selector:\n  " + "\n  ".join(offenders)
    )


#: modules that may create or map a /dev/shm segment
SHM_ALLOWLIST = {
    "sip/arena.py",
    "sip/mptransport.py",
    "sip/gather.py",
}
MP_RUNNER = "sip/mprunner.py"


def test_shared_memory_is_only_touched_by_arena_transport_and_gather():
    offenders = []
    for rel, tree in repro_modules():
        if rel in SHM_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                called_name(node) == "SharedMemory"
                or ast.unparse(node.func) in ("mmap.mmap", "mmap")
            ):
                offenders.append(f"{rel}:{node.lineno} {ast.unparse(node.func)}(...)")
    assert not offenders, (
        "shared-memory segments are created and mapped by sip/arena.py, "
        "sip/mptransport.py and sip/gather.py only:\n  " + "\n  ".join(offenders)
    )


def test_mp_results_ship_as_counted_bytes_after_the_gather():
    """A rank's result leaves through ``_ship`` (``send_bytes`` of one
    pickle, whose length the parent reports), and only after
    ``gather.pack`` took the array-bearing fields out of it.  What keeps
    array bytes off the pipe is measured, not pattern-matched: the
    conformance suite bounds ``mp_result_pickle_bytes``."""
    tree = dict(repro_modules())[MP_RUNNER]
    sends = [
        ast.unparse(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("send", "send_bytes")
    ]
    assert sends == ["result_conn.send_bytes"], f"one way out of a child: {sends}"
    (child,) = (
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_child_main"
    )
    calls = [n for n in ast.walk(child) if isinstance(n, ast.Call)]
    packed = [n.lineno for n in calls if ast.unparse(n.func) == "gather.pack"]
    shipped_ok = [
        n.lineno
        for n in calls
        if ast.unparse(n.func) == "_ship" and ast.unparse(n.args[1]) == "'ok'"
    ]
    assert len(packed) == 1 and len(shipped_ok) == 1
    assert packed[0] < shipped_ok[0], "the ok result ships before it is gathered"


def test_victims_are_ordered_by_recency_and_nothing_else():
    """The pressure cascade has one order: the stamp of last use.  A
    per-kind spill priority, or a mutable "this insert may spill" flag
    on the manager, is the static preference that drained the block
    cache under pressure; neither may come back under its old name.
    Nor may a second accounting mode beside the one budget (no scratch
    is ``spill_capacity=0``, not a mode flag), or a second bound on a
    cache beside its bytes (no block count, on a worker or a server)."""
    removed = {
        "SPILL_ORDER", "_KIND_TO_SPILL_CLASS", "_victims", "cache_spill_ok", "unified",
        "capacity_blocks", "cache_blocks", "_make_room",
    }
    offenders = [
        f"{rel}:{node.lineno} {name}"
        for rel, tree in repro_modules()
        for node in ast.walk(tree)
        for name in [
            getattr(node, "id", None)
            or getattr(node, "attr", None)
            or getattr(node, "arg", None)
            or getattr(node, "name", None)
        ]
        if name in removed
    ]
    assert not offenders, "\n  ".join(offenders)


def test_sipconfig_does_not_grow():
    import dataclasses

    from repro.sip import SIPConfig

    assert len(dataclasses.fields(SIPConfig)) <= 22


#: SIPConfig fields that were ablation switches onto pre-optimisation
#: code, or that no caller ever set: each is now a constant beside the
#: module reading it, or gone with the twin path it selected (a worker's
#: cache and a server's are bounded by ``memory_per_worker``, not
#: ``cache_blocks`` or ``server_cache_blocks``; host time per kernel is
#: sipbench's trace, not ``kernel_wallclock``; the shm slab size is
#: ``arena.SLAB_BYTES``, not ``mp_arena_slab_bytes``; the inline/shm
#: payload threshold is ``mptransport.PAYLOAD_SHM_MIN``, not
#: ``mp_payload_shm_min``; a rank's slab footprint is capped by
#: ``arena.MAX_BYTES``, not ``mp_arena_max_bytes``; every block holds
#: ``blocks.DTYPE`` doubles, not a ``dtype``; one race checker
#: reads ``race_check``, not ``validate_barriers`` or ``sanitize``; the
#: resilient protocol follows ``faults``, an empty plan included, not
#: ``resilient``)
REMOVED_CONFIG_FIELDS = {
    "fastpath", "mp_arena", "mp_batch_max_msgs", "mp_batch_max_bytes",
    "affinity_owner_weight", "affinity_replica_weight",
    "affinity_replica_history", "blockio_reserve", "blockio_max_in_flight",
    "chunk_factor", "min_chunk", "retry_timeout", "retry_limit", "retry_backoff",
    "cache_blocks", "kernel_wallclock", "trace", "server_cache_blocks",
    "mp_arena_slab_bytes", "validate_barriers", "sanitize", "resilient",
    "mp_payload_shm_min", "mp_arena_max_bytes", "dtype",
}  # fmt: skip


def test_removed_config_axes_stay_removed():
    """No second path may grow back: not as a config field or a
    ``config.<name>`` read, not as the runtime's ``cow_enabled`` switch,
    a ``memo=`` / ``zero_copy=`` parameter, or a CLI flag turning the
    slab arena or frame batching off or sizing the arena."""
    import dataclasses

    from repro.sip import SIPConfig

    fields = {f.name for f in dataclasses.fields(SIPConfig)}
    offenders = [f"SIPConfig.{name}" for name in sorted(fields & REMOVED_CONFIG_FIELDS)]
    for rel, tree in repro_modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in REMOVED_CONFIG_FIELDS
                and ast.unparse(node.value).endswith("config")
            ):
                offenders.append(f"{rel}:{node.lineno} reads {ast.unparse(node)}")
            elif getattr(node, "attr", None) == "cow_enabled":
                offenders.append(f"{rel}:{node.lineno} cow_enabled")
            elif isinstance(node, ast.arg) and node.arg in ("memo", "zero_copy"):
                offenders.append(f"{rel}:{node.lineno} parameter {node.arg}")
            elif isinstance(node, ast.Constant) and node.value in (
                "--no-arena",
                "--no-batch",
                "--arena-mb",
            ):
                offenders.append(f"{rel}:{node.lineno} flag {node.value}")
    assert not offenders, "\n  ".join(offenders)


def test_block_element_type_is_named_once():
    """Every block holds ``blocks.DTYPE`` elements: no other runtime
    module names float64 itself, so no second element type can grow
    back in one corner of the runtime."""
    offenders = [
        f"{rel}:{node.lineno} {ast.unparse(node)}"
        for rel, tree in repro_modules()
        if rel.startswith("sip/") and rel != "sip/blocks.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "float64")
        or (isinstance(node, ast.Constant) and node.value == "float64")
    ]
    assert not offenders, "\n  ".join(offenders)


#: definitions nothing in src/, benchmarks/ or examples/ calls, each with
#: the reason it stays
UNCALLED_ALLOWLIST = {
    "_Checker.check_*": "analyzer visitor, dispatched by getattr",
    "_Compiler.emit_*": "compiler visitor, dispatched by getattr",
    "WorkerProcess.op_*": "interpreter handlers, bound from bytecode.OPS by getattr",
    "RunProfile.by_line": "the paper's per-source-line profile (public API)",
    "Machine.with_memory": "public API: a machine with another memory size",
    "FaultPlan.any_faults_configured": "public API of the fault plan",
    "SyntheticIntegrals.h_block": "public API: one-electron integral blocks",
    "GACluster.read_array": "public API of the Global Arrays baseline",
    "MemoryManager.spilled_blocks": "public API: blocks parked on scratch",
    "SlabArena.outstanding": "read by the test suite's arena leak sweep",
    "ArenaReceiver.outstanding": "read by the test suite's arena leak sweep",
    "store_to_array": "public checkpoint API: store -> ndarray",
    "array_to_store": "public checkpoint API: ndarray -> store",
    "checkpoint_scalars": "public checkpoint API: the saved scalar state",
    "save_store": "public checkpoint API: write a store to disk",
    "load_store": "public checkpoint API: read a store from disk",
    "path_cache_info": "public API of the host einsum path cache",
    "clear_path_cache": "public API of the host einsum path cache",
    "format_source": "public API: the SIAL pretty-printer on source text",
}


def _references(node) -> Counter:
    """Names a subtree uses: loads, attributes, imports and identifier
    strings (getattr dispatch, methodcaller, benchmark patch targets)."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and str(n.value).isidentifier():
            refs[n.value] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            refs.update(alias.name.rpartition(".")[2] for alias in n.names)
    return refs


def _definitions(tree):
    """(qualified name, node) of top-level functions, classes, methods
    and upper-case module constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.endswith("__"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def test_every_definition_has_a_caller():
    """A definition whose only reference is itself is dead code.  A
    module's ``__all__`` is a declaration, not a use, so it is left out."""
    used = Counter()
    src_trees = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used += _references(tree)
            for node in tree.body:
                targets = getattr(node, "targets", ())
                if any(ast.unparse(t) == "__all__" for t in targets):
                    used -= _references(node)
            if top == "src":
                src_trees.append((path.relative_to(SRC).as_posix(), tree))
    uncalled = {
        f"{rel}:{qual}": qual
        for rel, tree in src_trees
        for qual, node in _definitions(tree)
        for name in [qual.rpartition(".")[2]]
        if used[name] <= _references(node)[name]
    }
    unexplained = [
        where
        for where, qual in uncalled.items()
        if not any(fnmatch.fnmatchcase(qual, key) for key in UNCALLED_ALLOWLIST)
    ]
    assert not unexplained, "delete, or allowlist with a reason:\n  " + "\n  ".join(
        unexplained
    )
    stale = set(UNCALLED_ALLOWLIST) - {
        key for key in UNCALLED_ALLOWLIST for qual in uncalled.values()
        if fnmatch.fnmatchcase(qual, key)
    }  # fmt: skip
    assert not stale, f"allowlisted but called (or gone): {sorted(stale)}"


def test_the_allowlists_still_match_reality():
    """A lint whose allowlist names dead files lints nothing."""
    all_rel = {rel for rel, _ in repro_modules()}
    for rel in (
        MESSAGE_ALLOWLIST
        | INSERT_PENDING_ALLOWLIST
        | COMM_ALLOWLIST
        | SHM_ALLOWLIST
        | {EVENT_HEAP_OWNER, MP_TRANSPORT, MP_RUNNER}
    ):
        assert rel in all_rel, f"allowlisted module {rel} no longer exists"


#: modules allowed to hold a display of two or more ``Op.<NAME>``
#: members, each with its reason (the opcode table itself is exempt)
OP_TABLE_ALLOWLIST: dict[str, str] = {}


def _op_displays(tree):
    """Set, tuple, list and dict displays naming two or more opcodes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            elts = node.elts
        elif isinstance(node, ast.Dict):
            elts = [k for k in node.keys if k is not None] + node.values
        else:
            continue
        ops = [
            e.attr
            for e in elts
            if isinstance(e, ast.Attribute)
            and isinstance(e.value, ast.Name)
            and e.value.id == "Op"
        ]
        if len(ops) >= 2:
            yield node.lineno, ops


def test_opcode_facts_live_in_one_table():
    """What an opcode's slots mean, its cost rule, glyph and handler kind
    are declared once, in ``sial/bytecode.py``'s ``OPS``; a second
    per-opcode table or opcode tuple elsewhere is a copy that drifts."""
    offenders = []
    seen = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if rel == "src/repro/sial/bytecode.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, ops in _op_displays(tree):
                seen.add(rel)
                if rel not in OP_TABLE_ALLOWLIST:
                    offenders.append(f"{rel}:{lineno} lists {', '.join(ops)}")
    assert not offenders, "read bytecode.OPS instead:\n  " + "\n  ".join(offenders)
    stale = set(OP_TABLE_ALLOWLIST) - seen
    assert not stale, f"allowlisted but clean (or gone): {sorted(stale)}"


def _is_main_guard(node) -> bool:
    """``if __name__ == "__main__":`` in either operand order."""
    test = node.test if isinstance(node, ast.If) else None
    if not (isinstance(test, ast.Compare) and len(test.comparators) == 1):
        return False
    sides = (test.left, test.comparators[0])
    return any(isinstance(n, ast.Name) and n.id == "__name__" for n in sides) and any(
        isinstance(n, ast.Constant) and n.value == "__main__" for n in sides
    )


def test_bench_scripts_hold_no_gates_and_write_no_json():
    """A gate belongs in ``tests/`` or in sipbench's ``compare``, not in a
    bespoke script entry point that asserts and dumps its own JSON."""
    offenders = []
    for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if _is_main_guard(node):
                offenders.append(f"{path.name}:{node.lineno} has a __main__ block")
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                offenders.append(f"{where} defines main()")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names}
                if isinstance(node, ast.ImportFrom):
                    names.add(node.module or "")
                if names & {"json", "argparse"}:
                    offenders.append(f"{where} imports json or argparse")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "BENCH_" in node.value
            ):
                # an f-string's literal parts are Constants too
                offenders.append(f"{where} names a BENCH_* file")
    assert not offenders, "\n  ".join(offenders)
