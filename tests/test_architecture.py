"""Architecture lint: block movement goes through the transfer engine.

The refactor that extracted :mod:`repro.sip.blockio` concentrated every
block-transfer wire message and every pending-cache insertion in one
module.  These tests keep it that way: they AST-walk the source tree
and fail when a module outside the allowlists starts hand-rolling block
movement again (constructing GetBlock/PutBlock/... directly, inserting
pending cache entries, or importing the raw simulated wire layer).

Control-plane traffic (barriers, the master's dole-out protocol, acks)
deliberately stays outside the engine -- only *block* movement is
restricted.

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
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the block-transfer wire messages; constructing one of these is
#: putting a block movement on the wire
BLOCK_MESSAGES = {
    "GetBlock",
    "RequestBlock",
    "PutBlock",
    "PrepareBlock",
    "BlockReply",
}

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
    cache under pressure; neither may come back under its old name."""
    removed = {"SPILL_ORDER", "_KIND_TO_SPILL_CLASS", "_victims", "cache_spill_ok"}
    offenders = [
        f"{rel}:{node.lineno} {name}"
        for rel, tree in repro_modules()
        for node in ast.walk(tree)
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)]
        if name in removed
    ]
    assert not offenders, "\n  ".join(offenders)


def test_sipconfig_does_not_grow():
    import dataclasses

    from repro.sip import SIPConfig

    assert len(dataclasses.fields(SIPConfig)) <= 46


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
