"""Outside-in spans: wrap the public functions at each layer boundary.

For a traced run the functions named in :data:`TARGETS` are replaced,
as module or class attributes, by timing wrappers; afterwards the
originals are put back.  ``src/`` is not edited and has no switch for
this.  A span's *self time* is its duration minus the time its child
spans cover, so self times partition the traced wall clock and a layer
can be charged exactly once.

A CCSD run crosses these boundaries about half a million times, so
spans are aggregated as they close -- per name (calls, total, self) and
per (parent, name) edge -- instead of being kept one by one.

Everything the simulator schedules is called synchronously beneath
``Simulator.run``, so a plain stack attributes correctly even though
the ranks are generators.  Generator functions themselves (e.g.
``BlockTransferEngine.acquire``) are not targets: their wall time
between resumptions belongs to other ranks.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: (span, module, class or None, attribute, scope).  ``inproc`` targets
#: sit on the per-rank hot path: on the mp backend they run in forked
#: children whose spans never reach the parent, so they are installed
#: for simulator workloads only.
TARGETS: tuple[tuple[str, str, Optional[str], str, str], ...] = (
    ("sial.compile", "repro.api", None, "compile_sial", "any"),
    ("sial.passes.optimize", "repro.sial.passes", None, "optimize_program", "any"),
    ("sip.dryrun", "repro.sip.runner", None, "dry_run", "any"),
    ("sip.dryrun", "repro.sip.mprunner", None, "dry_run", "any"),
    ("sip.mprunner.execute", "repro.sip.mprunner", None, "execute_mp", "any"),
    ("sip.vm.residual", "repro.simmpi.simulator", "Simulator", "run", "inproc"),
    ("sip.decode.resolve", "repro.sip.decode", "DecodedOperand", "resolve", "inproc"),
    *(
        ("sip.backend.kernel", "repro.sip.backend", "ComputeBackend", attr, "inproc")
        for attr in (
            "fill", "copy", "accumulate", "scale", "scale_inplace", "negate",
            "addsub", "contract", "fused_contract", "scalar_contract",
            "compute_integrals",
        )  # fmt: skip
    ),
    *(
        ("sip.plans.lookup", "repro.sip.plans", "KernelPlanCache", attr, "inproc")
        for attr in ("contraction", "perm")
    ),
    *(
        ("sip.blockio.sync", "repro.sip.blockio", "BlockTransferEngine", attr, "inproc")
        for attr in ("hint", "post_put", "post_prepare", "reply_block", "snapshot")
    ),
    *(
        ("sip.cache", "repro.sip.cache", "BlockCache", attr, "inproc")
        for attr in (
            "lookup", "record_use", "insert_pending", "fulfil", "insert_ready",
            "mark_refetch", "remove", "clear_clean", "pin", "unpin",
            "evict_for_pressure",
        )  # fmt: skip
    ),
    *(
        ("sip.memman", "repro.sip.memman", "MemoryManager", attr, "inproc")
        for attr in (
            "allocate", "register", "adopt", "free", "cache_headroom",
            "ensure_headroom", "spill", "touch", "pin_instr", "clear_instr_pins",
            "take_time_debt", "restore_all",
        )  # fmt: skip
    ),
    *(
        ("simmpi.comm", "repro.simmpi.comm", "SimComm", attr, "inproc")
        for attr in ("isend", "irecv")
    ),
)


class Tracer:
    """Aggregating span recorder (one per traced run)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: open spans, innermost last: [name, nanoseconds covered by children]
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: (parent span or "", span) -> calls: the span that caused it
        self.edges: dict[tuple[str, str], int] = defaultdict(int)

    def _close(self, frame: list, started: int) -> None:
        duration = self._clock() - started
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += duration
            self.edges[(parent[0], name)] += 1
        else:
            self.edges[("", name)] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, clock, close = self._stack, self._clock, self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, started)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, 0]
        self._stack.append(frame)
        started = self._clock()
        try:
            yield
        finally:
            self._close(frame, started)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def table(self) -> dict[str, dict]:
        """Per-span aggregate, the form written to result files."""
        out: dict[str, dict] = {}
        for name in sorted(self.calls):
            out[name] = {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
                "parents": {
                    parent or "<root>": n
                    for (parent, child), n in sorted(self.edges.items())
                    if child == name
                },
            }
        return out


class Installation:
    """The wrappers one traced run put in place, and how to undo them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        #: spans with at least one target wrapped
        self.spans: set[str] = set()
        #: spans left out because their targets run in forked ranks
        self.skipped: set[str] = set()
        #: "module:Class.attr" of every target that no longer exists
        self.missing: list[str] = []

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, execution: str, targets=TARGETS) -> Installation:
    """Wrap every target that applies to ``execution``.

    A target that has been deleted or renamed is recorded in
    ``Installation.missing`` instead of raising, so the benchmark keeps
    running across the deletions ROADMAP item 3 plans.
    """
    done = Installation()
    for span, module_name, class_name, attr, scope in targets:
        if scope == "inproc" and execution != "sim":
            done.skipped.add(span)
            continue
        label = f"{module_name}:{class_name + '.' if class_name else ''}{attr}"
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            done.missing.append(label)
            continue
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            done.missing.append(label)
            continue
        setattr(owner, attr, tracer.wrap(span, original))
        done._undo.append((owner, attr, original))
        done.spans.add(span)
    return done
