"""One stats surface on both backends.

Every ``RunResult.stats`` key is declared once, in ``repro.sip.stats``,
and read from the same rank reports on the simulator and on forked
processes; counters fold across ranks by their dataclass field
metadata; the tracer's run annotations are the profile report's own
lines.  The ``mp`` half forks real processes.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.programs import run_ccsd
from repro.sip import SIPConfig, TraceRecorder
from repro.sip.blocks import CowStats
from repro.sip.fold import fold

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TABLE_MODULE = "sip/stats.py"


def _ccsd(execution, tracer=None):
    config = SIPConfig(
        workers=2, io_servers=1, segment_size=2, execution=execution, tracer=tracer
    )
    return run_ccsd(n_basis=4, n_occ=2, iterations=1, config=config).result


def _stats_dataclasses():
    """(module, class name) of every ``@dataclass`` named ``*Stats`` in src/."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Stats")
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                rel = path.relative_to(SRC.parent).with_suffix("")
                yield ".".join(rel.parts), node.name


STATS_CLASSES = sorted(_stats_dataclasses())


@pytest.mark.mp
def test_both_backends_report_one_key_set():
    sim = _ccsd("sim")
    mp = _ccsd("mp")
    assert sim.stats.keys() == mp.stats.keys()


def test_every_stats_class_is_found():
    names = {name for _, name in STATS_CLASSES}
    assert {"MemStats", "BlockIOStats", "PoolStats", "PardoStats"} <= names


@pytest.mark.parametrize("module,name", STATS_CLASSES)
def test_peaks_fold_by_max(module, name):
    """A high-water mark on one rank is not summed with another's."""
    cls = getattr(importlib.import_module(module), name)
    peaks = [f for f in cls.__dataclass_fields__ if "peak" in f]
    if name == "PardoStats":
        peaks.append("elapsed")  # a pardo's span: the slowest worker's

    def with_peaks(value):
        obj = cls()
        for f in peaks:
            current = getattr(obj, f)
            setattr(obj, f, {(1,): value} if isinstance(current, dict) else value)
        return obj

    into = with_peaks(3)
    fold(into, with_peaks(2))
    for f in peaks:
        got = getattr(into, f)
        assert (got[(1,)] if isinstance(got, dict) else got) == 3, f


@pytest.mark.parametrize(
    "execution", ["sim", pytest.param("mp", marks=pytest.mark.mp)]
)
def test_tracer_annotations_are_the_report_lines(execution):
    tracer = TraceRecorder()
    result = _ccsd(execution, tracer)
    sections = result.profile.sections()
    assert {"plan_cache", "zero_copy", "scheduling", "blockio"} <= sections.keys()
    assert ("mp_gather" in sections) == (execution == "mp")
    assert tracer.summary == sections
    report = result.profile.report().splitlines()
    for key, line in sections.items():
        assert line in report, key
    assert sum(line.startswith("block transfers: ") for line in report) == 1


@pytest.mark.mp
def test_mp_cow_counts_every_rank_including_the_io_server():
    """An I/O server's replies share payloads copy-on-write too."""
    result = _ccsd("mp")
    (server,) = [r for r in result.reports if r.role == "server"]
    assert server.stats["cow"].sends_shared > 0
    total = CowStats()
    for report in result.reports:
        fold(total, report.stats["cow"])
    assert result.stats["cow_shared_payloads"] == total.sends_shared
    assert result.stats["cow_bytes_not_copied"] == total.bytes_not_copied


def test_stats_keys_are_written_only_by_the_table_module():
    """No string-literal ``stats[...] =`` or ``stats.update(`` outside
    the table, and no duck-typed stand-ins for rank objects."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            name = name or getattr(node, "attr", None)
            if isinstance(name, str) and ("StandIn" in name or name == "_Bag"):
                offenders.append(f"{rel}:{node.lineno} {name}")
            if rel == TABLE_MODULE:
                continue
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for t in targets:
                if (
                    isinstance(t, ast.Subscript)
                    and ast.unparse(t.value).endswith("stats")
                    and isinstance(t.slice, ast.Constant)
                    and isinstance(t.slice.value, str)
                ):
                    offenders.append(f"{rel}:{node.lineno} {ast.unparse(t)} =")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and ast.unparse(node.func.value).endswith("stats")
            ):
                offenders.append(f"{rel}:{node.lineno} {ast.unparse(node.func)}(")
    assert not offenders, "\n  ".join(offenders)
