"""Command-line interface: ``python -m repro <command> ...``.

Subcommands mirror the SIA toolchain a SIAL developer uses:

* ``check``   -- parse + semantic-check a SIAL source file
  (``--strict`` also fails on race-detector diagnostics);
* ``lint``    -- run the static race detector and print every
  diagnostic with its source location;
* ``compile`` -- compile and print the SIA bytecode listing;
* ``disasm``  -- compile at an ``-O`` level and print the optimized
  listing (``--diff`` also shows per-pass instruction-count deltas);
* ``format``  -- pretty-print the program in canonical form;
* ``dryrun``  -- the master's memory-feasibility report;
* ``run``     -- execute on the simulated SIP (model backend; real
  data needs inputs, which the Python API provides);
* ``trace``   -- run with the trace recorder and print per-worker
  timelines showing communication/computation overlap;
* ``scale``   -- extract the program's workload model from its bytecode
  and print a strong-scaling table at the requested core counts.

Symbolic constants are passed as ``-D name=value``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .machines import MACHINES, get_machine
from .perfmodel import extract_workload, sweep
from .sial import SialError, compile_source, disassemble, parse
from .sial.analyzer import analyze
from .sial.printer import pretty
from .sip import SIPConfig
from .sip.blocks import ResolvedIndexTable
from .sip.dryrun import dry_run
from .sip.runner import run_program

__all__ = ["main"]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _symbolics(pairs: Optional[Sequence[str]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"bad -D option {pair!r}; expected name=value")
        name, value = pair.split("=", 1)
        out[name.strip()] = float(value)
    return out


def _config(args: argparse.Namespace) -> SIPConfig:
    kwargs = {}
    if args.memory_mb is not None:
        kwargs["memory_per_worker"] = args.memory_mb * 1e6
    execution = getattr(args, "backend", "sim")
    arena_mb = getattr(args, "arena_mb", None)
    if execution == "mp" and arena_mb is not None:
        kwargs["mp_arena_max_bytes"] = int(arena_mb * 1e6)
    # the multiprocess backend exists for real wallclock, so it pairs
    # with real kernels; the simulator defaults to the coarse model
    return SIPConfig(
        workers=args.workers,
        io_servers=args.io_servers,
        segment_size=args.segment,
        backend="real" if execution == "mp" else "model",
        execution=execution,
        machine=get_machine(args.machine),
        prefetch_depth=args.prefetch,
        spill=args.spill,
        opt_level=getattr(args, "opt_level", 2),
        **kwargs,
    )


def _add_opt_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-O",
        dest="opt_level",
        type=int,
        default=2,
        choices=(0, 1, 2),
        metavar="N",
        help="SIAL optimization level (0 = verbatim, 2 = full pipeline; default 2)",
    )


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    _add_opt_option(parser)
    parser.add_argument("-w", "--workers", type=int, default=4)
    parser.add_argument("--io-servers", type=int, default=1)
    parser.add_argument("-s", "--segment", type=int, default=4)
    parser.add_argument("--prefetch", type=int, default=2)
    parser.add_argument(
        "-m",
        "--machine",
        default="laptop",
        choices=sorted(MACHINES),
        help="machine performance model",
    )
    parser.add_argument(
        "--memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-worker memory budget in MB (default: config default)",
    )
    parser.add_argument(
        "--spill",
        action="store_true",
        help="enable the unified memory hierarchy with spill-to-scratch",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIAL/SIP toolchain (Super Instruction Architecture)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and semantic-check")
    p.add_argument("file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="also fail on static race-detector diagnostics",
    )

    p = sub.add_parser("lint", help="static race detection")
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument(
        "--library",
        action="store_true",
        help="also lint every bundled SIAL program",
    )

    p = sub.add_parser(
        "compile", help="compile and show the verbatim (-O0) SIA bytecode"
    )
    p.add_argument("file")

    p = sub.add_parser(
        "disasm", help="compile at an -O level and show the optimized bytecode"
    )
    p.add_argument("file")
    _add_opt_option(p)
    p.add_argument(
        "--diff",
        action="store_true",
        help="also print the per-pass instruction-count deltas",
    )

    p = sub.add_parser("format", help="pretty-print canonical SIAL")
    p.add_argument("file")

    p = sub.add_parser("dryrun", help="memory-feasibility report")
    p.add_argument("file")
    p.add_argument("-D", dest="defines", action="append", metavar="NAME=VALUE")
    _add_runtime_options(p)

    p = sub.add_parser("run", help="execute on the simulated SIP")
    p.add_argument("file")
    p.add_argument("-D", dest="defines", action="append", metavar="NAME=VALUE")
    p.add_argument("--profile", action="store_true", help="print the profile")
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="record block accesses and report runtime conflicts",
    )
    p.add_argument(
        "--backend",
        default="sim",
        choices=("sim", "mp"),
        help="execution backend: the deterministic simulator (default) "
        "or real multiprocess workers over pipes + shared memory",
    )
    p.add_argument(
        "--arena-mb",
        type=float,
        default=None,
        metavar="MB",
        help="mp backend: per-rank cap on the slab arena footprint",
    )
    _add_runtime_options(p)

    p = sub.add_parser("trace", help="run and print per-worker timelines")
    p.add_argument("file")
    p.add_argument("-D", dest="defines", action="append", metavar="NAME=VALUE")
    p.add_argument("--width", type=int, default=72)
    _add_runtime_options(p)

    p = sub.add_parser("scale", help="strong-scaling table via the coarse model")
    p.add_argument("file")
    p.add_argument("-D", dest="defines", action="append", metavar="NAME=VALUE")
    p.add_argument(
        "-p",
        "--procs",
        default="32,64,128,256",
        help="comma-separated processor counts",
    )
    _add_runtime_options(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SialError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _lint_targets(args: argparse.Namespace) -> list[tuple[str, str, str]]:
    """(label, source, filename) triples for the lint subcommand."""
    targets = [(path, _read(path), path) for path in args.files]
    if args.library:
        from .programs.library import ALL_PROGRAMS

        for name, src in ALL_PROGRAMS.items():
            targets.append((f"library:{name}", src, f"<{name}>"))
    if not targets:
        raise SystemExit(
            "lint: no files given (use --library for the bundled programs)"
        )
    return targets


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        from .sial.racecheck import check_races

        failures = 0
        for label, src, filename in _lint_targets(args):
            program = parse(src, filename)
            report = check_races(analyze(program, src))
            if report.ok:
                print(f"{label}: no races detected")
            else:
                failures += 1
                print(f"{label}: {len(report.diagnostics)} diagnostic(s)")
                for diag in report.diagnostics:
                    print(f"  {diag.render()}")
        return 1 if failures else 0

    source = _read(args.file)

    if args.command == "check":
        program = parse(source, args.file)
        analyze(program, source, strict=args.strict)
        suffix = ", no races detected" if args.strict else ""
        print(f"{args.file}: OK ({program.name}{suffix})")
        return 0

    if args.command == "compile":
        compiled = compile_source(source, args.file, optimize=0)
        print(disassemble(compiled))
        return 0

    if args.command == "disasm":
        compiled = compile_source(source, args.file, optimize=args.opt_level)
        if args.diff:
            if compiled.opt_report is not None:
                print(compiled.opt_report.render())
            else:
                print("pass pipeline at -O0: (not run)")
            print()
        print(disassemble(compiled))
        return 0

    if args.command == "format":
        print(pretty(parse(source, args.file)), end="")
        return 0

    symbolics = _symbolics(getattr(args, "defines", None))
    config = _config(args)
    compiled = compile_source(source, args.file, optimize=config.opt_level)

    if args.command == "dryrun":
        table = ResolvedIndexTable(
            compiled,
            symbolics,
            segment_size=config.segment_size,
            segment_sizes=config.segment_sizes,
            subsegments_per_segment=config.subsegments_per_segment,
        )
        report = dry_run(compiled, config, table)
        print(report.report())
        return 0 if report.feasible else 2

    if args.command == "run":
        if args.sanitize:
            config.sanitize = True
        result = run_program(compiled, config, symbolics)
        if config.execution == "mp":
            print(
                f"wallclock time: {result.stats['wallclock_seconds']:.6f} s "
                f"on {config.workers} worker processes"
            )
        else:
            print(
                f"simulated time: {result.elapsed:.6f} s on {config.workers} workers"
            )
        print(f"wait fraction : {100 * result.profile.wait_fraction:.2f} %")
        for name, value in sorted(result.scalars.items()):
            print(f"scalar {name} = {value!r}")
        if args.profile:
            print(result.profile.report())
        if result.sanitizer_report is not None:
            print(result.sanitizer_report.render())
            if not result.sanitizer_report.ok:
                return 1
        return 0

    if args.command == "trace":
        from .sip.tracing import TraceRecorder

        tracer = TraceRecorder()
        config.tracer = tracer
        result = run_program(compiled, config, symbolics)
        print(tracer.timeline(width=args.width))
        print(
            f"elapsed {result.elapsed:.6f} s, wait "
            f"{100 * result.profile.wait_fraction:.1f} % of elapsed"
        )
        return 0

    if args.command == "scale":
        workload = extract_workload(compiled, config, symbolics)
        procs = [int(p) for p in args.procs.split(",")]
        machine = get_machine(args.machine)
        rows = sweep(workload, machine, procs)
        print(f"{'procs':>8s} {'time (s)':>12s} {'efficiency':>10s} {'wait %':>7s}")
        for row in rows:
            print(
                f"{row['procs']:>8d} {row['time']:>12.6f} "
                f"{row['efficiency']:>10.2f} {row['wait_percent']:>7.1f}"
            )
        return 0

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover
