"""Tests for the command-line interface."""

import pytest

from repro.cli import main

GOOD = """
sial cli_demo
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
distributed D(M, N)
temp T(M, N)
scalar total

pardo M, N
  T(M, N) = 1.0
  put D(M, N) = T(M, N)
  total += T(M, N) * T(M, N)
endpardo M, N
collective total
endsial cli_demo
"""

BAD = "sial broken\npardo M\nendpardo\nendsial broken\n"


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "demo.sial"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "broken.sial"
    path.write_text(BAD)
    return str(path)


def test_check_ok(good_file, capsys):
    assert main(["check", good_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_reports_semantic_error(bad_file, capsys):
    assert main(["check", bad_file]) == 1
    err = capsys.readouterr().err
    assert "undeclared" in err


def test_compile_prints_bytecode(good_file, capsys):
    assert main(["compile", good_file]) == 0
    out = capsys.readouterr().out
    assert "PARDO_START" in out
    assert "COLLECTIVE" in out


def test_format_is_reparsable(good_file, capsys):
    assert main(["format", good_file]) == 0
    out = capsys.readouterr().out
    from repro.sial import parse

    assert parse(out).name == "cli_demo"


def test_dryrun_feasible(good_file, capsys):
    assert main(["dryrun", good_file, "-D", "nb=16"]) == 0
    assert "FEASIBLE" in capsys.readouterr().out


def test_dryrun_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "big.sial"
    path.write_text(GOOD)
    code = main(
        ["dryrun", str(path), "-D", "nb=12000", "-w", "1", "-s", "16",
         "-m", "bluegene-p"]
    )
    assert code == 2
    assert "INFEASIBLE" in capsys.readouterr().out


def test_run_executes_and_prints_scalars(good_file, capsys):
    code = main(["run", good_file, "-D", "nb=8", "-w", "3", "-s", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated time" in out
    assert "scalar total" in out


def test_run_with_profile(good_file, capsys):
    code = main(["run", good_file, "-D", "nb=8", "--profile"])
    assert code == 0
    assert "hot super instructions" in capsys.readouterr().out


def test_scale_table(good_file, capsys):
    code = main(
        ["scale", good_file, "-D", "nb=32", "-p", "4,8,16", "-m", "cray-xt5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "efficiency" in out
    assert out.count("\n") >= 4


def test_missing_file_reported(capsys):
    assert main(["check", "/nonexistent/file.sial"]) == 1
    assert "error" in capsys.readouterr().err


def test_runtime_error_is_one_line(tmp_path, capsys):
    """A run that fails inside the runtime (the CLI supplies no input
    for the contraction's T) ends in one error line, not a traceback."""
    from repro.programs import library

    path = tmp_path / "contraction.sial"
    path.write_text(library.PAPER_CONTRACTION)
    code = main(["trace", str(path), "-D", "norb=8", "-D", "nocc=4", "-w", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: get of unwritten distributed block")
    assert err.rstrip().endswith("(array 'T')")


def test_bad_define_rejected(good_file):
    with pytest.raises(SystemExit):
        main(["run", good_file, "-D", "nb"])


def test_trace_command_renders_timeline(good_file, capsys):
    code = main(["trace", good_file, "-D", "nb=8", "-w", "2", "--width", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "w0" in out and "w1" in out


RACY = """
sial cli_racy
symbolic nb
aoindex i = 1, nb
aoindex j = 1, nb
distributed D(i, i)
temp T(i, i)
pardo i, j
  T(i, i) = 1.0
  put D(i, i) = T(i, i)
endpardo i, j
sip_barrier
endsial cli_racy
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.sial"
    path.write_text(RACY)
    return str(path)


def test_check_strict_passes_clean_program(good_file, capsys):
    assert main(["check", "--strict", good_file]) == 0
    assert "no races detected" in capsys.readouterr().out


def test_check_strict_fails_on_race_with_location(racy_file, capsys):
    assert main(["check", "--strict", racy_file]) == 1
    err = capsys.readouterr().err
    assert "non-injective" in err
    assert "racy.sial:10:3" in err


def test_check_non_strict_accepts_racy_program(racy_file, capsys):
    assert main(["check", racy_file]) == 0


def test_lint_clean_file(good_file, capsys):
    assert main(["lint", good_file]) == 0
    assert "no races detected" in capsys.readouterr().out


def test_lint_racy_file_prints_diagnostics(racy_file, capsys):
    assert main(["lint", racy_file]) == 1
    out = capsys.readouterr().out
    assert "non-injective-overwrite" in out
    assert "racy.sial:10:3" in out


def test_lint_library_all_clean(capsys):
    assert main(["lint", "--library"]) == 0
    out = capsys.readouterr().out
    assert "library:ccsd" in out
    assert "library:checkpoint_demo" in out
    assert "no races detected" in out


def test_lint_without_targets_rejected():
    with pytest.raises(SystemExit):
        main(["lint"])


def test_run_sanitize_clean_program(good_file, capsys):
    code = main(["run", "--sanitize", good_file, "-D", "nb=8", "-w", "3"])
    assert code == 0
    assert "sanitizer: no conflicts" in capsys.readouterr().out


def test_run_sanitize_racy_program_nonzero_exit(racy_file, capsys):
    code = main(
        ["run", "--sanitize", racy_file, "-D", "nb=4", "-w", "3", "-s", "2"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "write-write" in out
    assert out.count("pardo 0 iteration") == 2  # both endpoints
