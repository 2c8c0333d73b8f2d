"""Runtime error paths of the worker VM: misuse must fail loudly."""

import numpy as np
import pytest

from repro.sip import SIPConfig, SIPError, run_source


def cfg(**kw):
    # -O0: dead-code elimination would delete some of the faulty
    # instructions these tests need the VM to trip over
    defaults = dict(workers=2, io_servers=1, segment_size=3, opt_level=0)
    defaults.update(kw)
    return SIPConfig(**defaults)


def wrap(decls, body):
    return f"sial t\n{decls}\n{body}\nendsial t\n"


def test_temp_block_read_before_write():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\ntemp U(M, M)\n"
    body = "pardo M\nU(M, M) = T(M, M)\nendpardo\n"
    with pytest.raises(SIPError, match="read before it was written"):
        run_source(wrap(decls, body), cfg(), {"nb": 6})


def test_temp_holds_only_current_block():
    # write T at one coordinate, then read it at another
    decls = """
symbolic nb
aoindex M = 1, nb
aoindex N = 1, nb
temp T(M, N)
temp U(M, N)
"""
    body = """
pardo M
  do N
    if N == 1
      T(M, N) = 1.0
    endif
    if N == 2
      U(M, N) = T(M, N)
    endif
  enddo N
endpardo M
"""
    with pytest.raises(SIPError, match="read before it was written"):
        run_source(wrap(decls, body), cfg(workers=1), {"nb": 6})


def test_incompatible_segmentation_rejected():
    # M has range 8, L has range 6: L's segments don't match D's dims
    decls = """
symbolic nb
symbolic nl
aoindex M = 1, nb
aoindex L = 1, nl
distributed D(M, M)
temp T(L, L)
"""
    body = """
pardo L
  get D(L, L)
  T(L, L) = D(L, L)
endpardo L
"""
    with pytest.raises(SIPError, match="incompatible|outside"):
        run_source(
            wrap(decls, body),
            cfg(segment_size=4, workers=1, inputs={"D": np.zeros((8, 8))}),
            {"nb": 8, "nl": 6},
        )


def test_deallocate_of_missing_local_block():
    decls = "symbolic nb\naoindex M = 1, nb\nlocal L(M, M)\n"
    body = "pardo M\ndeallocate L(M, M)\nendpardo\n"
    with pytest.raises(SIPError, match="deallocate of missing"):
        run_source(wrap(decls, body), cfg(), {"nb": 6})


def test_execute_with_distributed_block_rejected():
    def noop(call):
        return 1.0

    decls = "symbolic nb\naoindex M = 1, nb\ndistributed D(M, M)\ntemp T(M, M)\n"
    body = """
pardo M
  T(M, M) = 1.0
  put D(M, M) = T(M, M)
  get D(M, M)
  execute noop D(M, M)
endpardo
"""
    with pytest.raises(SIPError, match="must be static/temp/local"):
        run_source(
            wrap(decls, body), cfg(superinstructions={"noop": noop}), {"nb": 6}
        )


def test_request_of_never_prepared_block():
    decls = "symbolic nb\naoindex M = 1, nb\nserved SV(M, M)\ntemp T(M, M)\n"
    body = "pardo M\nrequest SV(M, M)\nT(M, M) = SV(M, M)\nendpardo\n"
    with pytest.raises(SIPError, match="never prepared"):
        run_source(wrap(decls, body), cfg(), {"nb": 6})


def test_served_array_without_io_servers():
    decls = "symbolic nb\naoindex M = 1, nb\nserved SV(M, M)\ntemp T(M, M)\n"
    body = "pardo M\nT(M, M) = 1.0\nprepare SV(M, M) = T(M, M)\nendpardo\n"
    with pytest.raises(SIPError, match="io_servers is 0"):
        run_source(wrap(decls, body), cfg(io_servers=0), {"nb": 6})


def test_input_for_undeclared_array():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
    with pytest.raises(SIPError, match="undeclared array"):
        run_source(
            wrap(decls, ""), cfg(inputs={"NOPE": np.zeros((6, 6))}), {"nb": 6}
        )


def test_input_for_temp_array_rejected():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
    with pytest.raises(SIPError, match="cannot provide input"):
        run_source(
            wrap(decls, ""), cfg(inputs={"T": np.zeros((6, 6))}), {"nb": 6}
        )


def test_input_shape_mismatch():
    decls = "symbolic nb\naoindex M = 1, nb\ndistributed D(M, M)\n"
    with pytest.raises(SIPError, match="declared shape"):
        run_source(
            wrap(decls, ""), cfg(inputs={"D": np.zeros((3, 3))}), {"nb": 6}
        )


def test_unknown_super_instruction_lists_known():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\n"
    body = "pardo M\nT(M, M) = 0.0\nexecute ghost T(M, M)\nendpardo\n"

    def real(call):
        return None

    with pytest.raises(SIPError, match="registered: real_one"):
        run_source(
            wrap(decls, body),
            cfg(superinstructions={"real_one": real}),
            {"nb": 6},
        )


def test_array_gather_for_temp_rejected():
    decls = "symbolic nb\naoindex M = 1, nb\ntemp T(M, M)\nscalar x\n"
    res = run_source(wrap(decls, "x = 1.0\n"), cfg(), {"nb": 6})
    with pytest.raises(SIPError, match="persist"):
        res.array("T")


def test_list_to_blocks_without_store_entry():
    decls = "symbolic nb\naoindex M = 1, nb\ndistributed D(M, M)\n"
    body = "list_to_blocks D\n"
    with pytest.raises(SIPError, match="no serialized data"):
        run_source(wrap(decls, body), cfg(), {"nb": 6})
