import importlib
import inspect
import sys
from array import array

import pytest

import ordstat
from ordstat import _backend
from ordstat._backend import available_backends, get_kernels
from ordstat.expr import CompiledProgram


def test_compiled_kernels_built(compiled_build_error):
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    assert "cython" in available_backends()


def test_import_error_is_kept(monkeypatch):
    saved = dict(vars(_backend))
    monkeypatch.setitem(sys.modules, "ordstat._ckernels", None)
    monkeypatch.delattr(ordstat, "_ckernels", raising=False)
    try:
        monkeypatch.setenv("ORDSTAT_BACKEND", "cython")
        with pytest.raises(ImportError, match="ORDSTAT_BACKEND=cython .*halted"):
            importlib.reload(_backend)
        monkeypatch.delenv("ORDSTAT_BACKEND")
        importlib.reload(_backend)
        assert _backend.available_backends() == ("python",)
        assert _backend.active_backend() == "python"
        with pytest.raises(ImportError, match="halted"):
            _backend.get_kernels("cython")
    finally:
        vars(_backend).update(saved)


def test_kernels_refuse_rank_out_of_range(backend):
    kern = get_kernels(backend)
    message = r"rank -?\d+ out of range 1\.\.\d+"
    for entry in (kern.select_naive, kern.select_memo, kern.select_fullrange):
        for values, rank in (((), 1), ((1.0, 2.0), 3), ((1.0, 2.0), 0)):
            with pytest.raises(ValueError, match=message):
                entry(values, rank)


HUGE = (10**30, -10**30, 2**63)


@pytest.mark.parametrize("value", HUGE, ids=["1e30", "-1e30", "2**63"])
def test_twins_refuse_integers_past_c(backend, value):
    # An integer no C type holds gets the error its value calls for, the
    # same on both backends, not a conversion error from the C twin.
    kern = get_kernels(backend)
    for entry in (kern.select_naive, kern.select_memo, kern.select_fullrange):
        with pytest.raises(ValueError, match=f"^rank {value} out of range 1..2$"):
            entry((1.0, 2.0), value)
    code = array("i", [0, 0, 0])
    if value > 0:
        with pytest.raises(OverflowError, match="^cannot fit 'int' into an index-sized integer$"):
            kern.compile_slp(value, [], code, 1)
    else:
        with pytest.raises(ValueError, match=f"^n_vars must not be negative, got {value}$"):
            kern.compile_slp(value, [], code, 1)
    with pytest.raises(ValueError, match=f"^result register {value} out of range 0..1$"):
        kern.compile_slp(1, [], code, value)


@pytest.mark.parametrize("value", HUGE, ids=["1e30", "-1e30", "2**63"])
def test_program_refuses_integers_past_c(value):
    # CompiledProgram checks as compile_slp does.
    error = OverflowError if value > 0 else ValueError
    with pytest.raises(error):
        CompiledProgram(value, (), (0, 0, 0), 1)
    with pytest.raises(ValueError, match="result register"):
        CompiledProgram(1, (), (0, 0, 0), value)


class I:
    """An integer only through __index__, as a NumPy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_kernels_read_rank_through_index(backend):
    kern = get_kernels(backend)
    values = (3.0, 1.0, 2.0)
    for entry, want, want_min in (
            (kern.select_naive, (2.0, 4, 3), (1.0, 1, 1)),
            (kern.select_memo, (2.0, 4, 3, 0), (1.0, 1, 1, 0)),
            (kern.select_fullrange, 2.0, 1.0)):
        assert entry(values, I(2)) == want
        assert entry(values, True) == want_min
        with pytest.raises(TypeError):
            entry(values, 2.0)


def public_entries(module):
    """Public callables a module defines itself (imports excluded)."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and not inspect.isclass(value)
            and getattr(value, "__module__", None) == module.__name__}


def test_twins_expose_the_same_entry_points(compiled_build_error):
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    python, compiled = get_kernels("python"), get_kernels("cython")
    assert public_entries(python) == public_entries(compiled)
    assert {"select_naive", "select_memo", "select_fullrange",
            "compile_slp"} <= public_entries(python)
