import importlib
import sys

import pytest

import ordstat
from ordstat import _backend
from ordstat._backend import available_backends, get_kernels


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
    for entry in (kern.select_naive, kern.select_memo, kern.select_fullrange):
        with pytest.raises(ValueError):
            entry((), 1)
        with pytest.raises(ValueError):
            entry((1.0, 2.0), 3)
