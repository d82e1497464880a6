"""Selects the kernel backend at import time.

The compiled extension (ordstat._ckernels, a C module built by setup.py)
is preferred when it imports; otherwise the pure-Python kernels are used
and the text of the ImportError is kept. Set ORDSTAT_BACKEND=python or
ORDSTAT_BACKEND=cython to force one; "cython" names the compiled backend.
Forcing it when the extension does not import raises an ImportError that
carries the original error. Tests and benchmarks can switch at runtime
with set_backend().
"""

import os

from . import _pykernels

try:
    from . import _ckernels
except ImportError as exc:
    _ckernels = None
    _import_error = str(exc)
else:
    _import_error = None

_NAMES = {"python": _pykernels, "cython": _ckernels}


def _initial():
    forced = os.environ.get("ORDSTAT_BACKEND", "").strip().lower()
    if forced:
        if forced not in _NAMES:
            raise ValueError(f"ORDSTAT_BACKEND must be 'python' or 'cython', got {forced!r}")
        if _NAMES[forced] is None:
            raise ImportError(
                f"ORDSTAT_BACKEND=cython but the compiled kernels did not import: {_import_error}")
        return _NAMES[forced]
    return _ckernels if _ckernels is not None else _pykernels


_active = _initial()


def active_backend() -> str:
    """Name of the backend currently answering kernel calls."""
    return "cython" if _active is _ckernels else "python"


def available_backends() -> tuple[str, ...]:
    return ("python", "cython") if _ckernels is not None else ("python",)


def kernels():
    return _active


def get_kernels(name: str):
    """Kernel module for an explicit backend name, e.g. for benchmarks."""
    if name not in _NAMES:
        raise ValueError(f"unknown backend {name!r}")
    mod = _NAMES[name]
    if mod is None:
        raise ImportError(f"the compiled kernels did not import: {_import_error}")
    return mod


def set_backend(name: str) -> None:
    global _active
    _active = get_kernels(name)
