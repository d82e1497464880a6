"""Shared fixtures.

When ordstat._ckernels is not importable from the tree under test, the
session first builds it with the tree's own `setup.py build_ext` into a
temporary directory (nothing is written into the tree) and loads it
before ordstat is imported, so the compiled backend is available and the
`backend` fixture runs every test on it as well as on pure Python.
"""

import importlib.machinery
import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMPILED = "ordstat._ckernels"


def _load_compiled():
    """Make ordstat._ckernels importable. Returns None on success, else the
    reason it is not, with the build's output."""
    package = importlib.util.find_spec("ordstat")
    if package is None:
        return "ordstat is not importable"
    if importlib.machinery.PathFinder.find_spec(COMPILED, package.submodule_search_locations):
        return None
    tmp = tempfile.mkdtemp(prefix="ordstat-ckernels-")
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", tmp, "--build-temp", tmp],
            cwd=ROOT, capture_output=True, text=True)
        spec = importlib.machinery.PathFinder.find_spec(COMPILED, [str(Path(tmp, "ordstat"))])
        if spec is None:
            return f"setup.py build_ext built no extension:\n{proc.stdout}\n{proc.stderr}"
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # ordstat._backend's `from . import _ckernels` finds it here.
    sys.modules[COMPILED] = module
    return None


COMPILED_BUILD_ERROR = _load_compiled()

from ordstat import verify  # noqa: E402
from ordstat._backend import active_backend, available_backends, set_backend  # noqa: E402


@pytest.fixture(scope="session")
def compiled_build_error():
    """Why the compiled kernels are unavailable, or None."""
    return COMPILED_BUILD_ERROR


@pytest.fixture(params=available_backends())
def backend(request):
    """Run the decorated test once per available kernel backend."""
    previous = active_backend()
    set_backend(request.param)
    yield request.param
    set_backend(previous)


@pytest.fixture(autouse=True)
def cold_formula_cache(monkeypatch):
    """Start every test with an empty process-wide verify formula cache, so
    no test sees what an earlier one compiled; the cache comes back after."""
    monkeypatch.setattr(verify, "_cache", {})
    monkeypatch.setattr(verify, "_held", 0)
