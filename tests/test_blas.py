"""The one BLAS thread that importing loxokit pins."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from loxokit import _blas
from loxokit import dampedwave as dw


def counts():
    return [get() for get, _ in _blas._pools()]


@pytest.fixture
def pools_at_two():
    """Every bundled OpenBLAS set to 2 threads; the counts found are put
    back afterwards."""
    pools = _blas._pools()
    if not pools:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saved = counts()
    for _, set_ in pools:
        set_(2)
    assert counts() == [2] * len(pools)
    yield len(pools)
    for (_, set_), count in zip(pools, saved):
        set_(count)


def probe(code, **env):
    """Standard output of code run in a fresh interpreter that imports
    loxokit from this source tree, with env added to the environment."""
    src = str(Path(_blas.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


IMPORT_PROBE = """
import sys
import loxokit
from loxokit import _blas
sys.stdout.write(" ".join(str(get()) for get, _ in _blas._pools()))
"""


def test_import_pins_every_pool_to_a_single_thread():
    # OPENBLAS_NUM_THREADS=2 starts both pools on two threads; importing
    # loxokit leaves each on one
    pools = _blas._pools()
    if not pools:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    counts = probe(IMPORT_PROBE, OPENBLAS_NUM_THREADS="2")
    assert counts.split() == ["1"] * len(pools)


def test_no_op_without_a_bundled_openblas(pools_at_two, monkeypatch):
    found = _blas._pools()
    monkeypatch.setattr(_blas, "_pools", lambda: ())
    _blas.pin_single_thread()
    assert [get() for get, _ in found] == [2] * pools_at_two


def test_scan_workers_run_on_a_single_thread(monkeypatch):
    # the scan's workers make their BLAS calls under the import-time pin
    if not _blas._pools():
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    seen = []
    solve = dw.eigenfrequencies

    def solve_and_count(pencil):
        seen.append(counts())
        return solve(pencil)

    monkeypatch.setattr(dw, "eigenfrequencies", solve_and_count)
    monkeypatch.setattr(dw, "_workers", lambda n_tasks: 2)
    dw.eigenfrequency_scan(dw.DampedWaveProblem(n_grid=32),
                           modes=(0, 1, 2, 3))
    assert seen == [[1] * len(_blas._pools())] * 4


MODULES_PROBE = """
import sys
import {module}
sys.stdout.write(" ".join(sys.modules))
"""


def modules_loaded_by(module):
    """Names in sys.modules after a fresh process imports module."""
    return set(probe(MODULES_PROBE.format(module=module)).split())


def test_import_loxokit_loads_no_solver_module():
    loaded = modules_loaded_by("loxokit")
    assert {m for m in loaded if m.startswith("loxokit.")} == \
        {"loxokit._blas"}


# scipy.integrate, and what importing it pulls in; loxokit needs none
SCIPY_UNUSED = {"scipy.integrate", "scipy.optimize", "scipy.special",
                "scipy.sparse"}


def test_import_spectra_loads_no_flow_integrator():
    loaded = modules_loaded_by("loxokit.spectra")
    assert "loxokit.spectra" in loaded
    assert "loxokit.flows" not in loaded
    assert not SCIPY_UNUSED & loaded


def test_import_cli_loads_no_scipy_integrate():
    # the console script's import, which loads every solver module
    loaded = modules_loaded_by("loxokit.cli")
    assert {"loxokit.flows", "loxokit.dampedwave"} <= loaded
    assert not SCIPY_UNUSED & loaded
