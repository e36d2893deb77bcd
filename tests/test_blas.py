"""The one-BLAS-thread scope of the damped-wave kernels."""

import sys
import threading
import time

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


def test_one_thread_inside_and_counts_restored(pools_at_two):
    with _blas.one_thread():
        assert counts() == [1] * pools_at_two
        with _blas.one_thread():
            assert counts() == [1] * pools_at_two
        assert counts() == [1] * pools_at_two
    assert counts() == [2] * pools_at_two


def test_counts_restored_after_an_exception(pools_at_two):
    @_blas.one_thread()
    def kernel():
        assert counts() == [1] * pools_at_two
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        kernel()
    assert counts() == [2] * pools_at_two


def test_no_op_without_a_bundled_openblas(pools_at_two, monkeypatch):
    found = _blas._pools()
    monkeypatch.setattr(_blas, "_pools", lambda: ())
    with _blas.one_thread():
        assert [get() for get, _ in found] == [2] * pools_at_two


def test_overlapping_scopes_across_threads(pools_at_two):
    # counts saved and restored per scope would hand two BLAS threads to
    # a thread whose scope is still open, and could leave the process on
    # one after the last scope closes
    inside = []

    def work():
        for _ in range(500):
            with _blas.one_thread():
                time.sleep(0)
                inside.append(counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(inside) == 2000
    assert all(seen == [1] * pools_at_two for seen in inside)
    assert counts() == [2] * pools_at_two


def test_counts_restored_after_a_pooled_scan_raises(pools_at_two,
                                                    monkeypatch):
    # the scan's workers run inside the caller's scope; a mode that
    # raises in a worker must still hand back the caller's counts
    seen = []
    solve = dw.eigenfrequencies

    def solve_or_fail(pencil):
        seen.append(counts())
        if pencil.k == 1:
            raise dw.LinearizationIllConditioned("planted at mode 1")
        return solve(pencil)

    monkeypatch.setattr(dw, "eigenfrequencies", solve_or_fail)
    monkeypatch.setattr(dw, "_workers", lambda n_tasks: 2)
    with pytest.raises(dw.LinearizationIllConditioned, match="mode 1"):
        dw.eigenfrequency_scan(dw.DampedWaveProblem(n_grid=32),
                               modes=(0, 1, 2, 3))
    assert seen and all(c == [1] * pools_at_two for c in seen)
    assert counts() == [2] * pools_at_two
