"""Input checks of the library name the value they reject."""

import numpy as np
import pytest

from loxokit import cutoffs, resolvent, spectra
from loxokit import dampedwave as dw


def const(c):
    return lambda r: c * np.ones_like(np.asarray(r, dtype=float))


def dipped_warp(monkeypatch):
    # -1 on |r| <= 0.5 and 1 from |r| = 1 on, so it closes up on the circle
    monkeypatch.setitem(cutoffs.WARPS, "dip", cutoffs.Warp(
        "dip", lambda r: 1.0 - 2.0 * cutoffs.plateau_bump(r, 0.5, 1.0),
        lambda r: np.zeros_like(np.asarray(r, dtype=float))))
    return dw.DampedWaveProblem(profile="dip", n_grid=32)


@pytest.mark.parametrize("make, words, values", [
    (lambda mp: cutoffs.plateau_step(0.0, 0.5, 0.2),
     "need 0 <= lo < hi", ["lo = 0.5", "hi = 0.2"]),
    (lambda mp: resolvent.AbsorbingProfile(rho0=0.7, rho1=0.6),
     "need 0 < rho0 < rho1", ["rho0 = 0.7", "rho1 = 0.6"]),
    (lambda mp: resolvent.AbsorbingProfile(floor=1.5),
     "floor must lie in [0, 1]", ["1.5"]),
    (lambda mp: resolvent.quantize_model(0.05, n_grid=65),
     "n_grid must be even", ["65"]),
    (lambda mp: spectra.build_radial_operator(1.5, 4.0, 64),
     "mode k must be a nonnegative integer", ["1.5"]),
    (lambda mp: dw.eigenfrequency_scan(dw.DampedWaveProblem(n_grid=32),
                                       modes=[-1, 1]),
     "mode k must be a nonnegative integer", ["-1"]),
    (lambda mp: dw.decay_report(dw.DampedWaveProblem(n_grid=32),
                                modes=[-3], t_max=0.1),
     "mode k must be a nonnegative integer", ["-3"]),
    (dipped_warp, "warp profile must be positive", ["-1.0", "r = "]),
    (lambda mp: dw.DampedWaveProblem(n_grid=32, damping=const(-0.25)),
     "damping must be nonnegative", ["-0.25", "r = "]),
    (lambda mp: dw.DampedWaveProblem(n_grid=32, damping=const(0.3)),
     "damping must vanish for |r| <= dead_zone_radius",
     ["dead_zone_radius = 0.5", "not 0.3", "r = "]),
], ids=["plateau-lo-hi", "rho0-rho1", "floor", "odd-n_grid", "mode-k",
        "scan-mode-k", "decay-mode-k", "warp-sign", "damping-sign", "dead-zone"])
def test_input_message_names_the_value(monkeypatch, make, words, values):
    with pytest.raises(ValueError) as err:
        make(monkeypatch)
    message = str(err.value)
    assert words in message
    for value in values:
        assert value in message
