"""Input checks of the library name the value they reject."""

import math

import numpy as np
import pytest

from loxokit import cutoffs, errors, flows, normal_form, resolvent, spectra
from loxokit import dampedwave as dw


def const(c):
    return lambda r: c * np.ones_like(np.asarray(r, dtype=float))


def dipped_warp(monkeypatch):
    # -1 on |r| <= 0.5 and 1 from |r| = 1 on, so it closes up on the circle
    monkeypatch.setitem(cutoffs.WARPS, "dip", cutoffs.Warp(
        "dip", lambda r: 1.0 - 2.0 * cutoffs.plateau_bump(r, 0.5, 1.0),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float))))
    return dw.DampedWaveProblem(profile="dip", n_grid=32)


def lopsided_warp(monkeypatch):
    # a bump on 0 <= r <= 2 only: positive, flat where the circle wraps,
    # and not even in r
    monkeypatch.setitem(cutoffs.WARPS, "lopsided", cutoffs.Warp(
        "lopsided", lambda r: 1.0 + cutoffs.plateau_bump(
            np.asarray(r) - 1.0, 0.5, 1.0),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float))))
    return dw.DampedWaveProblem(profile="lopsided", n_grid=32)


def one_sided_damping(r):
    r = np.asarray(r, dtype=float)
    return np.where(r > 0, cutoffs.plateau_step(r, 0.5, 1.0), 0.0)


@pytest.mark.parametrize("make, words, values", [
    (lambda mp: cutoffs.plateau_step(0.0, 0.5, 0.2),
     "need 0 <= lo < hi", ["lo = 0.5", "hi = 0.2"]),
    (lambda mp: resolvent.AbsorbingProfile(rho0=0.7, rho1=0.6),
     "need 0 < rho0 < rho1", ["rho0 = 0.7", "rho1 = 0.6"]),
    (lambda mp: resolvent.AbsorbingProfile(floor=1.5),
     "floor must lie in [0, 1]", ["1.5"]),
    (lambda mp: resolvent.AbsorbingProfile(strength=math.nan),
     "strength must lie in [0, inf)", ["nan"]),
    (lambda mp: resolvent.AbsorbingProfile(strength=-1.0),
     "strength must lie in [0, inf)", ["-1.0"]),
    (lambda mp: resolvent.quantize_model(0.05, n_grid=65),
     "n_grid must be even", ["65"]),
    (lambda mp: resolvent.quantize_model(0.05, n_grid=64.5),
     "n_grid must be an integer", ["64.5"]),
    (lambda mp: resolvent.quantize_model(0.05, n_grid=64.0),
     "n_grid must be an integer", ["64.0"]),
    (lambda mp: resolvent.quantize_model(0.05, n_grid=30),
     "n_grid must be at least 32", ["30"]),
    (lambda mp: resolvent.quantize_model(0.2),
     "need h small enough for 32 modes", ["h = 0.2", "16 modes"]),
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
    (lambda mp: dw.DampedWaveProblem(n_grid=65),
     "n_grid must be even", ["65"]),
    (lambda mp: dw.DampedWaveProblem(n_grid=32, damping=const(math.nan),
                                     dead_zone_radius=None),
     "damping must be finite", ["not nan", "r = "]),
    (lambda mp: dw.DampedWaveProblem(n_grid=32, damping=const(math.inf),
                                     dead_zone_radius=None),
     "damping must be finite", ["not inf", "r = "]),
    (lopsided_warp, "warp profile must be even in r",
     ["not 1.0 at r = -1.5", "and 2.0 at r = 1.5"]),
    (lambda mp: dw.DampedWaveProblem(n_grid=32, damping=one_sided_damping),
     "damping must be even in r",
     ["not 0.0 at r = -2.8125", "and 1.0 at r = 2.8125"]),
], ids=["plateau-lo-hi", "rho0-rho1", "floor", "strength-nan",
        "strength-negative", "odd-n_grid", "fractional-n_grid",
        "float-n_grid", "small-n_grid", "few-modes", "mode-k",
        "scan-mode-k", "decay-mode-k", "warp-sign", "damping-sign",
        "dead-zone", "wave-odd-n_grid", "damping-nan", "damping-inf",
        "warp-not-even", "damping-not-even"])
def test_input_message_names_the_value(monkeypatch, make, words, values):
    with pytest.raises(ValueError) as err:
        make(monkeypatch)
    message = str(err.value)
    assert words in message
    for value in values:
        assert value in message


# every scalar input that must be finite and > 0, and a call that reads it
POSITIVE = [
    ("rate", lambda v: resolvent.quantize_model(0.05, rate=v, n_grid=64)),
    ("half_length", lambda v: resolvent.quantize_model(
        0.05, n_grid=64, half_length=v)),
    ("mode window", lambda v: resolvent.sigma_min_scan(
        resolvent.default_operator_builder(), [0.05], window=v)),
    ("R", lambda v: spectra.build_radial_operator(1, v, 64)),
    ("epsilon", lambda v: dw.DampedWaveProblem(n_grid=32, epsilon=v)),
    ("dt", lambda v: dw.evolve(dw.DampedWaveProblem(n_grid=32), 0,
                               t_max=1.0, dt=v)),
    ("tolerance", lambda v: flows.flow(
        flows.harmonic_oscillator(), np.array([1.0, 0.0]), (0.0, 1.0),
        tol=v)),
    ("period_guess", lambda v: flows.find_closed_orbit(
        flows.harmonic_oscillator(), np.array([1.0, 0.0]), v)),
    ("control horizon T", lambda v: flows.check_geometric_control(
        flows.harmonic_oscillator(), None, None, T=v)),
    ("jordan_scale", lambda v: normal_form.birkhoff_normal_form(
        np.diag([0.7, -0.7]), jordan_scale=v)),
]


@pytest.mark.parametrize("radius", [math.nan, math.inf, -0.5])
def test_dead_zone_radius_is_none_or_finite_and_nonnegative(radius):
    # a NaN or negative radius put no node in the dead zone, so the
    # damping check passed whatever the damping did near the neck
    with pytest.raises(ValueError) as err:
        dw.DampedWaveProblem(n_grid=32, dead_zone_radius=radius)
    assert str(err.value) == (f"dead_zone_radius must be None or finite "
                              f"and >= 0, not {radius}")


# every grid size, a call that reads it, and its least value
GRID_SIZES = [
    ("n_grid", lambda v: dw.DampedWaveProblem(n_grid=v), 32),
    ("N", lambda v: spectra.build_radial_operator(10, 3.0, v), 64),
    ("n_grid", lambda v: resolvent.harm_osc_lower_bound([0.1], n_grid=v),
     1),
]


@pytest.mark.parametrize("value", [64.0, 100.5, np.float64(96.0), math.nan,
                                   math.inf],
                         ids=["whole-float", "fraction", "numpy-float",
                              "nan", "inf"])
@pytest.mark.parametrize("name, call, least", GRID_SIZES,
                         ids=["damped-wave", "spectra", "harm-osc"])
def test_grid_size_rule_refuses_what_is_not_an_integer(name, call, least,
                                                       value):
    # n_grid = 64.0 failed later with a TypeError in parity_sectors, and
    # N = 100.5 built 101 nodes of spacing 2R/101.5 and stored N = 100
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer, not {value}"


@pytest.mark.parametrize("name, call, least", GRID_SIZES,
                         ids=["damped-wave", "spectra", "harm-osc"])
def test_grid_size_rule_refuses_what_is_under_its_least(name, call, least):
    # harm_osc_lower_bound raised ZeroDivisionError at n_grid = 0
    for value in (least - 1, -4):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == f"{name} must be at least {least}, not {value}"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name, call", POSITIVE,
                         ids=[name for name, _ in POSITIVE])
def test_scalar_rule_names_the_value(name, call, value):
    # one rule, one message: R, tolerance and period_guess said "positive"
    # and the control horizon "positive, got T"
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be finite and > 0, not {value}"


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 2.5, -1])
def test_mode_rule_refuses_what_is_not_a_nonnegative_integer(k):
    # int(k) raised "cannot convert float NaN to integer" for NaN and an
    # OverflowError, not a ValueError, for an infinite k
    with pytest.raises(ValueError) as err:
        errors.check_mode(k)
    assert str(err.value) == f"mode k must be a nonnegative integer, not {k}"
