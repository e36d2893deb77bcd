import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loxokit.cutoffs import (WARPS, bridge_slope, get_warp, plateau_bump,
                             plateau_step, smooth_bridge)


def test_bridge_endpoints_exact():
    assert smooth_bridge(-1.0) == 0.0
    assert smooth_bridge(0.0) == 0.0
    assert smooth_bridge(1.0) == 1.0
    assert smooth_bridge(5.0) == 1.0
    assert smooth_bridge(0.5) == 0.5


@settings(deadline=None, max_examples=80)
@given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
def test_bridge_monotone(a, b):
    lo, hi = sorted((a, b))
    assert smooth_bridge(lo) <= smooth_bridge(hi)


def test_plateaus_complementary_and_exact():
    x = np.linspace(-3.0, 3.0, 301)
    s = plateau_step(x, 0.5, 1.0)
    b = plateau_bump(x, 0.5, 1.0)
    assert np.array_equal(s + b, np.ones_like(x))
    assert np.all(s[np.abs(x) <= 0.5] == 0.0)
    assert np.all(s[np.abs(x) >= 1.0] == 1.0)
    assert np.all((0.0 <= s) & (s <= 1.0))
    # even in x
    assert np.allclose(s, s[::-1], atol=0)


def test_plateau_scalar_and_vector_agree():
    assert plateau_step(0.75, 0.5, 1.0) == \
        plateau_step(np.array([0.75]), 0.5, 1.0)[0]
    assert isinstance(plateau_bump(0.2, 0.5, 1.0), float)


def test_plateau_rejects_bad_band():
    with pytest.raises(ValueError):
        plateau_step(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        plateau_step(0.0, -0.5, 1.0)


def central_difference(g, x, step=1e-6):
    return (g(x + step) - g(x - step)) / (2 * step)


def test_bridge_slope_matches_central_differences():
    t = np.linspace(-0.5, 1.5, 401)
    err = np.abs(bridge_slope(t) - central_difference(smooth_bridge, t))
    assert np.max(err) <= 1e-9
    assert bridge_slope(0.5) == 2.0
    assert np.all(bridge_slope(np.array([-1.0, 0.0, 1.0, 2.0])) == 0.0)


@pytest.mark.parametrize("name", sorted(WARPS))
def test_warp_is_one_at_the_neck(name):
    warp = get_warp(name)
    assert warp.name == name
    assert warp.f(0.0) == 1.0
    assert warp.slope(0.0) == 0.0


@pytest.mark.parametrize("name", sorted(WARPS))
def test_warp_slope_matches_central_differences(name):
    warp = get_warp(name)
    r = np.linspace(-3.0, 3.0, 601)
    assert warp.slope(r).shape == r.shape
    err = np.abs(warp.slope(r) - central_difference(warp.f, r))
    assert np.max(err / np.maximum(1.0, np.abs(warp.f(r)))) <= 5e-9


def test_neck_warp_is_cosh_inside_and_flat_outside():
    neck = get_warp("neck")
    inner = np.linspace(-1.0, 1.0, 41)
    assert np.array_equal(neck.f(inner), np.cosh(inner))
    assert np.array_equal(neck.slope(inner), np.sinh(inner))
    outer = np.array([-3.0, -2.5, -2.0, 2.0, 2.5, 3.0])
    assert np.all(neck.f(outer) == 1.0)
    assert np.all(neck.slope(outer) == 0.0)


@pytest.mark.parametrize("name", ["saddle", None, "COSH"])
def test_unknown_warp_is_value_error(name):
    with pytest.raises(ValueError, match="unknown warp"):
        get_warp(name)
