"""Smooth cutoff functions and the warps of the model surfaces.

All cutoffs are C^inf and exactly constant outside their transition band,
so supports are exact: damping really vanishes on the excluded region and
plateaus really equal 1.

Every model surface is ds^2 = dr^2 + f(r)^2 dtheta^2 with its neck
geodesic at r = 0. WARPS holds the one definition of each warp f that the
geodesic flow, the neck spectra and the damped wave read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _bridge_parts(t):
    """t clipped to [0, 1] with g0 = exp(-1/t) and g1 = exp(-1/(1 - t)),
    each 0 where its exponent is infinite."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return t, g0, g1


def smooth_bridge(t):
    """Monotone C^inf step: 0 for t <= 0, 1 for t >= 1."""
    _, g0, g1 = _bridge_parts(t)
    out = g0 / (g0 + g1)
    return out if out.ndim else float(out)


def bridge_slope(t):
    """Derivative of smooth_bridge, g0 g1 (1/t^2 + 1/(1 - t)^2) / (g0 + g1)^2;
    exactly 0 wherever g0 g1 underflows, so outside (0, 1) too."""
    t, g0, g1 = _bridge_parts(t)
    both = g0 * g1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(both > 0, both * (1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2)
                       / (g0 + g1) ** 2, 0.0)
    return out if out.ndim else float(out)


def bridge_curvature(t):
    """Second derivative of smooth_bridge: bridge_slope times the
    logarithmic derivative of g0 g1 (1/t^2 + 1/(1 - t)^2) / (g0 + g1)^2;
    exactly 0 wherever g0 g1 underflows, as bridge_slope."""
    t, g0, g1 = _bridge_parts(t)
    both = g0 * g1
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = 1.0 / t ** 2, 1.0 / (1.0 - t) ** 2
        log_slope = (a - b + 2.0 * (b / (1.0 - t) - a / t) / (a + b)
                     - 2.0 * (g0 * a - g1 * b) / (g0 + g1))
        out = np.where(both > 0, both * (a + b) / (g0 + g1) ** 2 * log_slope,
                       0.0)
    return out if out.ndim else float(out)


def plateau_step(x, lo, hi):
    """0 for |x| <= lo, 1 for |x| >= hi, smooth and even in between."""
    if not hi > lo >= 0:
        raise ValueError(f"need 0 <= lo < hi, not lo = {lo}, hi = {hi}")
    return smooth_bridge((np.abs(x) - lo) / (hi - lo))


def plateau_bump(x, lo, hi):
    """1 for |x| <= lo, 0 for |x| >= hi, smooth and even in between."""
    out = 1.0 - plateau_step(x, lo, hi)
    return out if np.ndim(out) else float(out)


DAMPING_INNER = 0.5
DAMPING_OUTER = 1.0


def neck_damping(inner=DAMPING_INNER, outer=DAMPING_OUTER):
    """Damping profile a(r): 0 for |r| <= inner, 1 for |r| >= outer."""
    def a(r):
        return plateau_step(r, inner, outer)
    return a


@dataclass(frozen=True)
class Warp:
    """Warp f of ds^2 = dr^2 + f(r)^2 dtheta^2, with f(0) = 1, and its
    slope f' and curvature f'' in closed form. All three broadcast over
    arrays of r."""

    name: str
    f: Callable
    slope: Callable
    curvature: Callable


def _ones(r):
    return np.ones_like(np.asarray(r, dtype=float))


def _zeros(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def _neck(r):
    """cosh r for |r| <= 1 and 1 for |r| >= 2, so all derivatives match
    where the period-6 circle [-3, 3) wraps."""
    r = np.asarray(r, dtype=float)
    return 1.0 + (np.cosh(r) - 1.0) * plateau_bump(r, 1.0, 2.0)


def _neck_slope(r):
    r = np.asarray(r, dtype=float)
    # the bump is 1 - smooth_bridge(|r| - 1)
    bump_slope = -np.sign(r) * bridge_slope(np.abs(r) - 1.0)
    return (np.sinh(r) * plateau_bump(r, 1.0, 2.0)
            + (np.cosh(r) - 1.0) * bump_slope)


def _neck_curvature(r):
    r = np.asarray(r, dtype=float)
    bump_slope = -np.sign(r) * bridge_slope(np.abs(r) - 1.0)
    # sign(r)^2 = 1 wherever the bridge bends, so no sign here
    bump_curvature = -bridge_curvature(np.abs(r) - 1.0)
    return (np.cosh(r) * plateau_bump(r, 1.0, 2.0)
            + 2.0 * np.sinh(r) * bump_slope
            + (np.cosh(r) - 1.0) * bump_curvature)


WARPS = {
    "cosh": Warp("cosh", np.cosh, np.sinh, np.cosh),
    "flat": Warp("flat", _ones, _zeros, _zeros),
    "neck": Warp("neck", _neck, _neck_slope, _neck_curvature),
}


def get_warp(name):
    """The registered warp of that name; an unknown name is a ValueError."""
    try:
        return WARPS[name]
    except KeyError:
        raise ValueError(f"unknown warp {name!r}; expected one of "
                         f"{sorted(WARPS)}") from None
