"""Smooth cutoff functions shared by the model builders.

All cutoffs are C^inf and exactly constant outside their transition band,
so supports are exact: damping really vanishes on the excluded region and
plateaus really equal 1.
"""

from __future__ import annotations

import numpy as np


def smooth_bridge(t):
    """Monotone C^inf step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    out = g0 / (g0 + g1)
    return out if out.ndim else float(out)


def plateau_step(x, lo, hi):
    """0 for |x| <= lo, 1 for |x| >= hi, smooth and even in between."""
    if not hi > lo >= 0:
        raise ValueError("need 0 <= lo < hi")
    return smooth_bridge((np.abs(x) - lo) / (hi - lo))


def plateau_bump(x, lo, hi):
    """1 for |x| <= lo, 0 for |x| >= hi, smooth and even in between."""
    out = 1.0 - plateau_step(x, lo, hi)
    return out if np.ndim(out) else float(out)


def neck_damping(inner=0.5, outer=1.0):
    """Damping profile a(r): 0 for |r| <= inner, 1 for |r| >= outer."""
    def a(r):
        return plateau_step(r, inner, outer)
    return a
