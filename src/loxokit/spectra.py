"""Dirichlet eigenmodes on a warped cylinder segment, per angular mode.

The surface is ds^2 = dr^2 + f(r)^2 dtheta^2 on r in [-R, R] with a warp
f from cutoffs.WARPS: cosh by default, 1 for the flat oracle case.
Separating u = v(r) e^{ik theta} leaves the radial Sturm-Liouville problem

    -(1/f) (f v')' + (k^2 / f^2) v = mu v,   v(+-R) = 0,

self-adjoint in the volume-weighted inner product <u, v> = int u v f dr.
Frequencies are lambda = sqrt(mu). The effective potential k^2/f^2 has a
barrier top of height k^2 at the neck r = 0; eigenmodes with mu near k^2
concentrate at the neck, and the concentration scan measures how much of
their mass escapes a fixed neighborhood as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .cutoffs import get_warp
from .errors import (GridTooCoarse, LoxokitError, check_mode, check_modes,
                     check_positive)


# the scan that `loxokit spectrum` and the non-concentration criterion run
K_LADDER = (10, 20, 40, 80)  # angular modes
DELTA = 0.5                  # neck half-width
RADIUS = 3.0                 # r runs over [-RADIUS, RADIUS]
GRID_N = 2048                # interior grid nodes
PROFILE = "cosh"             # warp


class SpectraError(LoxokitError):
    pass


class ConvergenceFailure(SpectraError):
    pass


def radial_stencil(f, nodes, dr, k, periodic):
    """(diag, upper, lower, corners): the flux stencil of the radial
    operator -(1/f) (f v')' + k^2 / f^2 for the warp f (a callable of r)
    on nodes of spacing dr, in the sqrt(f)-symmetrized frame. upper[j]
    is entry (j, j+1), lower[j] entry (j+1, j), and corners, on a
    periodic grid, entries (0, n-1) and (n-1, 0); otherwise v = 0 one
    step past each end node and corners is None. An edge of weight
    w = f(midpoint) / dr^2 between nodes i < j gives (-w s_i) s_j above
    and (-w s_j) s_i below, s = 1/sqrt(f): the two round apart."""
    fn = f(nodes)
    s = 1.0 / np.sqrt(fn)
    w = f(nodes + 0.5 * dr) / dr**2
    # w[j] and w[j+1] are the edges left and right of node j
    w = np.append(w[-1] if periodic else f(nodes[0] - 0.5 * dr) / dr**2, w)
    diag = ((w[:-1] + w[1:]) * s) * s + k**2 / fn**2
    upper = (-w[1:-1] * s[:-1]) * s[1:]
    lower = (-w[1:-1] * s[1:]) * s[:-1]
    if not periodic:
        return diag, upper, lower, None
    return diag, upper, lower, ((-w[0] * s[0]) * s[-1],
                                (-w[0] * s[-1]) * s[0])


@dataclass
class RadialOperator:
    """radial_stencil's operator A on N interior nodes
    r_i = -R + (i+1) dr of [-R, R], dr = 2R/(N+1), with Dirichlet ends:
    diagonal sym_diag, off-diagonal sym_off. Its eigenvectors w map back
    to the physical frame by v = w / sqrt(f)."""

    k: int
    R: float
    N: int
    nodes: np.ndarray
    spacing: float
    weight: np.ndarray           # f(r_i)
    sym_diag: np.ndarray
    sym_off: np.ndarray


def _check_delta(delta, R):
    if not 0 <= delta < R:
        raise ValueError(f"delta must be finite and lie in [0, R) = "
                         f"[0, {R}), not {delta}")


def build_radial_operator(k, R, N, profile=PROFILE):
    if N < 64:
        raise ValueError(f"N must be at least 64, not {N}")
    check_positive(R, "R")
    check_mode(k)
    f = get_warp(profile).f
    dr = 2.0 * R / (N + 1)
    nodes = -R + dr * np.arange(1, N + 1)
    diag, upper, _, _ = radial_stencil(f, nodes, dr, k, periodic=False)
    return RadialOperator(
        k=int(k), R=float(R), N=int(N), nodes=nodes, spacing=dr,
        weight=f(nodes), sym_diag=diag, sym_off=upper)


def _normalize_columns(op, vectors):
    # LAPACK returns unit l2 columns in the symmetric frame; convert to the
    # original frame and weight-normalize
    v = vectors / np.sqrt(op.weight)[:, None]
    norms = np.sqrt(op.spacing * np.sum(v ** 2 * op.weight[:, None], axis=0))
    return v / norms


def _eigh(op, select, select_range):
    """eigh_tridiagonal of the symmetric-frame operator; a LAPACK failure
    raises ConvergenceFailure."""
    try:
        return la.eigh_tridiagonal(op.sym_diag, op.sym_off, select=select,
                                   select_range=select_range)
    except la.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from None


def solve_eigenpairs(op, count):
    """First `count` eigenpairs, ascending, weight-normalized vectors."""
    if count < 1 or count > op.N // 4:
        raise ValueError(f"count must be in [1, N/4] = [1, {op.N // 4}]")
    vals, vecs = _eigh(op, "i", (0, count - 1))
    return vals, _normalize_columns(op, vecs)


def mass_outside(op, v, delta):
    """Weighted mass of v carried by |r| > delta (v weight-normalized)."""
    _check_delta(delta, op.R)
    sel = np.abs(op.nodes) > delta
    return float(op.spacing * np.sum(v[sel] ** 2 * op.weight[sel]))


def neck_mode(op, delta):
    """The most neck-concentrated eigenmode near the barrier top.

    Scans the window mu in k^2 +- (4k + 10), widened twice and four
    times while it holds no eigenvalue, and picks the mode with the least
    mass outside (-delta, delta). Selecting by |mu - k^2| alone is
    unstable: odd modes vanish at r = 0, so a grid-refinement shift can
    swap in a mode that does not concentrate at the neck at all. A grid
    with no eigenvalue even in the widest window raises GridTooCoarse.
    """
    k2 = float(op.k) ** 2
    width = 4.0 * op.k + 10.0
    for scale in (1.0, 2.0, 4.0):
        vals, vecs = _eigh(op, "v", (k2 - scale * width, k2 + scale * width))
        if vals.size:
            break
    else:
        raise GridTooCoarse(
            f"no eigenvalue within 4 (4k + 10) of k^2 for k = {op.k} on "
            f"N = {op.N} grid nodes; the grid cannot resolve the neck mode")
    v = _normalize_columns(op, vecs)
    masses = [mass_outside(op, v[:, j], delta) for j in range(vals.size)]
    j = int(np.argmin(masses))
    return float(vals[j]), v[:, j]


@dataclass
class ModeRow:
    k: int
    lam: float                   # frequency sqrt(mu)
    mass_outside: float
    product: float               # mass_outside * log(lam)
    grid_N: int


@dataclass
class ConcentrationReport:
    rows: list
    delta: float
    R: float
    profile: str
    band: dict = field(default_factory=dict)


def _scan_one(k, delta, R, N, profile):
    op = build_radial_operator(k, R=R, N=N, profile=profile)
    if k == 0:
        vals, vecs = solve_eigenpairs(op, 1)
        mu, v = float(vals[0]), vecs[:, 0]
    else:
        mu, v = neck_mode(op, delta)
    lam = float(np.sqrt(mu))
    m_out = mass_outside(op, v, delta)
    return ModeRow(k=int(k), lam=lam, mass_outside=m_out,
                   product=m_out * np.log(lam), grid_N=int(N))


def nonconcentration_scan(k_list, delta=DELTA, R=RADIUS, N=GRID_N,
                          profile=PROFILE):
    """Barrier-top mode per k, its mass away from the neck, and the
    logarithmic products; band statistics summarize the scan."""
    k_list = check_modes(k_list, "k", "k")
    check_positive(R, "R")
    _check_delta(delta, R)
    rows = [_scan_one(k, delta, R, N, profile) for k in k_list]
    products = [r.product for r in rows]
    band = {"product_min": float(min(products)),
            "product_max": float(max(products))}
    band["product_ratio"] = (band["product_max"] / band["product_min"]
                             if band["product_min"] > 0 else float("inf"))
    return ConcentrationReport(rows=rows, delta=delta, R=R, profile=profile,
                               band=band)
