"""Dirichlet eigenmodes on a warped cylinder segment, per angular mode.

The surface is ds^2 = dr^2 + f(r)^2 dtheta^2 on r in [-R, R] with f = cosh
(or f = 1 for the flat oracle case). Separating u = v(r) e^{ik theta}
leaves the radial Sturm-Liouville problem

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

from .errors import GridTooCoarse, LoxokitError


class SpectraError(LoxokitError):
    pass


class ConvergenceFailure(SpectraError):
    pass


_PROFILES = {
    "cosh": np.cosh,
    "flat": lambda r: np.ones_like(np.asarray(r, dtype=float)),
}


@dataclass
class RadialOperator:
    """Second-order flux discretization of the radial operator.

    N interior nodes r_i = -R + (i+1) dr, dr = 2R/(N+1), Dirichlet ends.
    The generalized problem K v = mu W v (K the flux stiffness plus the
    angular potential, W = diag(f)) is stored in symmetrized tridiagonal
    form: sym_diag/sym_off define A = W^{-1/2} K W^{-1/2}, whose
    eigenvectors map back by v = w / sqrt(f).
    """

    k: int
    R: float
    N: int
    profile: str
    nodes: np.ndarray
    spacing: float
    weight: np.ndarray           # f(r_i)
    sym_diag: np.ndarray
    sym_off: np.ndarray


def build_radial_operator(k, R=3.0, N=2048, profile="cosh"):
    if N < 64:
        raise GridTooCoarse(f"N = {N} below the minimum grid size 64")
    if R <= 0:
        raise ValueError("R must be positive")
    if k < 0 or k != int(k):
        raise ValueError("mode k must be a nonnegative integer")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    f = _PROFILES[profile]
    dr = 2.0 * R / (N + 1)
    nodes = -R + dr * np.arange(1, N + 1)
    w = f(nodes)
    w_half = f(nodes[:-1] + 0.5 * dr)          # midpoint couplings
    w_lo = f(-R + 0.5 * dr)                    # boundary fluxes
    w_hi = f(R - 0.5 * dr)
    diag_K = np.empty(N)
    diag_K[0] = (w_lo + w_half[0]) / dr ** 2
    diag_K[-1] = (w_half[-1] + w_hi) / dr ** 2
    diag_K[1:-1] = (w_half[:-1] + w_half[1:]) / dr ** 2
    diag_K += k ** 2 / w
    off_K = -w_half / dr ** 2
    return RadialOperator(
        k=int(k), R=float(R), N=int(N), profile=profile, nodes=nodes,
        spacing=dr, weight=w,
        sym_diag=diag_K / w,
        sym_off=off_K / np.sqrt(w[:-1] * w[1:]))


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


def eigenpair_near(op, target):
    """The eigenpair whose eigenvalue is nearest `target`.

    Solves in a window around the target, widening it if the window comes
    back empty; falls back to the lowest quarter of the spectrum.
    """
    for width in (0.25, 0.5, 1.0):
        lo = target * (1 - width) - 1.0
        hi = target * (1 + width) + 1.0
        vals, vecs = _eigh(op, "v", (lo, hi))
        if vals.size:
            j = int(np.argmin(np.abs(vals - target)))
            return float(vals[j]), _normalize_columns(op, vecs[:, j:j + 1])[:, 0]
    vals, vecs = solve_eigenpairs(op, op.N // 4)
    j = int(np.argmin(np.abs(vals - target)))
    return float(vals[j]), vecs[:, j]


def mass_outside(op, v, delta):
    """Weighted mass of v carried by |r| > delta (v weight-normalized)."""
    if not 0 <= delta < op.R:
        raise ValueError("delta must lie in [0, R)")
    sel = np.abs(op.nodes) > delta
    return float(op.spacing * np.sum(v[sel] ** 2 * op.weight[sel]))


def neck_mode(op, delta):
    """The most neck-concentrated eigenmode near the barrier top.

    Scans the window mu in k^2 +- (4k + 10) and picks the mode with the
    least mass outside (-delta, delta). Selecting by |mu - k^2| alone is
    unstable: odd modes vanish at r = 0, so a grid-refinement shift can
    swap in a mode that does not concentrate at the neck at all.
    """
    k2 = float(op.k) ** 2
    width = 4.0 * op.k + 10.0
    for scale in (1.0, 2.0, 4.0):
        vals, vecs = _eigh(op, "v", (k2 - scale * width, k2 + scale * width))
        if vals.size:
            break
    else:
        vals, vecs = _eigh(op, "i", (0, op.N // 4))
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

    def csv_columns(self):
        return ["k", "lambda", "mass_outside", "product_mass_log_lambda",
                "grid_N"]

    def csv_rows(self):
        return [[r.k, r.lam, r.mass_outside, r.product, r.grid_N]
                for r in self.rows]


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


def nonconcentration_scan(k_list, delta=0.5, R=3.0, N=2048, profile="cosh"):
    """Barrier-top mode per k, its mass away from the neck, and the
    logarithmic products; band statistics summarize the scan."""
    if not k_list:
        raise ValueError("k_list must not be empty")
    if not delta < R:
        raise ValueError("delta must be smaller than R")
    rows = [_scan_one(k, delta, R, N, profile) for k in k_list]
    products = [r.product for r in rows]
    band = {"product_min": float(min(products)),
            "product_max": float(max(products))}
    band["product_ratio"] = (band["product_max"] / band["product_min"]
                             if band["product_min"] > 0 else float("inf"))
    return ConcentrationReport(rows=rows, delta=delta, R=R, profile=profile,
                               band=band)
