"""Finite model of the absorbed operator near a hyperbolic orbit.

The model Hamiltonian is p = tau + rate * x*xi on the cylinder S^1_t x R_x.
Quantized at semiclassical parameter h it becomes h D_t + rate * sym(x h D_x),
block-diagonal over Fourier modes m in t. With a complex absorbing potential
-i h C a(x) switched on away from the orbit {x = 0}, the shifted operator

    Q_m(z) = (h m - z) I + rate * S - i h C diag(a(x)),
    S = (x hD_x + hD_x x) / 2  (central differences, Dirichlet ends),

is tridiagonal per mode, and the global smallest singular value at spectral
parameter z is the minimum over modes. Scans normalize 1/sigma_min by
h / log(1/h) (and the cutoff variant by h / sqrt(log(1/h))) so the scaling
across an h-halving sequence can be read off directly.

Both scanned quantities are one number, ||Q_m(z)^{-1} diag(phi)||: phi = 1
gives 1/sigma_min and phi = default_cutoff gives the cutoff norm. One sweep
class and one Lanczos iteration compute it for either phi, converged to a
Ritz residual rather than capped at a step count, so the argmin over modes
is right before the banded eigensolver certifies it.

The sweeps solve half-size problems. On the grid of quantize_model the
coupling of S across x = 0 is exactly zero (x_j + x_{j+1} = 0 there: the
flow x' = rate x never crosses the orbit), so Q_m(z) = Q_L + Q_R is a
direct sum of half-line blocks, and Q_L = P Q_R P for the reflection P
because a(x) and the default cutoff are even. Hence sigma_min(Q) =
sigma_min(Q_R) and ||Q^{-1} phi|| = ||Q_R^{-1} phi_R|| as identities; the
sweeps check the mirror equalities bitwise and refuse data that break
them. Sweep points are keyed on w = z - h m snapped to steps of
LATTICE_TOL * h, so the near-copies of one lattice point that different z
produce share one evaluation and one certification; since w -> sigma_min
is 1-Lipschitz, a merged sigma_min is off by less than LATTICE_TOL * h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack

from .cutoffs import plateau_step
from .errors import (GridTooCoarse, LoxokitError, check_entries,
                     check_positive)


# the scan that `loxokit resolvent` and the resolvent-bounds criterion run
H_LADDER = (1 / 50, 1 / 100, 1 / 200, 1 / 400)
MODE_WINDOW = 0.6  # modes m with |h m - Re z| <= MODE_WINDOW
RATE = 1.0         # p = tau + RATE * x xi
HALF_LENGTH = 1.0  # x runs over [-HALF_LENGTH, HALF_LENGTH]
N_Z = 11           # points of z_grid
N_GRID = 256       # quantize_model's default grid, the builder's floor


class ResolventError(LoxokitError):
    pass


class SingularAtZ(ResolventError):
    pass


class ModeWindowTooNarrow(ResolventError):
    """The mode window around Re z holds no mode, or clips one that sets
    sigma_min."""


@dataclass
class AbsorbingProfile:
    """Absorption shape a(x): 0 for |x| <= rho0, 1 for |x| >= rho1.

    `floor` lifts the profile pointwise (a = max(step, floor)); floor = 1
    gives uniform absorption for sanity checks. strength is the prefactor
    C of the -i h C a(x) term.
    """

    rho0: float = 0.3
    rho1: float = 0.6
    strength: float = 10.0
    floor: float = 0.0

    def __post_init__(self):
        if not 0 < self.rho0 < self.rho1:
            raise ValueError(f"need 0 < rho0 < rho1, not rho0 = {self.rho0}, "
                             f"rho1 = {self.rho1}")
        if not 0 <= self.floor <= 1:
            raise ValueError(f"floor must lie in [0, 1], not {self.floor}")
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"strength must lie in [0, inf), not "
                             f"{self.strength}")

    def __call__(self, x):
        step = plateau_step(x, self.rho0, self.rho1)
        return np.maximum(step, self.floor)


@dataclass
class DiscretizedOperator:
    h: float
    rate: float
    n_modes: int
    n_grid: int
    profile: AbsorbingProfile
    x: np.ndarray = field(repr=False)
    spacing: float = 0.0
    s_off: np.ndarray = field(default=None, repr=False)   # S upper diagonal
    absorb: np.ndarray = field(default=None, repr=False)  # h * C * a(x_i)


def _check_h(h):
    if not 0 < h <= 1:
        raise ValueError(f"h must lie in (0, 1], not {h}")


def quantize_model(h, rate=RATE, n_grid=N_GRID, half_length=HALF_LENGTH,
                   profile=None):
    """Assemble the per-mode data for the model operator."""
    _check_h(h)
    check_positive(rate, "rate")
    check_positive(half_length, "half_length")
    profile = profile if profile is not None else AbsorbingProfile()
    if profile.rho1 >= half_length:
        raise ValueError(
            f"half_length must exceed the absorption plateau rho1 = "
            f"{profile.rho1}, not {half_length}")
    n_modes = 2 * int(math.ceil(1.6 / h))
    if n_modes < 32 or n_grid < 32:
        raise ValueError(f"need n_grid >= 32 and h small enough for 32 "
                         f"modes, got n_grid={n_grid} and {n_modes} modes")
    if n_grid % 2:
        raise ValueError(f"n_grid must be even, not {n_grid}: the sweeps "
                         "split the grid into its two mirror halves")
    dx = 2.0 * half_length / (n_grid + 1)
    # half-integer offsets are exact, so x is bitwise antisymmetric and
    # absorb, s_off and even cutoffs are bitwise mirror images
    x = dx * (np.arange(n_grid) - (n_grid - 1) / 2)
    # sym(x hD): Hermitian, zero diagonal, upper entries -i h (x_j+x_{j+1})/(4 dx)
    s_off = -1j * h * (x[:-1] + x[1:]) / (4.0 * dx)
    return DiscretizedOperator(
        h=float(h), rate=float(rate), n_modes=n_modes,
        n_grid=int(n_grid), profile=profile,
        x=x, spacing=dx, s_off=s_off,
        absorb=h * profile.strength * np.asarray(profile(x), dtype=float))


def mode_block(op, m, z):
    """(diag, upper) of the tridiagonal Q_m(z); lower = conj(upper)."""
    diag = (op.h * m - z) * np.ones(op.n_grid, dtype=complex) - 1j * op.absorb
    return diag, op.rate * op.s_off


def sigma_min_block(diag, off):
    """Smallest singular value of a Hermitian-structured tridiagonal block.

    Computed as the smallest positive eigenvalue of the Hermitian banded
    augmentation [[0, Q], [Q^H, 0]] (bandwidth 3 after interleaving), which
    avoids squaring the condition number the way Q^H Q would.
    """
    n = diag.size
    band = np.zeros((4, 2 * n), dtype=complex)
    # distance-1 entries alternate Q_ii and Q_{i,i+1}'s mirror
    band[2, 1::2] = diag
    band[2, 2::2] = off
    # distance-3 entries carry the superdiagonal
    band[0, 3::2] = off
    vals = la.eig_banded(band, lower=False, eigvals_only=True,
                         select="i", select_range=(n, n))
    return float(vals[0])


def _mode_window(op, z, window):
    half = op.n_modes // 2
    lo = max(-half, int(math.ceil((np.real(z) - window) / op.h)))
    hi = min(half - 1, int(math.floor((np.real(z) + window) / op.h)))
    if lo > hi:
        raise ModeWindowTooNarrow(
            "mode window is empty; increase window")
    return range(lo, hi + 1)


# Sweep points closer than LATTICE_TOL * h in w share one evaluation.
LATTICE_TOL = 1e-12


def _right_half(op, phi):
    """(absorb, s_off, phi) restricted to the half-line block x > 0.

    Raises unless the data are exact mirror images about x = 0, which is
    what makes the half-line block carry every singular value of Q_m(z).
    """
    n = op.n_grid
    half = n // 2
    absorb = np.asarray(op.absorb, dtype=float)
    s_off = np.asarray(op.s_off)
    phi = np.asarray(phi, dtype=float)
    if not (n % 2 == 0 and s_off[half - 1] == 0 and phi.size == n
            and np.array_equal(absorb, absorb[::-1])
            and np.array_equal(s_off, -s_off[::-1])
            and np.array_equal(phi, phi[::-1])):
        raise ResolventError(
            "operator data are not mirror images about x = 0, so the "
            "half-line sweeps do not apply")
    return absorb[half:], s_off[half:], phi[half:]


def _tridiag_factor(diag, off, lower):
    fact = lapack.zgttrf(lower, diag, off)
    if fact[-1] != 0:
        raise SingularAtZ("tridiagonal factorization broke down")
    return fact[:-1]


def _tridiag_solve(fact, b, trans="N"):
    dl, d, du, du2, ipiv = fact
    x, info = lapack.zgttrs(dl, d, du, du2, ipiv, b, trans=trans)
    if info != 0:
        raise SingularAtZ("tridiagonal solve failed")
    return x


# Lanczos stops once the Ritz residual r is at most RITZ_TOL times the Ritz
# value theta. An eigenvalue then lies within r of theta, and within r^2/gap
# when the rest of the spectrum is gap away: the values agree with dense
# norms to ~1e-12 even where the top singular values cluster.
RITZ_TOL = 1e-6


def _lanczos_norm(fact, phi, v0):
    """||Q^{-1} diag(phi)|| by Lanczos on A = diag(phi) Q^{-H} Q^{-1}
    diag(phi); returns (value, top Ritz vector).

    The start vector is phi plus, when given, the unit vector v0 (the
    previous sweep point's top Ritz vector) in equal parts. A warm vector
    alone can be an eigenvector of A that is not the top one: where the
    absorption is constant the Q(w) are normal and share their singular
    vectors, so the last top vector is an exact eigenvector of the next A
    and a Krylov space started from it never leaves it. The phi part keeps
    every direction phi reaches in the space. Each step applies A with two
    tridiagonal solves and reorthogonalizes against the whole basis. The
    top Ritz value theta of the Lanczos tridiagonal is a lower bound on
    ||A||; the iteration stops when the residual beta_k |e_k^T s| of its
    Ritz vector is at most RITZ_TOL * theta, or when the basis spans an
    invariant subspace, at the latest at the block size n, where theta is
    exact. The value is sqrt(theta).
    """
    n = phi.size
    nphi = math.sqrt(np.dot(phi, phi))
    if nphi == 0:
        return 0.0, v0
    v = phi / nphi
    if v0 is not None:
        # v0's phase is free: align it with phi so the two cannot cancel
        c = np.vdot(v0, v)
        v = v + (v0 * (c / abs(c)) if c != 0 else v0)
    # basis[0] holds the Lanczos vectors, basis[1] their conjugates, which
    # give the projection coefficients in one reduction; rows grow on demand
    basis = np.empty((2, min(n, 16), n), dtype=complex)
    basis[0, 0] = v / math.sqrt(np.vdot(v, v).real)
    np.conjugate(basis[0, 0], out=basis[1, 0])
    alpha = np.empty(n)
    beta = np.zeros(n)
    for k in range(n):
        w = phi * _tridiag_solve(
            fact, _tridiag_solve(fact, phi * basis[0, k]), trans="C")
        # one classical Gram-Schmidt pass against the whole basis, as
        # elementwise reductions: BLAS matrix-vector products here and for
        # the Ritz vector round differently and change the written norms
        V = basis[0, :k + 1]
        coef = np.einsum("ij,j->i", basis[1, :k + 1], w)
        w -= np.add.reduce(coef[:, None] * V)
        alpha[k] = coef[k].real
        b = math.sqrt(np.vdot(w, w).real)
        # dstev reads max(k, 1) off-diagonal entries
        theta, s, info = lapack.dstev(alpha[:k + 1], beta[:max(k, 1)])
        if info != 0:
            raise ResolventError("Lanczos tridiagonal eigensolve failed")
        if b * abs(s[-1, -1]) <= RITZ_TOL * theta[-1] or k == n - 1:
            ritz = np.add.reduce(s[:, -1, None] * V)
            return math.sqrt(max(theta[-1], 0.0)), ritz
        beta[k] = b
        if k + 1 == basis.shape[1]:
            grow = min(k + 1, n - k - 1)
            basis = np.concatenate(
                [basis, np.empty((2, grow, n), dtype=complex)], axis=1)
        np.multiply(w, 1.0 / b, out=basis[0, k + 1])
        np.conjugate(basis[0, k + 1], out=basis[1, k + 1])


class _NormSweep:
    """Cached g(w) = ||Q_R(w)^{-1} diag(phi_R)|| for one operator and one
    even weight phi on the grid.

    Q_m(z) depends on (m, z) only through w = z - h m, so scans over many
    (z, m) pairs collapse to one function of w on the half-line block
    x > 0, which carries every singular value of Q_m(z) (see the module
    docstring). phi = 1 gives g = 1/sigma_min; the default cutoff gives the
    cutoff norm. Keys are w snapped to steps of LATTICE_TOL * h; the first
    w seen for a key is the point evaluated for it. values() runs one
    Lanczos iteration (_lanczos_norm) per missing key in increasing w, each
    started from phi and the top Ritz vector of the one before, and
    converged to its Ritz residual, so the values are right uncertified
    too. certified() gives the exact
    banded-eigensolver sigma_min at a key, once per key. The cache is not
    locked: use one sweep per thread.
    """

    def __init__(self, op, phi):
        absorb, s_off, self.phi = _right_half(op, phi)
        self.diag0 = -1j * absorb
        self.off = op.rate * s_off
        self.lower = np.conj(self.off)
        self.step = LATTICE_TOL * op.h
        self.points = {}
        self.cache = {}
        self.exact = {}

    def _key(self, w):
        key = round(w / self.step)
        self.points.setdefault(key, w)
        return key

    def _diag(self, key):
        return self.diag0 - self.points[key]

    def values(self, w_list):
        keys = [self._key(float(w)) for w in w_list]
        state = None
        for key in sorted(set(keys).difference(self.cache)):
            fact = _tridiag_factor(self._diag(key), self.off, self.lower)
            self.cache[key], state = _lanczos_norm(fact, self.phi, state)
        return np.array([self.cache[key] for key in keys])

    def proves_below(self, w, c):
        """True only if ||Q_R(w)^{-1} diag(phi_R)|| < c is proved.

        c^2 Q Q^H - diag(phi)^2 is positive definite exactly when
        ||diag(phi) Q^{-H}|| = ||Q^{-1} diag(phi)|| < c. For tridiagonal Q
        it is a Hermitian pentadiagonal band, and the proof is that its
        banded Cholesky factorization (zpbtrf) succeeds. In floating point
        a success proves the bound up to the factorization's backward
        error; see PROOF_MARGIN for how the doubled-window check absorbs it.
        """
        d = self.diag0 - w
        u, l = self.off, self.lower
        side = np.zeros(d.size)
        side[:-1] += u.real ** 2 + u.imag ** 2
        side[1:] += l.real ** 2 + l.imag ** 2
        c2 = c * c
        # lower band storage: band[k, j] holds entry (j + k, j)
        band = np.zeros((3, d.size), dtype=complex, order="F")
        band[0] = c2 * (d.real ** 2 + d.imag ** 2 + side) - self.phi ** 2
        band[1, :-1] = c2 * (np.conj(d[:-1]) * l + np.conj(u) * d[1:])
        band[2, :-2] = c2 * (np.conj(u[:-1]) * l[1:])
        _, info = lapack.zpbtrf(band, lower=1, overwrite_ab=1)
        return info == 0

    def certified(self, w):
        """Exact banded-eigensolver sigma_min at the key point of w."""
        key = self._key(float(w))
        if key not in self.exact:
            self.exact[key] = sigma_min_block(self._diag(key), self.off)
        return self.exact[key]


def _window_points(op, z, window):
    """(modes, w = z - h m) over the mode window of real z."""
    ms = np.array(list(_mode_window(op, z, window)))
    return ms, float(np.real(z)) - op.h * ms


def sigma_min_point(op, z, window=MODE_WINDOW, sweep=None):
    """min over Fourier modes of sigma_min(Q_m(z)) and the attaining mode.

    The sweep value at the minimum is certified against the exact banded
    eigensolver; disagreement beyond 1e-6 falls back to certifying every
    mode in the window; with converged sweep values this is a safety net.
    """
    check_positive(window, "mode window")
    if np.imag(z) != 0:
        if sweep is not None:
            raise ValueError("sweep caches are keyed on real z - h m; "
                             "complex z cannot reuse one")
        # complex z breaks the w = z - hm reduction only through a constant
        # imaginary shift; fold it into the absorption
        op_shift = replace(op, absorb=op.absorb + float(np.imag(z)))
        return sigma_min_point(op_shift, float(np.real(z)), window=window)
    sweep = sweep if sweep is not None else _NormSweep(op, np.ones(op.n_grid))
    ms, w_vals = _window_points(op, z, window)
    sigmas = 1.0 / sweep.values(w_vals)
    j = int(np.argmin(sigmas))
    exact = sweep.certified(w_vals[j])
    if abs(exact - sigmas[j]) > 1e-6 * max(exact, 1e-300):
        sigmas = np.array([sweep.certified(w) for w in w_vals])
        j = int(np.argmin(sigmas))
        exact = sigmas[j]
    if exact < 1e-14:
        raise SingularAtZ(f"sigma_min = {exact:.2e} at z = {z}; "
                          "the scan point sits on an eigenvalue")
    return float(exact), int(ms[j])


def cutoff_norm_point(op, z, window=MODE_WINDOW, sweep=None):
    """max over the mode window of ||Q_m(z)^{-1} diag(default_cutoff(op))||
    at real z; sweep, when given, is that weight's _NormSweep."""
    check_positive(window, "mode window")
    if np.imag(z) != 0:
        raise ValueError("cutoff norms are scanned at real z")
    sweep = sweep if sweep is not None else _NormSweep(op, default_cutoff(op))
    return float(sweep.values(_window_points(op, z, window)[1]).max())


def default_cutoff(op):
    """Spatial cutoff vanishing near the orbit x = 0."""
    lo = 0.5 * op.profile.rho0
    return np.asarray(plateau_step(op.x, lo, op.profile.rho0), dtype=float)


@dataclass
class ScanRow:
    h: float
    re_z: float
    im_z: float
    sigma_min: float
    inv_norm: float
    norm_product: float
    cutoff_norm: float
    cutoff_product: float


@dataclass
class ResolventScan:
    rows: list
    window: float
    bands: dict = field(default_factory=dict)


def default_operator_builder(rate=RATE, half_length=HALF_LENGTH):
    """h -> quantize_model(h) on the power-of-two grid that resolves
    symbol-scale frequencies |xi| <~ 4."""
    check_positive(half_length, "half_length")

    def build(h):
        _check_h(h)
        need = 8.0 * half_length / (math.pi * h)
        n_grid = int(max(N_GRID, 2 ** math.ceil(math.log2(need))))
        return quantize_model(h, rate=rate, n_grid=n_grid,
                              half_length=half_length)
    return build


def _scan_one_z(op, z, window, log_h, sweep, cut_sweep):
    s, _ = sigma_min_point(op, z, window=window, sweep=sweep)
    inv_norm = 1.0 / s
    c = cutoff_norm_point(op, z, window=window, sweep=cut_sweep)
    return ScanRow(h=op.h, re_z=float(np.real(z)), im_z=float(np.imag(z)),
                   sigma_min=s, inv_norm=inv_norm,
                   norm_product=inv_norm * op.h / log_h,
                   cutoff_norm=c, cutoff_product=c * op.h / math.sqrt(log_h))


def _w_union(op, z_values, window):
    """Every w = z - h m of the scan; the sweeps merge the repeats."""
    return [float(np.real(z)) - op.h * m for z in z_values
            for m in _mode_window(op, z, window)]


# The doubled-window check proves sigma_min(Q_R(w)) >= floor at a new point
# with proves_below(w, c) at c = (1 - PROOF_MARGIN) / floor. A zpbtrf success
# proves that the computed band plus some E is positive definite, where
# ||E|| <= n eps (c ||Q_R||)^2 up to a small constant (the banded Cholesky
# backward error, plus a few eps of the same size from forming the entries).
# For phi = 1 that gives sigma_min(Q_R)^2 > (1 - ||E||) / c^2, so sigma_min >
# floor sqrt(1 - ||E||) / (1 - PROOF_MARGIN) >= floor whenever ||E|| <=
# PROOF_MARGIN. The check evaluates this rounding bound and falls back to
# the converged sweep when it exceeds PROOF_MARGIN; on the default ladder
# (h = 1/50 ... 1/400) it is at most 1.2e-5. There the new points have
# 1/sigma_min <= 0.18 / floor, so shrinking c by PROOF_MARGIN loses no
# proof; on the a == 1 operator sigma_min is nearly flat in w, the new
# points sit within PROOF_MARGIN of floor, and the sweep decides.
PROOF_MARGIN = 1e-3


def _proved_clear(sweep, w_vals, floor):
    """True if proves_below shows sigma_min(Q_R(w)) >= floor at every w of
    a phi = 1 sweep that the sweep has not evaluated. The evaluated points
    are skipped: the scan's rows read them, and floor sits below the
    smallest row minimum. Evaluates and caches nothing."""
    c = (1 - PROOF_MARGIN) / floor
    q_norm = (np.max(np.abs(sweep.diag0)) + np.max(np.abs(sweep.off))
              + np.max(np.abs(sweep.lower)) + np.max(np.abs(w_vals)))
    if sweep.phi.size * np.finfo(float).eps * (c * q_norm) ** 2 \
            > PROOF_MARGIN:
        return False
    return all(sweep.proves_below(w, c) for w in w_vals
               if round(w / sweep.step) not in sweep.cache)


def z_grid(n_z):
    """n_z real spectral parameters evenly spread over [-0.5, 0.5]."""
    return np.linspace(-0.5, 0.5, n_z)


def sigma_min_scan(op_builder, h_list, z_values=None, window=MODE_WINDOW):
    """Scan sigma_min(Q(z)) and the cutoff norm over z for each h;
    normalized products and their across-h bands summarize the scaling.

    z_values None scans z_grid(N_Z).

    Per h, every (z, mode) pair reduces to w = z - h*m, so the scan first
    fills one warm-started sweep over the union of w values and the per-z
    rows become cache lookups; the z of the default grid differ by
    multiples of h, so their rows share sweep points and certifications.
    For each h, the binding z is then re-checked with a doubled mode
    window; a smaller minimum there means the window clipped a relevant
    mode, which raises instead of silently reporting a wrong norm. The
    check proves sigma_min >= (1 - 1e-9) sigma* at every point the doubled
    window adds with one banded Cholesky factorization each
    (_NormSweep.proves_below); only when a point is not proved does it run
    the converged sweep over the doubled window, and it raises on the same
    condition either way.
    """
    check_positive(window, "mode window")
    if z_values is None:
        z_values = z_grid(N_Z)
    h_list = check_entries(h_list, "h", "h")
    z_values = check_entries(z_values, "z", "z")
    if np.max(np.abs(np.imag(z_values))) > 0:
        raise ValueError("scan grid must be real; use sigma_min_point for "
                         "individual complex z")
    rows = []
    per_h_max = {}
    per_h_max_cut = {}
    for h in h_list:
        op = op_builder(h)
        log_h = math.log(1.0 / op.h)
        sweep = _NormSweep(op, np.ones(op.n_grid))
        cut_sweep = _NormSweep(op, default_cutoff(op))
        w_all = _w_union(op, z_values, window)
        sweep.values(w_all)
        cut_sweep.values(w_all)
        h_rows = [_scan_one_z(op, z, window, log_h, sweep, cut_sweep)
                  for z in z_values]
        worst = max(h_rows, key=lambda r: r.norm_product)
        floor = worst.sigma_min * (1 - 1e-9)
        _, w_wide = _window_points(op, worst.re_z, 2 * window)
        if not _proved_clear(sweep, w_wide, floor):
            wide, _ = sigma_min_point(op, worst.re_z, window=2 * window,
                                      sweep=sweep)
            if wide < floor:
                raise ModeWindowTooNarrow(
                    f"mode window {window} too narrow at h = {h}: doubling "
                    f"it lowered sigma_min by "
                    f"{1 - wide / worst.sigma_min:.2e} relative, from "
                    f"{worst.sigma_min:.9e} to {wide:.9e}")
        rows.extend(h_rows)
        per_h_max[h] = worst.norm_product
        per_h_max_cut[h] = max(r.cutoff_product for r in h_rows)
    bands = {"inv_norm": _band(per_h_max), "cutoff": _band(per_h_max_cut)}
    return ResolventScan(rows=rows, window=window, bands=bands)


def _band(per_h):
    lo, hi = min(per_h.values()), max(per_h.values())
    return {"per_h": dict(per_h), "min": lo, "max": hi,
            "ratio": hi / lo if lo > 0 else float("inf")}


GLOBAL_ABSORPTION_Z = 0.25  # spectral parameter of the a == 1 check


def global_absorption_check(h):
    """With a == 1 everywhere, the numerical range pins sigma_min to h*C
    (default operator and mode window, z = GLOBAL_ABSORPTION_Z)."""
    op = quantize_model(h, profile=AbsorbingProfile(floor=1.0))
    s, m = sigma_min_point(op, GLOBAL_ABSORPTION_Z)
    expected = h * op.profile.strength
    return {"h": h, "sigma_min": s, "expected": expected,
            "rel_err": abs(s - expected) / expected, "mode": m}


# ---------------------------------------------------------------------------
# harmonic-oscillator lower bound
# ---------------------------------------------------------------------------

def quantize_separated_symbol(m_values, g_values):
    """Grid quantization of a(y, eta) = m(y) + g(eta): multiplication plus
    the Fourier multiplier F^{-1} diag(g) F, which is the circulant of
    ifft(g). For separated symbols this matches the symmetric quantization
    exactly."""
    A = la.circulant(np.fft.ifft(g_values))
    A[np.arange(m_values.size), np.arange(m_values.size)] += m_values
    H = 0.5 * (A + A.conj().T)
    if la.norm(A - H) > 1e-10 * max(1.0, la.norm(H)):
        raise ResolventError("separated-symbol quantization lost Hermitianity")
    return H


HARM_OSC_HALF_WIDTH = 6.0  # the y grid of harm_osc_lower_bound


def harm_osc_lower_bound(h_tilde_list, n_grid=512, weighted=True):
    """Smallest eigenvalue of the quantized nonnegative symbol
    a0 = y^2/(1+y^2) + eta^2/(1+eta^2) (or the pure harmonic y^2 + eta^2),
    reported relative to h_tilde. An empty or repeating list, or an
    h_tilde that is not finite and > 0, is a ValueError before any solve."""
    h_tilde_list = check_entries(h_tilde_list, "h_tilde")
    for h_tilde in h_tilde_list:
        check_positive(h_tilde, "h_tilde")
    rows = []
    dy = 2.0 * HARM_OSC_HALF_WIDTH / n_grid
    for h_tilde in h_tilde_list:
        if HARM_OSC_HALF_WIDTH / n_grid > 0.25 * math.sqrt(h_tilde):
            raise GridTooCoarse(
                f"grid spacing does not resolve sqrt(h_tilde) = "
                f"{math.sqrt(h_tilde):.3f}")
        y = -HARM_OSC_HALF_WIDTH + dy * np.arange(n_grid)
        eta = h_tilde * 2.0 * np.pi * np.fft.fftfreq(n_grid, d=dy)
        if weighted:
            m_vals = y ** 2 / (1.0 + y ** 2)
            g_vals = eta ** 2 / (1.0 + eta ** 2)
        else:
            m_vals = y ** 2
            g_vals = eta ** 2
        H = quantize_separated_symbol(m_vals, g_vals)
        lam_min = float(la.eigvalsh(H, subset_by_index=(0, 0))[0])
        rows.append({"h_tilde": float(h_tilde), "lam_min": lam_min,
                     "ratio": lam_min / h_tilde})
    return rows
