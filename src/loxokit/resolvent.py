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

Both scanned quantities are one number per mode window, the largest
||Q_m(z)^{-1} diag(phi)|| over its modes: phi = 1 gives 1/sigma_min and
phi = default_cutoff gives the cutoff norm. One sweep class finds it for
either phi by branch and bound. It converges the window's best-scored mode
with one Lanczos iteration, to a Ritz residual rather than a step count,
proves every other mode below the best converged value with one banded
Cholesky factorization, and converges only the modes it cannot prove. So
the argmax over modes is right before the banded eigensolver certifies
it, and a window converges a few modes rather than all of them.

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


def _lanczos_norm(fact, phi):
    """||Q^{-1} diag(phi)|| by Lanczos on A = diag(phi) Q^{-H} Q^{-1}
    diag(phi), started from phi.

    Each step applies A with two tridiagonal solves and reorthogonalizes
    against the whole basis. The top Ritz value theta of the Lanczos
    tridiagonal is a lower bound on ||A||; the iteration stops when the
    residual beta_k |e_k^T s| of its Ritz vector is at most RITZ_TOL *
    theta, or when the basis spans an invariant subspace, at the latest at
    the block size n, where theta is exact. The value is sqrt(theta).
    """
    n = phi.size
    nphi = math.sqrt(np.dot(phi, phi))
    if nphi == 0:
        return 0.0
    # basis[0] holds the Lanczos vectors, basis[1] their conjugates, which
    # give the projection coefficients in one reduction; rows grow on demand
    basis = np.empty((2, min(n, 16), n), dtype=complex)
    basis[0, 0] = phi / nphi
    np.conjugate(basis[0, 0], out=basis[1, 0])
    alpha = np.empty(n)
    beta = np.zeros(n)
    for k in range(n):
        w = phi * _tridiag_solve(
            fact, _tridiag_solve(fact, phi * basis[0, k]), trans="C")
        # one classical Gram-Schmidt pass against the whole basis, as
        # elementwise reductions: BLAS matrix-vector products here round
        # differently and change the written norms
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
            return math.sqrt(max(theta[-1], 0.0))
        beta[k] = b
        if k + 1 == basis.shape[1]:
            grow = min(k + 1, n - k - 1)
            basis = np.concatenate(
                [basis, np.empty((2, grow, n), dtype=complex)], axis=1)
        np.multiply(w, 1.0 / b, out=basis[0, k + 1])
        np.conjugate(basis[0, k + 1], out=basis[1, k + 1])


# A proof of g(w) < bound runs proves_below(w, c) at c = (1 - r) bound.
# A zpbtrf success proves that the computed band plus some E is positive
# definite, where ||E|| is a few tens of eps (c q)^2 (the banded Cholesky
# backward error plus the rounding of the entries) and q = q0 + |w| bounds
# ||Q_R(w)||; r0 = max(n, 64) eps (bound q)^2 bounds it on every half block
# of n points. For phi = 1, r = r0: sigma_min(Q_R)^2 > (1 - r) / c^2, so
# g < c / sqrt(1 - r) < bound. For a weight 0 <= phi <= 1 the success gives
# g^2 < c^2 + r0 ||Q_R(w)^{-1}||^2, so r = r0 max(1, (G / bound)^2) for a
# G >= ||Q_R(w)^{-1}|| gives g^2 < (1 - r + r^2) bound^2 < bound^2; G may
# undershoot ||Q_R(w)^{-1}|| by a relative 1e-12 (a tie below) and the
# proof holds. A weighted proof with no G is not tried. No proof is tried
# where r exceeds PROOF_MARGIN; such a point is converged instead. On the
# default ladder (h = 1/50 ... 1/400) r is at most 1.2e-5 for phi = 1 and
# 6.9e-6 for the cutoff.
# Converged values within RITZ_TOL^2 relative of each other tie, such as
# those of the mirror points w and -w (Q_R(-w) = -conj Q_R(w), so g(-w) =
# g(w)): peak prunes only below RITZ_TOL^2 under its best value, so every
# point that may tie with the peak is converged, and the first in window
# order wins.
PROOF_MARGIN = 1e-3


class _NormSweep:
    """Cached g(w) = ||Q_R(w)^{-1} diag(phi_R)|| for one operator and one
    even weight phi on the grid.

    Q_m(z) depends on (m, z) only through w = z - h m, so scans over many
    (z, m) pairs collapse to one function of w on the half-line block
    x > 0, which carries every singular value of Q_m(z) (see the module
    docstring). phi = 1 gives g = 1/sigma_min; the default cutoff gives the
    cutoff norm. Keys are w snapped to steps of LATTICE_TOL * h; the first
    w seen for a key is the point evaluated for it. A key is converged by
    one Lanczos iteration (_lanczos_norm), to its Ritz residual, so its
    value is right uncertified too. peak() finds the largest g of a window
    by branch and bound: it converges the points it cannot prove below the
    best converged value and proves the rest below it with one banded
    Cholesky each (proves_below). A memo keeps the bound each key was
    proved below, so later windows skip those proofs. certified() gives the
    exact banded-eigensolver sigma_min at a key, once per key. The caches
    are not locked: use one sweep per thread.
    """

    def __init__(self, op, phi):
        absorb, s_off, self.phi = _right_half(op, phi)
        self.diag0 = -1j * absorb
        self.off = op.rate * s_off
        self.lower = np.conj(self.off)
        # ||Q_R(w)|| <= q0 + |w|
        self.q0 = (np.max(np.abs(self.diag0)) + np.max(np.abs(self.off))
                   + np.max(np.abs(self.lower)))
        self.unit = bool(np.all(self.phi == 1))
        # the scoring weight and the w-independent parts of proves_below's
        # band, built once per sweep
        self.phi2 = self.phi ** 2
        self.side = np.zeros(self.phi.size)
        self.side[:-1] += self.off.real ** 2 + self.off.imag ** 2
        self.side[1:] += self.lower.real ** 2 + self.lower.imag ** 2
        self.band2 = np.conj(self.off[:-1]) * self.lower[1:]
        self.step = LATTICE_TOL * op.h
        self.points = {}
        self.cache = {}
        self.proved = {}
        self.exact = {}

    def _key(self, w):
        key = round(w / self.step)
        self.points.setdefault(key, w)
        return key

    def _diag(self, key):
        return self.diag0 - self.points[key]

    def _factor(self, key):
        return _tridiag_factor(self._diag(key), self.off, self.lower)

    def _converge(self, key):
        self.cache[key] = _lanczos_norm(self._factor(key), self.phi)
        return self.cache[key]

    def peak(self, w_list, inv_max=None):
        """(index, value) of the largest g over w_list; of values within
        RITZ_TOL^2 relative of the largest, the first in list order (see
        PROOF_MARGIN). inv_max, a bound on ||Q_R(w)^{-1}|| over w_list,
        lets a weighted sweep prune; without it a weighted sweep converges
        every point.

        Each missing point that no memo entry already puts below the best
        cached value is scored with ||Q^{-1} diag(phi) phi||: ||phi|| times
        the Ritz value of the Lanczos start, a lower bound on g. In
        decreasing score, the first point is converged, and each later one
        is dropped when it is proved below the tie level of the best value
        converged so far (_below) and converged otherwise. So a dropped
        point cannot tie with the returned value, and the result is that
        of a full sweep that converges every point.
        """
        keys = [self._key(float(w)) for w in w_list]
        tie = 1 - RITZ_TOL ** 2
        best = max((self.cache[key] for key in keys if key in self.cache),
                   default=0.0)
        todo = sorted(key for key in set(keys).difference(self.cache)
                      if not self.proved.get(key, math.inf) <= tie * best)
        # a converged point is factored again: holding the factors of every
        # scored point at once costs more memory than the few refactors
        score = {key: np.linalg.norm(_tridiag_solve(self._factor(key),
                                                    self.phi2))
                 for key in todo}
        for key in sorted(todo, key=score.get, reverse=True):
            if best == 0 or not self._below(key, tie * best, inv_max):
                best = max(best, self._converge(key))
        vals = [self.cache.get(key, -math.inf) for key in keys]
        top = max(vals)
        j = next(i for i, v in enumerate(vals) if v >= tie * top)
        return j, vals[j]

    def _below(self, key, bound, inv_max=None):
        """True if g < bound at key is proved, rounding included (see
        PROOF_MARGIN). A proof is memoized per key."""
        if self.proved.get(key, math.inf) <= bound:
            return True
        w = self.points[key]
        r = max(self.phi.size, 64) * np.finfo(float).eps \
            * (bound * (self.q0 + abs(w))) ** 2
        if not self.unit:
            if inv_max is None:
                return False
            r *= max(1.0, (inv_max / bound) ** 2)
        if r > PROOF_MARGIN or not self.proves_below(w, (1 - r) * bound):
            return False
        self.proved[key] = bound
        return True

    def proves_below(self, w, c):
        """True only if ||Q_R(w)^{-1} diag(phi_R)|| < c is proved.

        c^2 Q Q^H - diag(phi)^2 is positive definite exactly when
        ||diag(phi) Q^{-H}|| = ||Q^{-1} diag(phi)|| < c. For tridiagonal Q
        it is a Hermitian pentadiagonal band, and the proof is that its
        banded Cholesky factorization (zpbtrf) succeeds. In floating point
        a success proves the bound up to the factorization's backward
        error; see PROOF_MARGIN for how _below absorbs it.
        """
        d = self.diag0 - w
        l = self.lower  # = conj(off)
        c2 = c * c
        # lower band storage: band[k, j] holds entry (j + k, j)
        band = np.zeros((3, d.size), dtype=complex, order="F")
        band[0] = c2 * (d.real ** 2 + d.imag ** 2 + self.side) - self.phi2
        band[1, :-1] = c2 * (np.conj(d[:-1]) * l + l * d[1:])
        band[2, :-2] = c2 * self.band2
        _, info = lapack.zpbtrf(band, lower=1, overwrite_ab=1)
        return info == 0

    def certified(self, w):
        """Exact banded-eigensolver sigma_min at the key point of w."""
        key = self._key(float(w))
        if key not in self.exact:
            self.exact[key] = sigma_min_block(self._diag(key), self.off)
        return self.exact[key]


def _window_points(op, z, window):
    """(modes, w = z - h m) over the mode window of real z: the modes m of
    the model with |h m - z| <= window. An empty window raises."""
    half = op.n_modes // 2
    lo = max(-half, int(math.ceil((np.real(z) - window) / op.h)))
    hi = min(half - 1, int(math.floor((np.real(z) + window) / op.h)))
    if lo > hi:
        raise ModeWindowTooNarrow(
            "mode window is empty; increase window")
    ms = np.arange(lo, hi + 1)
    return ms, float(np.real(z)) - op.h * ms


def sigma_min_point(op, z, window=MODE_WINDOW, sweep=None):
    """min over Fourier modes of sigma_min(Q_m(z)) and the attaining mode.

    The mode is the sweep's peak of 1/sigma_min over the window, which
    converges a few modes and proves the rest below them; of modes that
    tie, the first in window order. Its value is certified against the
    exact banded eigensolver; disagreement beyond 1e-6 falls back to
    certifying every mode in the window; with converged sweep values this
    is a safety net.
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
    j, g = sweep.peak(w_vals)
    exact = sweep.certified(w_vals[j])
    if abs(exact - 1.0 / g) > 1e-6 * max(exact, 1e-300):
        sigmas = np.array([sweep.certified(w) for w in w_vals])
        j = int(np.argmin(sigmas))
        exact = sigmas[j]
    if exact < 1e-14:
        raise SingularAtZ(f"sigma_min = {exact:.2e} at z = {z}; "
                          "the scan point sits on an eigenvalue")
    return float(exact), int(ms[j])


def cutoff_norm_point(op, z, window=MODE_WINDOW, sweep=None,
                      sigma_min=None):
    """max over the mode window of ||Q_m(z)^{-1} diag(default_cutoff(op))||
    at real z; sweep, when given, is that weight's _NormSweep. sigma_min,
    when given, is that of sigma_min_point over the same window; it bounds
    every ||Q_m(z)^{-1}|| there, which lets the sweep prune modes (see
    PROOF_MARGIN). Without it every mode is converged."""
    check_positive(window, "mode window")
    if np.imag(z) != 0:
        raise ValueError("cutoff norms are scanned at real z")
    sweep = sweep if sweep is not None else _NormSweep(op, default_cutoff(op))
    inv_max = None if sigma_min is None else 1.0 / sigma_min
    return float(sweep.peak(_window_points(op, z, window)[1], inv_max)[1])


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
    c = cutoff_norm_point(op, z, window=window, sweep=cut_sweep,
                          sigma_min=s)
    return ScanRow(h=op.h, re_z=float(np.real(z)), im_z=float(np.imag(z)),
                   sigma_min=s, inv_norm=inv_norm,
                   norm_product=inv_norm * op.h / log_h,
                   cutoff_norm=c, cutoff_product=c * op.h / math.sqrt(log_h))


def z_grid(n_z):
    """n_z real spectral parameters evenly spread over [-0.5, 0.5]."""
    return np.linspace(-0.5, 0.5, n_z)


def sigma_min_scan(op_builder, h_list, z_values=None, window=MODE_WINDOW):
    """Scan sigma_min(Q(z)) and the cutoff norm over z for each h;
    normalized products and their across-h bands summarize the scaling.

    z_values None scans z_grid(N_Z).

    Per h, every (z, mode) pair reduces to w = z - h*m, so each weight
    has one sweep for all z, and each row reads its window's peak from it.
    The z of the default grid differ by multiples of h, so their windows
    share sweep points, converged values, proofs and certifications. For
    each h, the binding z is then re-checked with a doubled mode window; a
    smaller minimum there means the window clipped a relevant mode, which
    raises instead of silently reporting a wrong norm. The check is one
    more sigma_min_point read on the same sweep: the doubled window's peak
    starts from the values the rows converged, and a new point is
    converged only when it cannot be proved below that peak.
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
        h_rows = [_scan_one_z(op, z, window, log_h, sweep, cut_sweep)
                  for z in z_values]
        worst = max(h_rows, key=lambda r: r.norm_product)
        wide, _ = sigma_min_point(op, worst.re_z, window=2 * window,
                                  sweep=sweep)
        if wide < worst.sigma_min * (1 - 1e-9):
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
    h_tilde that is not finite and > 0, is a ValueError, and an h_tilde
    that the grid does not resolve is GridTooCoarse, before any solve."""
    h_tilde_list = check_entries(h_tilde_list, "h_tilde")
    for h_tilde in h_tilde_list:
        check_positive(h_tilde, "h_tilde")
        if HARM_OSC_HALF_WIDTH / n_grid > 0.25 * math.sqrt(h_tilde):
            raise GridTooCoarse(
                f"grid spacing does not resolve sqrt(h_tilde) = "
                f"{math.sqrt(h_tilde):.3f}")
    rows = []
    dy = 2.0 * HARM_OSC_HALF_WIDTH / n_grid
    for h_tilde in h_tilde_list:
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
