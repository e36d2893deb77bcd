"""Damped wave equation on a warped-product surface with a hyperbolic neck.

The surface is ds^2 = dr^2 + f(r)^2 dtheta^2 with r on a circle of
circumference PERIOD and a warp f from cutoffs.WARPS whose slope
vanishes where the circle wraps. The default "neck" warp equals cosh r
near the neck r = 0 and flattens to 1 before the period boundary, so the
closed geodesic at r = 0 is hyperbolic and the manifold is smooth and
compact. Damping a(r) >= 0 vanishes on a neighborhood of the neck.

Separating u = v(r) e^{i k theta} turns (d_t^2 - Lap + 2 a d_t) u = 0
into, per angular mode k,

    v_tt + L_k v + 2 a v_t = 0,
    L_k = -(1/f) (f v')' + k^2 / f^2,

with periodic boundary. L_k is symmetric in the f-weighted inner
product; conjugating by sqrt(f) makes it a plain symmetric matrix, which
is the frame used internally. Stationary solutions e^{i tau t} give the
quadratic pencil P(tau) = -tau^2 + L_k + 2 i a tau whose roots are the
mode's eigenfrequencies; decaying modes sit in the upper half plane.

The angular modes are independent, so eigenfrequency_scan solves its
modes, and decay_report marches its modes, concurrently on a thread pool
of one worker per usable CPU (at most one per mode). BLAS runs on the one
thread that importing loxokit pins it to (_blas), which was measured
faster at these sizes and makes each mode's result independent of
OPENBLAS_NUM_THREADS and of the worker count. The kernels that carry the
time, numpy's dgeev and matrix products, release the GIL, so the workers
run in parallel; scipy's expm, one per march, does not.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .cutoffs import DAMPING_INNER, get_warp, neck_damping
from .errors import LoxokitError, StepFailure, check_modes, check_positive
from .spectra import radial_stencil


class DampedWaveError(LoxokitError):
    pass


class LinearizationIllConditioned(DampedWaveError):
    pass


# the default problem; its damping is cutoffs.neck_damping()
WARP = "neck"
N_GRID = 192         # grid points per period
EPSILON = 0.1        # regularity of the data norm H^epsilon
# angular modes that the eigenfrequency scan solves
MODES = tuple(range(41))
# angular modes whose energies the decay fit superposes, and its horizon
DECAY_MODES = (0, 1, 2, 5, 10, 20, 40)
T_MAX = 60.0
PERIOD = 6.0         # circumference of the r circle
RESIDUAL_TOL = 1e-6  # relative eigenpair residual bound of eigenfrequencies
TRACE_TOL = 1e-10    # relative bound on |sum of roots - generator trace|
N_LOW = 24           # eigenmodes that default_initial excites, per mode
DT = 0.004           # evolve's default step and decay_report's largest


@dataclass
class DampedWaveProblem:
    """Separable damped wave setup on one warped period.

    profile names a warp of cutoffs.WARPS; its slope must be 0 at
    r = +-PERIOD/2, so the warp closes up smoothly on the circle. damping
    is a callable of r on the fundamental domain [-PERIOD/2, PERIOD/2).
    dead_zone_radius declares where damping must vanish (None skips that
    check, for constant-damping oracles). epsilon, the regularity of the
    data norm H^epsilon that decay reports measure against, must be
    finite and > 0.
    """

    profile: str = WARP
    damping: object = None
    n_grid: int = N_GRID
    epsilon: float = EPSILON
    dead_zone_radius: float = DAMPING_INNER
    r: np.ndarray = field(init=False, repr=False)
    spacing: float = field(init=False)
    f: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_grid < 32:
            raise ValueError(f"n_grid must be at least 32, not {self.n_grid}")
        check_positive(self.epsilon, "epsilon")
        warp = get_warp(self.profile)
        slopes = warp.slope(np.array([-0.5, 0.5]) * PERIOD)
        if np.any(slopes != 0):
            raise ValueError(
                f"warp {self.profile!r} has slopes {slopes.tolist()} at "
                f"r = -+{0.5 * PERIOD}, so it does not close up "
                f"smoothly on the circle of period {PERIOD}")
        if self.damping is None:
            self.damping = neck_damping()
        n = self.n_grid
        self.spacing = PERIOD / n
        self.r = -0.5 * PERIOD + self.spacing * np.arange(n)
        self.f = np.asarray(warp.f(self.r), dtype=float)
        self.a = np.asarray(self.damping(self.r), dtype=float)
        if np.any(self.f <= 0):
            i = np.argmin(self.f)
            raise ValueError(f"warp profile must be positive, not "
                             f"{self.f[i]} at r = {self.r[i]}")
        if np.any(self.a < -1e-15):
            i = np.argmin(self.a)
            raise ValueError(f"damping must be nonnegative, not "
                             f"{self.a[i]} at r = {self.r[i]}")
        self.a = np.maximum(self.a, 0.0)
        if self.dead_zone_radius is not None:
            dead = np.abs(self.r) <= self.dead_zone_radius
            if np.any(self.a[dead] > 1e-15):
                i = np.argmax(np.where(dead, self.a, 0.0))
                raise ValueError(
                    f"damping must vanish for |r| <= dead_zone_radius = "
                    f"{self.dead_zone_radius}, not {self.a[i]} at "
                    f"r = {self.r[i]}")


@dataclass
class ModePencil:
    """Mode k's pencil P(tau) = -tau^2 + zeroth + 2i diag(a) tau in the
    sqrt(f)-symmetrized frame: zeroth is the real matrix similar to L_k,
    and a is read from problem. zeroth is symmetric only to rounding
    (radial_stencil's upper and lower entries round apart, by about
    2e-13 at n_grid 192): mode_frame's eigh reads its lower triangle,
    while the first-order generator reads both triangles."""

    k: int
    zeroth: np.ndarray
    problem: DampedWaveProblem


def assemble_pencil(problem, k):
    """Symmetrized operator of mode k: radial_stencil on the periodic
    grid, as the dense matrix that eigh, dgeev and expm take."""
    diag, upper, lower, corners = radial_stencil(
        get_warp(problem.profile).f, problem.r, problem.spacing, k,
        periodic=True)
    L = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    L[0, -1], L[-1, 0] = corners
    return ModePencil(k=int(k), zeroth=L, problem=problem)


@dataclass
class ModeFrame:
    """Eigenbasis of one mode's symmetrized operator, with spectral norms.

    pencil is the operator diagonalized, which evolve also marches.
    Coefficients carry the sqrt(spacing) quadrature weight so that
    norm_sq(w, 0) equals the f-weighted L^2 norm of the physical state.
    """

    pencil: ModePencil
    lam: np.ndarray
    basis: np.ndarray

    def coeffs(self, w):
        return (self.basis.T @ w) * math.sqrt(self.pencil.problem.spacing)

    def synthesize(self, c):
        return (self.basis @ c) / math.sqrt(self.pencil.problem.spacing)

    def norm_sq(self, w, s):
        c = self.coeffs(w)
        return float(np.sum((1.0 + self.lam) ** s * np.abs(c) ** 2))


def mode_frame(pencil):
    lam, basis = la.eigh(pencil.zeroth)
    # the k = 0 operator annihilates sqrt(f); tiny negative roundoff
    # eigenvalues would poison sqrt and fractional powers
    lam = np.maximum(lam, 0.0)
    return ModeFrame(pencil=pencil, lam=lam, basis=basis)


@dataclass
class EigenfrequencySet:
    """Pencil roots for one angular mode, with the strip and mirror
    diagnostics that every damped wave spectrum must satisfy."""

    k: int
    frequencies: np.ndarray
    strip_margin: float
    symmetry_defect: float


def first_order_generator(pencil):
    """Real generator A = [[0, I], [-L, -2a]] of the mode's first-order
    system d/dt (w, w_t) = A (w, w_t), in the symmetrized frame.

    An eigenvalue mu of A is i tau for a pencil root tau, so the one real
    matrix serves both the eigenfrequencies and the propagator exp(A dt).
    """
    n = pencil.problem.n_grid
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -pencil.zeroth
    A[n:, n:] = -2.0 * np.diag(pencil.problem.a)
    return A


def eigenfrequencies(pencil):
    """All roots of the mode pencil, tau = -i mu over the eigenvalues mu
    of the real first-order generator (a real eigensolve, numpy's dgeev,
    which releases the GIL so that scan workers solve in parallel).

    Postconditions enforced here: residuals of every eigenpair below
    RESIDUAL_TOL (else LinearizationIllConditioned), containment in the
    strip 0 <= Im tau <= 2 max a, and tau -> -conj(tau) mirror symmetry,
    both within 1e-8. Real arithmetic returns complex mu in exact
    conjugate pairs, so the mirror defect of the returned roots is zero.
    The roots must also sum to the generator's trace, sum tau = 2i sum a,
    within TRACE_TOL of the residual scale: a root set that repeats one
    root in place of another passes the other checks and fails this one.
    """
    n = pencil.problem.n_grid
    a = pencil.problem.a
    L = pencil.zeroth
    mus, vecs = np.linalg.eig(first_order_generator(pencil))
    taus = -1j * mus
    w = vecs[:n]
    norms = la.norm(w, axis=0)
    ok = norms > 1e-12
    resid = la.norm(
        -taus[ok] ** 2 * w[:, ok] + L @ w[:, ok]
        + 2j * taus[ok] * (a[:, None] * w[:, ok]), axis=0) / norms[ok]
    scale = la.norm(L, 1) + 2 * a.max() * np.abs(taus).max() + 1.0
    worst = float(resid.max() / scale)
    if worst > RESIDUAL_TOL or not np.all(ok):
        raise LinearizationIllConditioned(
            f"companion eigenpair residual {worst:.2e} exceeds "
            f"{RESIDUAL_TOL:.0e} for mode {pencil.k}")
    amax = float(a.max())
    im = taus.imag
    margin = float(max(-im.min(), im.max() - 2 * amax))
    if margin > 1e-8:
        raise DampedWaveError(
            f"eigenfrequency strip violated by {margin:.2e} at mode "
            f"{pencil.k}: either the assembly is inconsistent or a "
            "multiple root split under roundoff")
    mirrored = -np.conj(taus)
    defect = float(np.abs(taus - mirrored[:, None]).min(axis=0).max())
    if defect > 1e-8:
        raise DampedWaveError(
            f"spectrum not mirror symmetric (defect {defect:.2e}) at mode "
            f"{pencil.k}")
    trace_defect = abs(taus.sum() - 2j * a.sum()) / scale
    if trace_defect > TRACE_TOL:
        raise DampedWaveError(
            f"roots miss the generator trace by {trace_defect:.2e} of the "
            f"residual scale at mode {pencil.k}: a root is missing or "
            "repeated")
    order = np.lexsort((taus.imag, taus.real))
    return EigenfrequencySet(k=pencil.k, frequencies=taus[order],
                             strip_margin=margin, symmetry_defect=defect)


def _workers(n_tasks):
    """Threads for n_tasks independent modes: one per CPU this process
    may run on, and no more than there are modes."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(n_tasks, cpus))


def _map_modes(fn, *columns):
    """[fn(*row) for row in zip(*columns)], run on _workers threads.

    When a call raises, the calls not yet started are dropped and the
    error reaches the caller once the running ones end.
    """
    rows = list(zip(*columns))
    pool = ThreadPoolExecutor(max_workers=_workers(len(rows)))
    try:
        return list(pool.map(lambda row: fn(*row), rows))
    finally:
        pool.shutdown(cancel_futures=True)


def eigenfrequency_scan(problem, modes=MODES):
    """(sets, strip_margin, mirror_defect): the EigenfrequencySet of each
    of the angular modes, solved concurrently, and the worst strip margin
    (signed: negative when every root is inside the strip) and mirror
    defect over them."""
    sets = _map_modes(
        lambda k: eigenfrequencies(assemble_pencil(problem, k)),
        check_modes(modes, "mode"))
    return (sets, max(es.strip_margin for es in sets),
            max(es.symmetry_defect for es in sets))


def default_initial(problem, frame):
    """Band-limited start: u = 0, velocity (-1)^j / (1 + j) on each of
    the lowest N_LOW eigenmodes j, so every one is excited.
    These data follow the operator's last bits: eigh picks each
    eigenvector's sign, and the basis of mode 40's near-equal pairs
    (two wells beside the neck, ~1e-15 apart at n_grid 192)."""
    n_low = min(N_LOW, frame.lam.size)
    j = np.arange(n_low)
    c = (-1.0) ** j / (1.0 + j)
    w = frame.synthesize(np.concatenate(
        [c, np.zeros(frame.lam.size - n_low)]))
    # synthesize works in the sqrt(f)-symmetrized frame; hand back
    # physical data so evolve's conversion lands on exactly these modes
    return np.zeros(problem.n_grid), w / np.sqrt(problem.f)


@dataclass
class EnergyTrace:
    """Sampled energies of one evolved mode plus the decay-fit summary."""

    k: int
    times: np.ndarray
    e0: np.ndarray
    eeps: np.ndarray
    rate: float
    r_squared: float
    dissipation_residual: float


def _fit_decay(times, energy):
    """Decay rate and R^2 of the least-squares line through log energy
    on [t_max/4, t_max]."""
    sel = times >= 0.25 * times[-1]
    t = times[sel]
    y = np.log(np.maximum(energy[sel], 1e-300))
    if np.ptp(y) < 1e-12:
        return 0.0, 0.0
    slope, intercept = np.polyfit(t, y, 1)
    ss_res = float(np.sum((y - (slope * t + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return -float(slope), 1.0 - ss_res / ss_tot


# products of entries at or above this magnitude stay normal floats
_FLUSH = math.sqrt(np.finfo(float).tiny)


def _flush_tiny(m):
    m[np.abs(m) < _FLUSH] = 0.0
    return m


def power_march(step, x0, n_steps):
    """States step^i x0 for i = 0 .. n_steps, one per row.

    Filled by power doubling: the `have` known rows times
    (step^have)^T give the next block in one matrix product, then
    step^have is squared, so the march costs about log2(n_steps)
    products instead of n_steps matrix-vector steps.

    Each block is written in slabs of at most x0.size rows, so no
    product is larger than a square of the propagator: a taller one
    makes BLAS touch a larger packing buffer, which raised the peak
    resident memory by ~5 MB at 4k steps and bought no time.

    Far from the diagonal, the exponential of the banded generator and
    its powers fall into and below the subnormal range, where products
    run slower (the whole march took twice as long at 25k steps, n_grid
    192). Entries under _FLUSH sit 1e-150 below the O(1) ones, so
    zeroing them moves no sample.
    """
    width = x0.size
    hist = np.empty((n_steps + 1, width))
    hist[0] = x0
    power = _flush_tiny(np.array(step, dtype=float))
    have = 1
    while have <= n_steps:
        m = min(have, n_steps + 1 - have)
        for lo in range(0, m, width):
            hi = min(lo + width, m)
            np.matmul(hist[lo:hi], power.T, out=hist[have + lo:have + hi])
        have += m
        if have <= n_steps:
            power = _flush_tiny(power @ power)
    return hist


def _energies(frame, hist):
    """(e0, eeps, diss) of the states in the rows of hist: the energies
    E^0 and E^eps of each state, at eps = problem.epsilon, and its damping
    power 2 int a w_t^2.

    Computed over slabs of 2 n_grid rows, so the modal coefficients and
    their temporaries are a small part of the history's size instead of
    about twice it, and two concurrent marches fit in the memory of one.
    A short last slab joins the one before it: a product of a few rows
    can take OpenBLAS's small-matrix kernel, whose last bits differ. At
    n_grid 192 every value equals the whole-history one; at n_grid 64,
    where a slab's products are small enough for that kernel and a long
    history's are not, rows of the last partial tile can differ in the
    last bit.
    """
    problem = frame.pencil.problem
    n = problem.n_grid
    rows = hist.shape[0]
    slab = 2 * n
    bounds = [*range(0, slab * max(rows // slab, 1), slab), rows]
    weight = (1 + frame.lam[:, None]) ** problem.epsilon
    e0, eeps, diss = np.empty(rows), np.empty(rows), np.empty(rows)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = hist[lo:hi]
        diss[lo:hi] = 2.0 * problem.spacing * (part[:, n:] ** 2 @ problem.a)
        c = frame.coeffs(part[:, :n].T)
        cd = frame.coeffs(part[:, n:].T)
        modal = cd**2 + frame.lam[:, None] * c**2
        e0[lo:hi] = 0.5 * modal.sum(axis=0)
        eeps[lo:hi] = 0.5 * (weight * modal).sum(axis=0)
    return e0, eeps, diss


def _simpson(y, dx):
    """The composite Simpson rule over the samples y (1-D, at least 2)
    of spacing dx, as scipy.integrate.simpson(y, dx=dx) (scipy >= 1.11)
    computes it: for an even count, Simpson over all but the last interval
    plus Cartwright's correction for that interval; two samples take the
    trapezoid."""
    n = len(y)
    if n == 2:
        return 0.5 * dx * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    result = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2])
    result *= dx / 3.0
    if n % 2 == 0:
        # 5h/12, 2h/3 and h/12, in scipy's operation order for its two
        # last spacings, both h here, so the rounding is the same
        h = np.float64(dx)
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = h ** 3 / (6 * h * (h + h))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def evolve(problem, k, initial=None, t_max=T_MAX, dt=DT, frame=None):
    """March one mode with the exact one-step propagator and record E^0,
    E^eps, and the damping quadrature.

    The states at t = i dt are step^i applied to the initial state, with
    step = exp(A dt) for the real first-order generator A, filled by
    power doubling (power_march): about log2(n_steps) matrix products.
    So the samples are exact for any dt > 0. The dissipation residual
    compares the energy drop with a Simpson quadrature of the damping
    power over the samples, which is accurate only when dt resolves the
    excited band.

    frame is mode k's ModeFrame of this problem (None builds it), and
    its pencil gives A; a frame of another mode or problem is a
    ValueError. initial is (u0, v0) in the physical frame; None takes
    the default band-limited data. Checked here: dt is finite and > 0,
    the data are not all zero, and t_max is finite and spans two steps,
    so the decay fit on [t_max/4, t_max] has two samples.
    """
    check_positive(dt, "dt")
    span = t_max / dt
    if not math.isfinite(span) or round(span) < 2:
        raise ValueError(f"t_max = {t_max} is not a horizon of at least 2 "
                         f"steps of dt = {dt}, which the decay fit needs")
    n_steps = int(round(span))
    if frame is None:
        frame = mode_frame(assemble_pencil(problem, k))
    elif frame.pencil.k != k or frame.pencil.problem is not problem:
        raise ValueError(f"frame of mode {frame.pencil.k} does not belong "
                         f"to mode {k} of this problem")
    scale = np.sqrt(problem.f)
    if initial is None:
        u0, v0 = default_initial(problem, frame)
    else:
        u0, v0 = (np.asarray(x, dtype=float) for x in initial)
    w0, wd0 = scale * u0, scale * v0
    if not (np.any(w0) or np.any(wd0)):
        raise ValueError("initial data is identically zero")
    step = la.expm(first_order_generator(frame.pencil) * dt)
    times = dt * np.arange(n_steps + 1)
    e0, eeps, diss = _energies(
        frame, power_march(step, np.concatenate([w0, wd0]), n_steps))
    rises = np.diff(e0)
    if rises.size and rises.max() > 1e-8 * max(e0[0], 1e-300):
        raise StepFailure(
            f"energy rose by {rises.max():.2e} (E(0) = {e0[0]:.2e}) in "
            f"mode {k}; the damped propagator cannot do that")
    drop = e0[0] - e0[-1]
    resid = abs(drop - _simpson(diss, dx=dt)) / max(e0[0], 1e-300)
    rate, r2 = _fit_decay(times, e0)
    return EnergyTrace(k=int(k), times=times, e0=e0, eeps=eeps, rate=rate,
                       r_squared=r2, dissipation_residual=float(resid))


@dataclass
class DecayReport:
    """Superposed-mode energy decay against the H^eps size of the data."""

    epsilon: float
    modes: tuple
    rate: float
    r_squared: float
    envelope_constant: float
    hnorm_sq: float
    times: np.ndarray
    total_e0: np.ndarray
    total_eeps: np.ndarray
    per_mode: dict


def decay_report(problem, modes=DECAY_MODES, t_max=T_MAX):
    """Evolve each of the angular modes, concurrently, superpose
    energies, fit the decay.

    Angular modes are L^2-orthogonal, so the total energy is the sum of
    per-mode traces and the squared H^eps size of the initial data, at
    eps = problem.epsilon, is the sum of per-mode sizes. All modes share
    one time grid, dt = min(DT, 0.09 / tau) for the fastest excited
    frequency tau: the samples are exact at any dt, and this step keeps
    the dissipation quadrature accurate. The envelope constant is the
    smallest C with E(t) <= C exp(-rate t) ||data||^2_{H^eps} along the
    whole trace.
    """
    modes = check_modes(modes, "mode")
    frames = [mode_frame(assemble_pencil(problem, k)) for k in modes]
    starts = [default_initial(problem, frame) for frame in frames]
    # the N_LOW-th eigenvalue is the fastest excited frequency squared
    tau_max = max([1.0] + [math.sqrt(fr.lam[min(N_LOW, fr.lam.size) - 1])
                           for fr in frames])
    dt = min(DT, 0.09 / tau_max)

    def march(k, frame, start):
        return evolve(problem, k, initial=start, t_max=t_max, dt=dt,
                      frame=frame)

    traces = _map_modes(march, modes, frames, starts)
    scale = np.sqrt(problem.f)
    hnorm_sq = sum(frame.norm_sq(scale * v0, problem.epsilon)
                   for frame, (_, v0) in zip(frames, starts))
    total = sum(trace.e0 for trace in traces)
    times = traces[-1].times
    rate, r2 = _fit_decay(times, total)
    envelope = float(np.max(total * np.exp(rate * times)) / hnorm_sq)
    return DecayReport(epsilon=problem.epsilon, modes=modes, rate=rate,
                       r_squared=r2, envelope_constant=envelope,
                       hnorm_sq=hnorm_sq, times=times, total_e0=total,
                       total_eeps=sum(trace.eeps for trace in traces),
                       per_mode=dict(zip(modes, traces)))

