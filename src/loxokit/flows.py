"""Hamiltonian flows: integration, closed orbits, monodromy, averages.

Phase points are z = (x, xi) in R^{2n}; the flow solves
x' = dp/dxi, xi' = -dp/dx. Built-in models:

* geodesic flow on a surface of revolution ds^2 = dr^2 + f(r)^2 dtheta^2
  with a warp f from cutoffs.WARPS (cosh r, a hyperbolic neck; 1, a flat
  cylinder; or the periodic neck of the damped wave), coordinates
  (r, theta, p_r, p_theta) and p = (1/2)(p_r^2 + p_theta^2 / f^2); the
  unit-speed shell is p = 1/2 and the neck orbit r = p_r = 0, |p_theta| =
  f(0) is closed with period 2 pi f(0);
* a particle in a symmetric two-bump potential, p = |xi|^2/2 + V(x), whose
  axis-bouncing orbit between the bumps is hyperbolic;
* a harmonic oscillator for oracle tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as la

from ._dop853 import MIN_TOL, integrate, stream
from .cutoffs import get_warp, neck_damping
from .errors import LoxokitError, StepFailure, check_positive
from .symplectic import (POINCARE_MAP, SpectrumClassification, classify,
                         symplectic_pairing, symplectic_residual)


# the neck orbit that `loxokit orbit` and the monodromy-oracle criterion close
NECK_GUESS = {"r": 0.0, "theta": 0.0, "psi": math.pi / 2, "speed": 1.0}
NECK_PERIOD = 2 * math.pi
ORBIT_TOL = 1e-11
NECK_R_WIDTH = 0.2          # neck_exclusion half-width in r
NECK_CLAIRAUT_WIDTH = 0.01  # and in the Clairaut constant
SHOOT_SEGMENT_TIME = 1.0    # segment length of find_closed_orbit's chain,
SHOOT_MAX_ITER = 60         # its Gauss-Newton steps
SHOOT_TOL = 1e-9            # and the chain residual they must reach
AVERAGE_TOL = 1e-12         # integrator tolerance of trajectory_average
# check_geometric_control draws unit-speed samples with |r| <= CONTROL_R_MAX,
# flows them at CONTROL_TOL and scans every CONTROL_SCAN_DT for damping
# above CONTROL_THRESHOLD
CONTROL_R_MAX = 1.5
CONTROL_TOL = 1e-8
CONTROL_SCAN_DT = 0.05
CONTROL_THRESHOLD = 1e-9


class FlowError(LoxokitError):
    pass


class MaxIterations(FlowError):
    """Newton shooting did not converge within the iteration budget."""


class SectionNotTransverse(FlowError):
    """The flow does not cross the Poincare section transversally."""


class _NoReturn(FlowError):
    """Internal: a trial segment chain has no return around the orbit: its
    period fell below a tenth of the guess, toward the contractible
    zero-period solution."""


@dataclass
class HamiltonianSystem:
    """Smooth Hamiltonian on R^{2n} with an analytic gradient and Hessian.

    p maps a phase point z (length 2n) to a float; gradient returns the
    length-2n gradient of p at z and hessian the (2n, 2n) Hessian, which
    the tangent flow of closed orbits and monodromy reads; it must be
    exactly symmetric, so that the linearized flow is exactly
    Hamiltonian. All three must broadcast over a (2n, N) stack of phase points
    as columns, giving N values, a (2n, N) stack of gradients and a
    (2n, 2n, N) stack of Hessians: ``flow`` checks energy on a stack of
    states, and ``check_geometric_control`` advances all its samples as
    one stacked state. Both derivatives are trusted but checkable:
    ``gradient_check`` and ``hessian_check`` compare them with central
    differences.

    wraps lists cyclic coordinates as (index, period) pairs. Closed-orbit
    residuals are computed modulo these periods, so an orbit that closes
    up on a cylinder counts as closed even though the lifted coordinate
    advanced by a full turn.
    """

    n: int
    p: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    model_tag: str = "custom"
    params: dict = field(default_factory=dict)
    wraps: tuple = ()

    def vector_field(self, z):
        g = self.gradient(z)
        n = self.n
        return np.concatenate([g[n:], -g[:n]])


def _central_differences(f, z, rel_step):
    """(f(z + h e_j) - f(z - h e_j)) / (2 h) for each coordinate j, with
    h = rel_step * max(1, |z_j|)."""
    base = np.asarray(z, dtype=float)
    diffs = []
    for j in range(base.size):
        h = rel_step * max(1.0, abs(base[j]))
        zp = base.copy(); zp[j] += h
        zm = base.copy(); zm[j] -= h
        diffs.append((f(zp) - f(zm)) / (2 * h))
    return diffs


def gradient_check(sys, z, step=1e-6):
    """Max abs difference between sys.gradient and central differences."""
    diffs = np.array(_central_differences(sys.p, z, step))
    return float(np.max(np.abs(diffs - sys.gradient(np.asarray(z, float)))))


def hessian_check(sys, z, step=1e-6):
    """Max abs difference between sys.hessian and central differences of
    sys.gradient."""
    diffs = np.column_stack(_central_differences(sys.gradient, z, step))
    return float(np.max(np.abs(diffs - sys.hessian(np.asarray(z, float)))))


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def surface_of_revolution(profile="cosh"):
    """Geodesic flow on ds^2 = dr^2 + f(r)^2 dtheta^2, z = (r, th, p_r, p_th),
    for the warp f named profile (see cutoffs.WARPS)."""
    warp = get_warp(profile)
    f, fp, fpp = warp.f, warp.slope, warp.curvature

    def p(z):
        r, _, pr, pth = z
        return 0.5 * (pr ** 2 + (pth / f(r)) ** 2)

    def gradient(z):
        r, _, pr, pth = z
        fr = f(r)
        return np.array([-pth ** 2 * fp(r) / fr ** 3, np.zeros_like(r), pr,
                         pth / fr ** 2])

    def hessian(z):
        r, _, _, pth = z
        fr, f1 = f(r), fp(r)
        H = np.zeros((4, 4) + np.shape(r))
        H[0, 0] = pth ** 2 * (3 * f1 ** 2 - fr * fpp(r)) / fr ** 4
        H[0, 3] = H[3, 0] = -2 * pth * f1 / fr ** 3
        H[2, 2] = 1.0
        H[3, 3] = 1 / fr ** 2
        return H

    return HamiltonianSystem(n=2, p=p, gradient=gradient, hessian=hessian,
                             model_tag="surface_of_revolution",
                             params={"profile": profile},
                             wraps=((1, 2 * np.pi),))


def double_bump(height=1.0, separation=1.5, width=0.5):
    """Particle between two Gaussian bumps at (+-separation, 0).

    The orbit oscillating along the x-axis between the bumps is closed and
    hyperbolic: the bumps defocus transversally.
    """
    d, s2, h = separation, width ** 2, height

    def V(x, y):
        return h * (np.exp(-((x - d) ** 2 + y ** 2) / s2)
                    + np.exp(-((x + d) ** 2 + y ** 2) / s2))

    def p(z):
        x, y, xx, xy = z
        return 0.5 * (xx ** 2 + xy ** 2) + V(x, y)

    def gradient(z):
        x, y, xx, xy = z
        em = np.exp(-((x - d) ** 2 + y ** 2) / s2)
        ep = np.exp(-((x + d) ** 2 + y ** 2) / s2)
        dVx = h * (-2 * (x - d) / s2 * em - 2 * (x + d) / s2 * ep)
        dVy = h * (-2 * y / s2 * em - 2 * y / s2 * ep)
        return np.array([dVx, dVy, xx, xy])

    def hessian(z):
        x, y = z[0], z[1]
        H = np.zeros((4, 4) + np.shape(x))
        for c in (x - d, x + d):
            e = h * np.exp(-(c ** 2 + y ** 2) / s2)
            H[0, 0] += (4 * c ** 2 / s2 - 2) / s2 * e
            H[0, 1] += 4 * c * y / s2 ** 2 * e
            H[1, 1] += (4 * y ** 2 / s2 - 2) / s2 * e
        H[1, 0] = H[0, 1]
        H[2, 2] = H[3, 3] = 1.0
        return H

    return HamiltonianSystem(n=2, p=p, gradient=gradient, hessian=hessian,
                             model_tag="double_bump",
                             params={"height": height, "separation": separation,
                                     "width": width})


def harmonic_oscillator(omega=1.0):
    w2 = omega ** 2

    def p(z):
        return 0.5 * (w2 * z[0] ** 2 + z[1] ** 2)

    def gradient(z):
        return np.array([w2 * z[0], z[1]])

    def hessian(z):
        H = np.zeros((2, 2) + np.shape(z[0]))
        H[0, 0], H[1, 1] = w2, 1.0
        return H

    return HamiltonianSystem(n=1, p=p, gradient=gradient, hessian=hessian,
                             model_tag="harmonic", params={"omega": omega})


def system_from_config(cfg):
    """Build a model system from a JSON-style dict.

    Examples: {"model": "surface_of_revolution", "profile": "cosh"},
    {"model": "double_bump", "height": 1.0}, {"model": "harmonic"}.
    """
    cfg = dict(cfg)
    model = cfg.pop("model", None)
    builders = {"surface_of_revolution": surface_of_revolution,
                "double_bump": double_bump,
                "harmonic": harmonic_oscillator}
    if model not in builders:
        raise ValueError(f"unknown model {model!r}; "
                         f"expected one of {sorted(builders)}")
    try:
        return builders[model](**cfg)
    except TypeError as exc:
        raise ValueError(f"bad parameters for model {model!r}: {exc}") from None


def surface_state(sys, r, theta, psi, speed=1.0):
    """Phase point on the surface model: psi is the angle from the meridian.

    The Clairaut constant f(r) sin(psi) equals p_theta / speed and is
    conserved along geodesics.
    """
    if sys.model_tag != "surface_of_revolution":
        raise ValueError("surface_state needs the surface model")
    f = get_warp(sys.params["profile"]).f
    return np.array([r, theta, speed * np.cos(psi), speed * f(r) * np.sin(psi)])


def clairaut_constant(sys, z):
    """|f(r) sin psi| for the surface model, normalized to unit speed."""
    speed = math.sqrt(2.0 * sys.p(z))
    return abs(z[3]) / speed


def neck_exclusion():
    """Neighborhood of the trapped neck orbits (both directions)."""
    def inside(sys, z):
        return (abs(z[0]) < NECK_R_WIDTH
                and abs(clairaut_constant(sys, z) - 1.0) < NECK_CLAIRAUT_WIDTH)
    return inside


# a second name for cutoffs.neck_damping, which the benchmark's orbits pass
# (bench/child.py) calls; the library and its tests use the first
meridian_damping = neck_damping


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    times: np.ndarray
    states: np.ndarray          # shape (len(times), 2n), or (len(times), 2n, N)
    energy_drift: float         # or one per column, shape (N,)
    integral: Optional[float] = None   # of the observable over t_span;
                                       # one per column for a stack


def flow(sys, z0, t_span, tol=1e-10, t_eval=None, observable=None):
    """Integrate the Hamiltonian flow with an adaptive high-order RK.

    With an observable, its integral over the whole t_span rides along as
    one more state row (so it shares the step control) and comes back
    as ``integral``. The energy drift |p - p(z0)| along the result must
    stay within 10 * tol * max(1, |p(z0)|) * max(1, |t1 - t0|), or
    StepFailure is raised (see _EnergyRule); so does integrator failure.
    A tol below _dop853.MIN_TOL (100 machine epsilons) is raised to it,
    with a UserWarning, for the integration and the budget alike.

    z0 may be a (2n, N) stack of phase points as columns. They advance as
    one state with one step sequence (its error norm is taken over all
    columns), ``states`` has shape (len(times), 2n, N), and
    ``energy_drift`` and ``integral`` hold one value per column; the
    observable must then broadcast over the stack too. Any column over
    its energy budget raises StepFailure.
    """
    z0 = np.asarray(z0, dtype=float)
    dim = 2 * sys.n
    n_out = None if t_eval is None else len(t_eval)
    y0, rhs, t_eval = _ride_along(sys, z0, t_span, t_eval, observable)
    times, states = integrate(rhs, t_span, y0.ravel(), tol, t_eval=t_eval)
    y = np.reshape(states, (-1,) + y0.shape)     # time first
    energy = _EnergyRule(sys, z0, t_span, tol, len(y))
    energy.add(y[:, :dim])
    drift = energy.check()
    integral = None if observable is None else y[-1, dim]
    if z0.ndim == 1:
        drift = float(drift)
        integral = None if integral is None else float(integral)
    return FlowResult(times=times[:n_out], states=y[:n_out, :dim],
                      energy_drift=drift, integral=integral)


def _ride_along(sys, z0, t_span, t_eval, observable):
    """flow's integration of z0: (y0, rhs, t_eval), where y0 is z0 with
    one more row, starting at 0, for the observable's integral if there
    is an observable, rhs its right-hand side on y0.ravel(), and t_eval
    gains t1 when the integral must be read past the last sample."""
    dim = 2 * sys.n
    y0 = z0
    if observable is not None:
        y0 = np.concatenate([z0, np.zeros((1,) + z0.shape[1:])])
        if t_eval is not None and np.size(t_eval) and t_eval[-1] != t_span[1]:
            t_eval = np.append(t_eval, t_span[1])

    def rhs(t, y):
        z = y.reshape(y0.shape)[:dim]
        v = sys.vector_field(z)
        if observable is not None:
            v = np.concatenate([v, np.asarray(observable(z))[None]])
        return v.ravel()

    return y0, rhs, t_eval


class _EnergyRule:
    """flow's energy check on a run of k samples from z0 over t_span at
    tol: the drift |p - p(z0)| of each column, read at about 65 samples
    in time and at the last, must stay within 10 * max(tol, MIN_TOL) *
    max(1, |p(z0)|) * max(1, |t1 - t0|), or check() raises StepFailure.
    The samples are added in order, time first, in as many pieces as
    come, so a stream of them needs no history."""

    def __init__(self, sys, z0, t_span, tol, k):
        self.p = sys.p
        self.E0 = np.asarray(sys.p(z0))
        self.picks = np.append(np.arange(0, k, max(1, k // 64)), k - 1)
        self.budget = (10 * max(tol, MIN_TOL)
                       * np.maximum(1.0, np.abs(self.E0))
                       * max(1.0, abs(t_span[1] - t_span[0])))
        self.drift = np.zeros_like(self.E0)
        self.seen = 0

    def add(self, z):
        """The next len(z) samples, z of shape (len(z), 2n[, N])."""
        at = self.picks[(self.picks >= self.seen)
                        & (self.picks < self.seen + len(z))] - self.seen
        if at.size:
            E = self.p(np.moveaxis(z[at], 0, -1))
            self.drift = np.maximum(
                self.drift, np.abs(E - self.E0[..., None]).max(axis=-1))
        self.seen += len(z)

    def check(self):
        """The drift per column, once it is within the budget."""
        if np.any(self.drift > self.budget):
            raise StepFailure(f"energy drift {self.drift.max():.2e} "
                              "exceeds budget")
        return self.drift


def _flow_with_monodromy(sys, z0, T, tol):
    """z(T) and the monodromy Phi(T): the flow z' = X(z) and its
    variational equation Phi' = DX(z) Phi, integrated together on the
    stacked state y = (z, Phi.ravel()) from Phi = I."""
    n = sys.n
    dim = 2 * n

    def rhs(t, y):
        z = y[:dim]
        Phi = y[dim:].reshape(dim, dim)
        H = sys.hessian(z)
        Dv = np.vstack([H[n:, :], -H[:n, :]])
        return np.concatenate([sys.vector_field(z), (Dv @ Phi).ravel()])

    y0 = np.concatenate([np.asarray(z0, float), np.eye(dim).ravel()])
    y = integrate(rhs, (0.0, T), y0, tol)[1][-1]
    return y[:dim], y[dim:].reshape(dim, dim)


# ---------------------------------------------------------------------------
# closed orbits and monodromy
# ---------------------------------------------------------------------------

@dataclass
class ClosedOrbit:
    point: np.ndarray
    period: float
    energy: float
    residual: float


@dataclass
class MonodromyData:
    monodromy: np.ndarray            # full 2n x 2n over one period
    eigenvalues: np.ndarray          # of the full monodromy
    reduced_map: np.ndarray          # (2n-2) x (2n-2) transverse block
    classification: SpectrumClassification
    symplectic_defect: float


def _wrap_diff(sys, z, z_ref):
    """z - z_ref with cyclic coordinates reduced to their fundamental band."""
    d = np.asarray(z, dtype=float) - np.asarray(z_ref, dtype=float)
    for j, period in sys.wraps:
        d[j] = (d[j] + 0.5 * period) % period - 0.5 * period
    return d


def _gauss_newton(residual, jacobian, x, tol, max_iter):
    """Damped Gauss-Newton on residual(x) -> (F, aux) from x, where
    jacobian(x, aux) = dF/dx. The lstsq step is halved (at most 12 times)
    until |F| drops; a trial point that raises StepFailure or _NoReturn
    is halved too. Returns (x, |F|, aux) once |F| <= tol."""
    F, aux = residual(x)
    for _ in range(max_iter):
        norm_F = la.norm(F)
        if norm_F <= tol:
            return x, norm_F, aux
        step, *_ = np.linalg.lstsq(jacobian(x, aux), -F, rcond=None)
        lam = 1.0
        for _ in range(12):
            x_new = x + lam * step
            try:
                F_new, aux_new = residual(x_new)
            except (StepFailure, _NoReturn):
                lam *= 0.5
                continue
            if la.norm(F_new) < norm_F:
                break
            lam *= 0.5
        else:
            raise MaxIterations(f"line search stalled (residual {norm_F:.2e})")
        x, F, aux = x_new, F_new, aux_new
    raise MaxIterations(f"no convergence after {max_iter} iterations "
                        f"(residual {la.norm(F):.2e})")


def _multiple_shooting(sys, guess, period_guess, v_sec, tol):
    """Close a chain of short flow segments through a rough guess.

    The unknowns are K = max(2, ceil(period_guess / SHOOT_SEGMENT_TIME))
    nodes and the period; the residual stacks the K links between each
    segment's end and the next node (modulo the model's wraps), the
    section row <node 0 - guess, v_sec> and the energy pin p(node 0) =
    p(guess). A strongly unstable orbit amplifies guess error by
    exp(lambda T) over a full period; segments of about SHOOT_SEGMENT_TIME
    stay well conditioned regardless.

    Seeding all nodes at the guess would put the chain in the contractible
    homotopy class, where the Gauss-Newton step collapses the period toward
    zero; a trial period below a tenth of the guess is rejected. Instead
    the seed winds once: on a model with cyclic coordinates these advance
    ballistically at the guess velocity and the other components stay
    frozen; on a model without, the nodes lie on the guess's own
    trajectory at the node times.

    Returns (node 0, period, residual) of the closed chain.
    """
    dim = 2 * sys.n
    K = max(2, int(math.ceil(period_guess / SHOOT_SEGMENT_TIME)))
    if sys.wraps:
        v0 = sys.vector_field(guess)
        seed = np.tile(np.asarray(guess, float), (K, 1))
        for j, _ in sys.wraps:
            seed[:, j] = guess[j] + v0[j] * period_guess * np.arange(K) / K
    else:
        seed = flow(sys, guess, (0.0, period_guess), tol=tol,
                    t_eval=period_guess * np.arange(K) / K).states
    x = np.concatenate([seed.ravel(), [period_guess]])
    E0 = sys.p(guess)

    def chain(x):
        if x[-1] <= 0.1 * period_guess:
            raise _NoReturn("segment chain period collapsed")
        nodes = x[:-1].reshape(K, dim)
        dt = x[-1] / K
        ends, mats, links = [], [], []
        for i in range(K):
            zi, Mi = _flow_with_monodromy(sys, nodes[i], dt, tol=tol)
            ends.append(zi)
            mats.append(Mi)
            links.append(_wrap_diff(sys, zi, nodes[(i + 1) % K]))
        F = np.concatenate(links
                           + [[np.dot(_wrap_diff(sys, nodes[0], guess), v_sec)],
                              [sys.p(nodes[0]) - E0]])
        return F, (ends, mats)

    def jacobian(x, aux):
        ends, mats = aux
        J = np.zeros((K * dim + 2, K * dim + 1))
        for i in range(K):
            rows = slice(i * dim, (i + 1) * dim)
            J[rows, i * dim:(i + 1) * dim] = mats[i]
            j = ((i + 1) % K) * dim
            J[rows, j:j + dim] -= np.eye(dim)
            J[rows, -1] = sys.vector_field(ends[i]) / K
        J[K * dim, :dim] = v_sec
        J[K * dim + 1, :dim] = sys.gradient(x[:dim])
        return J

    x, norm_F, _ = _gauss_newton(chain, jacobian, x, SHOOT_TOL,
                                 SHOOT_MAX_ITER)
    return x[:dim].copy(), float(x[-1]), norm_F


def find_closed_orbit(sys, guess, period_guess, tol=ORBIT_TOL):
    """Close the periodic orbit near a guess by segment-chain shooting.

    The section is the hyperplane through the guess orthogonal to the flow
    there. A chain of flow segments (see _multiple_shooting) starts on the
    guess, winding once over period_guess, and damped Gauss-Newton steps
    close it with the period as one more unknown, node 0 on the section
    and on the guess's energy shell, to a residual of at most SHOOT_TOL;
    each segment is integrated at tol. Node 0, the period and the residual
    are the orbit. A period_guess that is not finite and > 0 raises
    ValueError; a guess at an equilibrium raises SectionNotTransverse.
    """
    z = np.asarray(guess, dtype=float).copy()
    Tg = float(period_guess)
    check_positive(Tg, "period_guess")
    v_sec = sys.vector_field(z)
    nv = la.norm(v_sec)
    if nv < 1e-12:
        raise SectionNotTransverse("guess is an equilibrium of the flow")
    z, T, norm_F = _multiple_shooting(sys, z, Tg, v_sec / nv, tol)
    return ClosedOrbit(point=z, period=T, energy=sys.p(z), residual=norm_F)


def _symplectic_pair_basis(C):
    """Symplectic basis (u_i, w_i) of the column span of C, s(u_i, w_j) = delta."""
    cols = [C[:, j] for j in range(C.shape[1])]
    us, ws = [], []
    while cols:
        u = cols.pop(0)
        nu = la.norm(u)
        if nu < 1e-12:
            continue
        u = u / nu
        pairings = [abs(symplectic_pairing(u, c)) for c in cols]
        if not pairings or max(pairings) < 1e-10:
            raise SectionNotTransverse(
                "symplectic form degenerates on the section")
        j = int(np.argmax(pairings))
        w = cols.pop(j)
        w = w / symplectic_pairing(u, w)
        new_cols = []
        for c in cols:
            c = c - symplectic_pairing(c, w) * u - symplectic_pairing(u, c) * w
            new_cols.append(c)
        cols = new_cols
        us.append(u)
        ws.append(w)
    return np.column_stack(us + ws)


def linearized_poincare_map(sys, orbit, tol=ORBIT_TOL):
    """Monodromy over one period and its transverse symplectic reduction.

    The section is the hyperplane orthogonal to the flow direction; the
    reduced map acts on a symplectic basis of the section intersected with
    the energy shell, so it is symplectic for the standard (2n-2)-form.
    A system with n = 1 has no transverse directions: ValueError.
    """
    if sys.n < 2:
        raise ValueError(f"the return map needs n >= 2 degrees of freedom; "
                         f"model {sys.model_tag!r} has n = {sys.n}")
    z0 = np.asarray(orbit.point, dtype=float)
    _, M = _flow_with_monodromy(sys, z0, orbit.period, tol=tol)
    v = sys.vector_field(z0)
    g = sys.gradient(z0)
    dim = 2 * sys.n
    # basis of {w : <v, w> = 0, <g, w> = 0}
    A = np.vstack([v, g])
    _, s, Vh = la.svd(A)
    W = Vh[2:].T
    basis = _symplectic_pair_basis(W)
    sv = np.dot(v, v)

    def project(y):
        # remove the flow component to return to the section
        return y - (np.dot(v, y) / sv) * v

    m_red = basis.shape[1] // 2
    red = np.zeros((2 * m_red, 2 * m_red))
    for j in range(2 * m_red):
        y = project(M @ basis[:, j])
        for i in range(m_red):
            red[i, j] = symplectic_pairing(y, basis[:, m_red + i])
            red[m_red + i, j] = symplectic_pairing(basis[:, i], y)
    # classify's refusal, a ValueError, is a numerical failure for a map
    # computed here; a LinAlgError is a ValueError too and passes as it is
    try:
        cls = classify(red, mode=POINCARE_MAP)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise SectionNotTransverse(f"reduced map: {exc}") from None
    return MonodromyData(monodromy=M, eigenvalues=la.eigvals(M),
                         reduced_map=red, classification=cls,
                         symplectic_defect=symplectic_residual(red))


# ---------------------------------------------------------------------------
# averages and geometric control
# ---------------------------------------------------------------------------

def trajectory_average(sys, z0, T, observable):
    """(1/T) int_0^T observable(z(t)) dt along the flow, by ride-along
    quadrature inside the adaptive integrator. A negative T averages over
    the backward trajectory; T = 0 is an empty span (ValueError)."""
    return flow(sys, z0, (0.0, T), tol=AVERAGE_TOL,
                observable=observable).integral / T


# Columns per stacked control integration. The scan streams its samples
# and keeps only first hits and the damping integral, so memory does not
# grow with T; a batch of 500 columns holds one _dop853.DENSE_CHUNK of
# samples, 1.3 MB. All columns share one step sequence, so the batch also
# bounds how many easy columns ride along at the steps of the hardest.
_CONTROL_BATCH = 500


@dataclass
class ControlReport:
    controlled_fraction: float
    witnesses: list                  # (sample_index, time) pairs, |time| minimal found
    min_average: float


def check_geometric_control(sys, damping, exclusion, T=50.0, n_samples=500,
                            seed=0):
    """Seeded check of the geometric control condition for the surface model.

    Samples unit-speed phase points with |r| <= CONTROL_R_MAX outside the
    excluded neighborhood (counter-based Philox generator, so the draw is
    reproducible and splittable), then looks for a time |t| <= T on the
    scan grid of step CONTROL_SCAN_DT at which the trajectory meets
    {damping > CONTROL_THRESHOLD}. Also reports the smallest forward
    time-average of the damping over the samples; it rides along in the
    forward run at the same CONTROL_TOL, and a backward run is made only
    for samples whose forward run misses the damping. The samples advance
    in batches of columns of one stacked state, integrated as ``flow``
    integrates it and held to its energy rule, so the model and the
    damping must broadcast (see HamiltonianSystem). n_samples must be
    an integer >= 1 and T finite and > 0 (ValueError).
    """
    if not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError("need at least one sample (an integer), "
                         f"got n_samples={n_samples!r}")
    check_positive(T, "control horizon T")
    rng = np.random.Generator(np.random.Philox(seed))
    samples = []
    while len(samples) < n_samples:
        r = rng.uniform(-CONTROL_R_MAX, CONTROL_R_MAX)
        theta = rng.uniform(0.0, 2 * np.pi)
        psi = rng.uniform(0.0, 2 * np.pi)
        z = surface_state(sys, r, theta, psi)
        if not exclusion(sys, z):
            samples.append(z)

    t_grid = np.arange(0.0, T + CONTROL_SCAN_DT, CONTROL_SCAN_DT)
    t_grid = t_grid[t_grid <= T]     # arange can overshoot T by one step
    witnesses = []
    min_avg = np.inf
    for start in range(0, n_samples, _CONTROL_BATCH):
        Z = np.column_stack(samples[start:start + _CONTROL_BATCH])
        hits, integral = _scan(sys, damping, Z, T, t_grid)
        min_avg = min(min_avg, np.min(integral / T))
        missed = np.flatnonzero(np.isnan(hits))
        if missed.size:
            hits[missed] = _scan(sys, damping, Z[:, missed], -T, -t_grid)[0]
        witnesses += [(start + j, float(t)) for j, t in enumerate(hits)
                      if not np.isnan(t)]
    return ControlReport(controlled_fraction=len(witnesses) / n_samples,
                         witnesses=witnesses, min_average=float(min_avg))


def _scan(sys, damping, Z, T, t_grid):
    """(hits, integral) of the columns of Z flowed over (0, T) at
    CONTROL_TOL: each column's first time on t_grid with damping above
    CONTROL_THRESHOLD (NaN if none) and, forward only, the integral of
    the damping over the span. The samples stream by chunk (see
    _dop853.stream) through flow's set-up and energy rule; none is kept."""
    dim = 2 * sys.n
    observable = (lambda z: damping(z[0])) if T > 0 else None
    y0, rhs, t_eval = _ride_along(sys, Z, (0.0, T), t_grid, observable)
    energy = _EnergyRule(sys, Z, (0.0, T), CONTROL_TOL, len(t_eval))
    hits = np.full(Z.shape[1], np.nan)
    seen = 0
    for times, rows in stream(rhs, (0.0, T), y0.ravel(), CONTROL_TOL,
                              t_eval=t_eval):
        y = rows.reshape((-1,) + y0.shape)
        energy.add(y[:, :dim])
        # the t1 sample that _ride_along may append is not on the grid
        on_grid = min(len(times), len(t_grid) - seen)
        seen += len(times)
        if on_grid > 0 and np.isnan(hits).any():
            hit = damping(y[:on_grid, 0]) > CONTROL_THRESHOLD  # (time, column)
            new = hit.any(axis=0) & np.isnan(hits)
            hits[new] = times[hit.argmax(axis=0)[new]]
    energy.check()
    return hits, (y[-1, dim] if observable is not None else None)
