"""Hamiltonian flows: integration, closed orbits, monodromy, averages.

Phase points are z = (x, xi) in R^{2n}; the flow solves
x' = dp/dxi, xi' = -dp/dx. Built-in models:

* geodesic flow on a surface of revolution ds^2 = dr^2 + f(r)^2 dtheta^2
  with f = cosh r (hyperbolic neck) or f = 1 (flat cylinder), coordinates
  (r, theta, p_r, p_theta) and p = (1/2)(p_r^2 + p_theta^2 / f^2); the
  unit-speed shell is p = 1/2 and the neck orbit r = p_r = 0, |p_theta| =
  f(0) is closed with period 2 pi f(0);
* a particle in a symmetric two-bump potential, p = |xi|^2/2 + V(x), whose
  axis-bouncing orbit between the bumps is hyperbolic;
* a harmonic oscillator for oracle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.linalg as la

from .errors import LoxokitError, StepFailure
from .symplectic import POINCARE_MAP, SpectrumClassification, classify


class FlowError(LoxokitError):
    pass


class MaxIterations(FlowError):
    """Newton shooting did not converge within the iteration budget."""


class SectionNotTransverse(FlowError):
    """The flow does not cross the Poincare section transversally."""


class _NoReturn(FlowError):
    """Internal: a trajectory failed to re-cross the section in time."""


@dataclass
class HamiltonianSystem:
    """Smooth Hamiltonian on R^{2n} with an analytic gradient.

    p maps a phase point z (length 2n) to a float; gradient returns the
    length-2n gradient of p at z. The gradient is trusted but checkable:
    ``gradient_check`` compares it with central differences (1e-5).

    wraps lists cyclic coordinates as (index, period) pairs. Closed-orbit
    residuals are computed modulo these periods, so an orbit that closes
    up on a cylinder counts as closed even though the lifted coordinate
    advanced by a full turn.
    """

    n: int
    p: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    model_tag: str = "custom"
    params: dict = field(default_factory=dict)
    wraps: tuple = ()

    def vector_field(self, z):
        g = self.gradient(z)
        n = self.n
        return np.concatenate([g[n:], -g[:n]])

    def hessian(self, z):
        """Symmetrized central-difference Hessian of p.

        Symmetrizing keeps the linearized flow exactly Hamiltonian, which
        protects the symplectic structure of monodromy matrices.
        """
        dim = 2 * self.n
        H = np.empty((dim, dim))
        base = np.asarray(z, dtype=float)
        for j in range(dim):
            step = 6.0e-6 * max(1.0, abs(base[j]))
            zp = base.copy(); zp[j] += step
            zm = base.copy(); zm[j] -= step
            H[:, j] = (self.gradient(zp) - self.gradient(zm)) / (2 * step)
        return 0.5 * (H + H.T)


def gradient_check(sys, z, step=1e-6):
    """Max abs difference between sys.gradient and central differences."""
    z = np.asarray(z, dtype=float)
    g = sys.gradient(z)
    worst = 0.0
    for j in range(2 * sys.n):
        h = step * max(1.0, abs(z[j]))
        zp = z.copy(); zp[j] += h
        zm = z.copy(); zm[j] -= h
        worst = max(worst, abs((sys.p(zp) - sys.p(zm)) / (2 * h) - g[j]))
    return worst


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def surface_of_revolution(profile="cosh", R=3.0):
    """Geodesic flow on ds^2 = dr^2 + f(r)^2 dtheta^2, z = (r, th, p_r, p_th)."""
    if profile == "cosh":
        f = np.cosh
        fp = np.sinh
    elif profile == "flat":
        f = lambda r: 1.0 + 0.0 * r
        fp = lambda r: 0.0 * r
    else:
        raise ValueError(f"unknown profile {profile!r}")

    def p(z):
        r, _, pr, pth = z
        return 0.5 * (pr ** 2 + (pth / f(r)) ** 2)

    def gradient(z):
        r, _, pr, pth = z
        fr = f(r)
        return np.array([-pth ** 2 * fp(r) / fr ** 3, 0.0, pr, pth / fr ** 2])

    return HamiltonianSystem(n=2, p=p, gradient=gradient,
                             model_tag="surface_of_revolution",
                             params={"profile": profile, "R": R},
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

    return HamiltonianSystem(n=2, p=p, gradient=gradient,
                             model_tag="double_bump",
                             params={"height": height, "separation": separation,
                                     "width": width})


def harmonic_oscillator(omega=1.0):
    w2 = omega ** 2

    def p(z):
        return 0.5 * (w2 * z[0] ** 2 + z[1] ** 2)

    def gradient(z):
        return np.array([w2 * z[0], z[1]])

    return HamiltonianSystem(n=1, p=p, gradient=gradient,
                             model_tag="harmonic", params={"omega": omega})


def system_from_config(cfg):
    """Build a model system from a JSON-style dict.

    Examples: {"model": "surface_of_revolution", "profile": "cosh", "R": 3.0},
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
    f = np.cosh if sys.params["profile"] == "cosh" else (lambda r: 1.0)
    return np.array([r, theta, speed * np.cos(psi), speed * f(r) * np.sin(psi)])


def clairaut_constant(sys, z):
    """|f(r) sin psi| for the surface model, normalized to unit speed."""
    speed = math.sqrt(2.0 * sys.p(z))
    return abs(z[3]) / speed


def neck_exclusion(r_width=0.2, clairaut_width=0.01):
    """Neighborhood of the trapped neck orbits (both directions)."""
    def inside(sys, z):
        return abs(z[0]) < r_width and abs(clairaut_constant(sys, z) - 1.0) < clairaut_width
    return inside


def meridian_damping(inner=0.5, outer=1.0):
    """Smooth damping a(r): 0 for |r| <= inner, 1 for |r| >= outer."""
    from .cutoffs import plateau_step

    def a(r):
        return plateau_step(r, inner, outer)

    return a


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    times: np.ndarray
    states: np.ndarray          # shape (len(times), 2n)
    energy_drift: float
    solver: object = None


def _integrate(rhs, t_span, y0, tol, **options):
    """DOP853 over t_span at rtol = atol = tol; failure raises StepFailure."""
    sol = scipy.integrate.solve_ivp(rhs, t_span, y0, method="DOP853",
                                    rtol=tol, atol=tol, **options)
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    return sol


def flow(sys, z0, t_span, tol=1e-10, t_eval=None, dense=False):
    """Integrate the Hamiltonian flow with an adaptive high-order RK.

    Energy drift along the result is checked against 10 * tol; integrator
    failure raises StepFailure.
    """
    z0 = np.asarray(z0, dtype=float)
    rhs = lambda t, z: sys.vector_field(z)
    sol = _integrate(rhs, t_span, z0, tol, t_eval=t_eval, dense_output=dense)
    states = sol.y.T
    E0 = sys.p(z0)
    drift = max(abs(sys.p(s) - E0) for s in states[:: max(1, len(states) // 64)])
    drift = max(drift, abs(sys.p(states[-1]) - E0))
    scale = max(1.0, abs(E0))
    if drift > 10 * tol * scale * max(1.0, abs(t_span[1] - t_span[0])):
        raise StepFailure(f"energy drift {drift:.2e} exceeds budget")
    return FlowResult(times=sol.t, states=states, energy_drift=drift,
                      solver=sol.sol if dense else None)


def _variational_rhs(sys):
    """Right-hand side of the flow z' = X(z) together with its variational
    equation Phi' = DX(z) Phi, on the stacked state y = (z, Phi.ravel())."""
    n = sys.n
    dim = 2 * n

    def rhs(t, y):
        z = y[:dim]
        Phi = y[dim:].reshape(dim, dim)
        H = sys.hessian(z)
        Dv = np.vstack([H[n:, :], -H[:n, :]])
        return np.concatenate([sys.vector_field(z), (Dv @ Phi).ravel()])

    return rhs


def _flow_with_monodromy(sys, z0, T, tol=1e-11):
    """Integrate z and the variational matrix over [0, T]."""
    dim = 2 * sys.n
    rhs = _variational_rhs(sys)
    y0 = np.concatenate([np.asarray(z0, float), np.eye(dim).ravel()])
    sol = _integrate(rhs, (0.0, T), y0, tol)
    zT = sol.y[:dim, -1]
    M = sol.y[dim:, -1].reshape(dim, dim)
    return zT, M


# ---------------------------------------------------------------------------
# closed orbits and monodromy
# ---------------------------------------------------------------------------

@dataclass
class ClosedOrbit:
    point: np.ndarray
    period: float
    energy: float
    residual: float
    section_normal: Optional[np.ndarray] = None


@dataclass
class MonodromyData:
    monodromy: np.ndarray            # full 2n x 2n over one period
    reduced_map: np.ndarray          # (2n-2) x (2n-2) transverse block
    classification: SpectrumClassification
    symplectic_defect: float


def _wrap_diff(sys, z, z_ref):
    """z - z_ref with cyclic coordinates reduced to their fundamental band."""
    d = np.asarray(z, dtype=float) - np.asarray(z_ref, dtype=float)
    for j, period in sys.wraps:
        d[j] = (d[j] + 0.5 * period) % period - 0.5 * period
    return d


def _poincare_return(sys, z, z_ref, v_sec, t_min, t_max, tol):
    """Flow to the first same-direction section crossing after t_min.

    Returns (return time, end state, variational matrix at the end).
    The crossing function uses the wrapped offset from z_ref, so a cyclic
    coordinate advancing by a full period reads as a return. Wrap jumps
    produce down-jumps of the crossing function, which the direction
    filter discards.
    """
    dim = 2 * sys.n
    z1, M1 = _flow_with_monodromy(sys, z, t_min, tol)

    def crossing(t, y):
        return np.dot(_wrap_diff(sys, y[:dim], z_ref), v_sec)

    crossing.terminal = True
    crossing.direction = 1.0
    # On nearly-linear stretches the solver can step over a whole branch of
    # the wrapped sawtooth; keep at least two samples per wrap period.
    max_step = np.inf
    if sys.wraps:
        max_step = 0.45 * min(period for _, period in sys.wraps)
    leg2 = _integrate(_variational_rhs(sys), (t_min, t_max),
                      np.concatenate([z1, M1.ravel()]), tol,
                      events=crossing, max_step=max_step)
    if not leg2.t_events[0].size:
        raise _NoReturn("no return to the section within the time budget")
    T = float(leg2.t_events[0][0])
    y_ev = leg2.y_events[0][0]
    return T, y_ev[:dim], y_ev[dim:].reshape(dim, dim)


def _multiple_shooting(sys, guess, period_guess, v_sec, z_ref, E0, tol,
                       segment_time=1.0, max_iter=60):
    """Close a chain of short flow segments through a rough guess.

    A strongly unstable orbit amplifies guess error by exp(lambda T) over a
    full period, which can push the first section return of the raw guess
    out of existence entirely. Segments of about unit time stay well
    conditioned regardless.

    Seeding all nodes at the guess would put the chain in the contractible
    homotopy class, where the Gauss-Newton step collapses the period toward
    zero. Instead the cyclic coordinates advance ballistically at the guess
    velocity so the seed winds once, and the other components stay frozen.

    Returns a point near the orbit, good enough to restart return-map
    Newton from.
    """
    dim = 2 * sys.n
    K = max(2, int(math.ceil(period_guess / segment_time)))
    v0 = sys.vector_field(guess)
    seed = np.tile(np.asarray(guess, float), (K, 1))
    for j, _ in sys.wraps:
        seed[:, j] = guess[j] + v0[j] * period_guess * np.arange(K) / K
    x = np.concatenate([seed.ravel(), [period_guess]])

    def chain(x):
        nodes = x[:-1].reshape(K, dim)
        dt = x[-1] / K
        ends, mats, links = [], [], []
        for i in range(K):
            zi, Mi = _flow_with_monodromy(sys, nodes[i], dt, tol=tol)
            ends.append(zi)
            mats.append(Mi)
            links.append(_wrap_diff(sys, zi, nodes[(i + 1) % K]))
        F = np.concatenate(links
                           + [[np.dot(_wrap_diff(sys, nodes[0], z_ref), v_sec)],
                              [sys.p(nodes[0]) - E0]])
        return F, nodes, ends, mats

    F, nodes, ends, mats = chain(x)
    for _ in range(max_iter):
        norm_F = la.norm(F)
        if norm_F <= 1e-9:
            return nodes[0].copy(), float(x[-1])
        J = np.zeros((K * dim + 2, K * dim + 1))
        for i in range(K):
            rows = slice(i * dim, (i + 1) * dim)
            J[rows, i * dim:(i + 1) * dim] = mats[i]
            j = ((i + 1) % K) * dim
            J[rows, j:j + dim] -= np.eye(dim)
            J[rows, -1] = sys.vector_field(ends[i]) / K
        J[K * dim, :dim] = v_sec
        J[K * dim + 1, :dim] = sys.gradient(nodes[0])
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        lam = 1.0
        for _ in range(12):
            x_new = x + lam * step
            if x_new[-1] <= 0.1 * period_guess:
                lam *= 0.5
                continue
            try:
                F_new, nodes_n, ends_n, mats_n = chain(x_new)
            except StepFailure:
                lam *= 0.5
                continue
            if la.norm(F_new) < norm_F:
                break
            lam *= 0.5
        else:
            raise MaxIterations("segment chain stalled before closing")
        x, F, nodes, ends, mats = x_new, F_new, nodes_n, ends_n, mats_n
    raise MaxIterations(f"segment chain failed to close "
                        f"(residual {la.norm(F):.2e})")


def find_closed_orbit(sys, guess, period_guess, tol=1e-11, max_iter=40,
                      return_tol=1e-8):
    """Newton shooting on the Poincare return map near a guess.

    The section is the hyperplane through the guess orthogonal to the flow
    there. Each iterate flows to its first same-direction return to the
    section (never before a fifth of the guessed period, so the trivial
    zero-time fixed point is excluded), and a Gauss-Newton step contracts
    the return defect subject to the phase condition and an energy pin.
    A guess too unstable to return to the section at all is first pulled
    into the basin by closing a chain of short flow segments.
    """
    z = np.asarray(guess, dtype=float).copy()
    Tg = float(period_guess)
    v_sec = sys.vector_field(z)
    nv = la.norm(v_sec)
    if nv < 1e-12:
        raise SectionNotTransverse("guess is an equilibrium of the flow")
    v_sec = v_sec / nv
    z_ref = z.copy()
    E0 = sys.p(z)
    dim = 2 * sys.n

    def residual(z):
        T, zT, M = _poincare_return(sys, z, z_ref, v_sec,
                                    t_min=0.2 * Tg, t_max=4.0 * Tg, tol=tol)
        F = np.concatenate([_wrap_diff(sys, zT, z),
                            [np.dot(_wrap_diff(sys, z, z_ref), v_sec)],
                            [sys.p(z) - E0]])
        return F, T, zT, M

    try:
        F, T, zT, M = residual(z)
    except _NoReturn:
        # the raw guess escapes before its first section return; stabilize
        # with short segments, then restart on the return map
        z, _ = _multiple_shooting(sys, z, Tg, v_sec, z_ref, E0, tol)
        try:
            F, T, zT, M = residual(z)
        except _NoReturn as exc2:
            raise MaxIterations(str(exc2)) from None
    for _ in range(max_iter):
        norm_F = la.norm(F)
        if norm_F <= return_tol:
            return ClosedOrbit(point=z, period=T, energy=sys.p(z),
                               residual=norm_F, section_normal=v_sec)
        v_T = sys.vector_field(zT)
        denom = np.dot(v_sec, v_T)
        if abs(denom) < 1e-10 * la.norm(v_T):
            raise SectionNotTransverse("return crossing is nearly tangent")
        # derivative of the return map: monodromy with the return-time
        # variation projected back onto the section
        DP = M - np.outer(v_T, v_sec @ M) / denom
        Jac = np.zeros((dim + 2, dim))
        Jac[:dim, :] = DP - np.eye(dim)
        Jac[dim, :] = v_sec
        Jac[dim + 1, :] = sys.gradient(z)
        step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
        lam = 1.0
        for _ in range(12):
            z_new = z + lam * step
            try:
                F_new, T_new, zT_new, M_new = residual(z_new)
            except (_NoReturn, SectionNotTransverse, StepFailure):
                lam *= 0.5     # trial point lost the section; shrink
                continue
            if la.norm(F_new) < norm_F:
                break
            lam *= 0.5
        else:
            raise MaxIterations("line search stalled in Newton shooting")
        z, F, T, zT, M = z_new, F_new, T_new, zT_new, M_new
    raise MaxIterations(f"no convergence after {max_iter} iterations "
                        f"(residual {la.norm(F):.2e})")


def _symplectic_pair_basis(C):
    """Symplectic basis (u_i, w_i) of the column span of C, s(u_i, w_j) = delta."""
    from .symplectic import symplectic_pairing

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


def linearized_poincare_map(sys, orbit, tol=1e-11):
    """Monodromy over one period and its transverse symplectic reduction.

    The section is the hyperplane orthogonal to the flow direction; the
    reduced map acts on a symplectic basis of the section intersected with
    the energy shell, so it is symplectic for the standard (2n-2)-form.
    """
    from .symplectic import standard_symplectic_matrix, symplectic_pairing

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
    J_red = standard_symplectic_matrix(m_red)
    defect = la.norm(red.T @ J_red @ red - J_red)
    if defect > 1e-6 * max(1.0, la.norm(red) ** 2):
        raise SectionNotTransverse(
            f"reduced map symplectic defect {defect:.2e}")
    cls = classify(red, mode=POINCARE_MAP)
    return MonodromyData(monodromy=M, reduced_map=red, classification=cls,
                         symplectic_defect=defect)


# ---------------------------------------------------------------------------
# averages and geometric control
# ---------------------------------------------------------------------------

def trajectory_average(sys, z0, T, observable, tol=1e-12):
    """(1/T) int_0^T observable(z(t)) dt along the flow, by ride-along
    quadrature inside the adaptive integrator."""
    z0 = np.asarray(z0, dtype=float)
    dim = 2 * sys.n

    def rhs(t, y):
        z = y[:dim]
        return np.concatenate([sys.vector_field(z), [observable(z)]])

    y0 = np.concatenate([z0, [0.0]])
    return _integrate(rhs, (0.0, T), y0, tol).y[dim, -1] / T


@dataclass
class ControlReport:
    n_samples: int
    controlled_fraction: float
    witnesses: list                  # (sample_index, time) pairs, |time| minimal found
    min_average: float
    horizon: float
    seed: int


def check_geometric_control(sys, damping, exclusion, T=50.0, n_samples=500,
                            seed=0, sample_box=(1.5, 0.2), speed=1.0,
                            tol=1e-8, scan_dt=0.05, threshold=1e-9):
    """Seeded check of the geometric control condition for the surface model.

    Samples phase points at the given speed outside the excluded
    neighborhood (counter-based Philox generator, so the draw is
    reproducible and splittable), then looks for a time |t| <= T at which
    the trajectory meets {damping > 0}. Also reports the smallest forward
    time-average of the damping over the samples.
    """
    r_max, _ = sample_box
    rng = np.random.Generator(np.random.Philox(seed))
    samples = []
    while len(samples) < n_samples:
        r = rng.uniform(-r_max, r_max)
        theta = rng.uniform(0.0, 2 * np.pi)
        psi = rng.uniform(0.0, 2 * np.pi)
        z = surface_state(sys, r, theta, psi, speed=speed)
        if not exclusion(sys, z):
            samples.append(z)

    t_grid = np.arange(0.0, T + scan_dt, scan_dt)
    witnesses = []
    min_avg = np.inf
    controlled = 0
    for idx, z in enumerate(samples):
        hit_time = None
        fwd = flow(sys, z, (0.0, T), tol=tol, t_eval=t_grid)
        vals = damping(fwd.states[:, 0])
        hits = np.nonzero(vals > threshold)[0]
        if hits.size:
            hit_time = t_grid[hits[0]]
        else:
            bwd = flow(sys, z, (0.0, -T), tol=tol, t_eval=-t_grid)
            vals_b = damping(bwd.states[:, 0])
            hits_b = np.nonzero(vals_b > threshold)[0]
            if hits_b.size:
                hit_time = -t_grid[hits_b[0]]
        if hit_time is not None:
            controlled += 1
            witnesses.append((idx, float(hit_time)))
        avg = trajectory_average(sys, z, T, lambda s: damping(s[0]), tol=1e-9)
        min_avg = min(min_avg, avg)
    return ControlReport(n_samples=n_samples,
                         controlled_fraction=controlled / n_samples,
                         witnesses=witnesses, min_average=float(min_avg),
                         horizon=T, seed=seed)
