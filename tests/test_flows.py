"""Flow integration, closed orbits, monodromy, averages, control checks."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from loxokit import cutoffs, flows
from loxokit import symplectic as sp
from loxokit.errors import StepFailure

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def cosh_surface():
    return flows.surface_of_revolution(profile="cosh")


@pytest.fixture(scope="module")
def neck_orbit(cosh_surface):
    guess = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    return flows.find_closed_orbit(cosh_surface, guess, 6.4)


def dilation_system(lam=0.6):
    """p = lam x xi, the flow is (x, xi) -> (x e^{lam t}, xi e^{-lam t})."""
    return flows.HamiltonianSystem(
        n=1,
        p=lambda z: lam * z[0] * z[1],
        gradient=lambda z: np.array([lam * z[1], lam * z[0]]))


# ---------------------------------------------------------------------------
# gradients and integration
# ---------------------------------------------------------------------------

def test_builtin_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.Philox(2))
    systems = [flows.surface_of_revolution(),
               flows.double_bump(),
               flows.harmonic_oscillator()]
    for sys in systems:
        for _ in range(5):
            z = rng.uniform(-1.0, 1.0, size=2 * sys.n)
            z[0] += 0.3        # keep clear of coordinate degeneracies
            assert flows.gradient_check(sys, z) <= 1e-5


@pytest.mark.parametrize("name", sorted(cutoffs.WARPS))
def test_surface_state_on_every_warp(name):
    # the phase point reads f from the warp registry: it sits on the shell
    # p = speed^2 / 2 with Clairaut constant f(r) |sin psi|, and the
    # gradient built from the warp's slope matches finite differences
    sys = flows.surface_of_revolution(name)
    f = cutoffs.get_warp(name).f
    for r in (-2.9, -1.5, -0.3, 0.0, 1.2, 1.7, 2.5):
        for psi in (0.4, 2.0, -1.1):
            for speed in (1.0, 2.5):
                z = flows.surface_state(sys, r, 0.3, psi, speed=speed)
                assert sys.p(z) == pytest.approx(0.5 * speed ** 2,
                                                 rel=1e-14)
                assert flows.clairaut_constant(sys, z) == pytest.approx(
                    f(r) * abs(np.sin(psi)), rel=1e-14)
                assert flows.gradient_check(sys, z) <= 1e-5


@pytest.mark.parametrize("sys", [flows.surface_of_revolution("cosh"),
                                 flows.surface_of_revolution("flat"),
                                 flows.surface_of_revolution("neck"),
                                 flows.double_bump(),
                                 flows.harmonic_oscillator()],
                         ids=["cosh", "flat", "neck", "double_bump",
                              "harmonic"])
def test_builtin_models_broadcast_over_columns(sys):
    # flow's energy check and check_geometric_control evaluate stacks
    Z = np.random.Generator(np.random.Philox(5)).uniform(
        -1.0, 1.0, size=(2 * sys.n, 7))
    for f in (sys.gradient, sys.p, sys.vector_field):
        by_column = np.stack([np.asarray(f(z)) for z in Z.T], axis=-1)
        assert np.array_equal(np.asarray(f(Z)), by_column)


def test_harmonic_flow_full_turn():
    sys = flows.harmonic_oscillator()
    res = flows.flow(sys, np.array([1.0, 0.0]), (0.0, TWO_PI), tol=1e-12)
    assert np.allclose(res.states[-1], [1.0, 0.0], atol=1e-10)
    assert res.energy_drift <= 1e-11


def test_dilation_flow_is_exponential():
    lam, t = 0.6, 0.8
    res = flows.flow(dilation_system(lam), np.array([2.0, 0.5]), (0.0, t),
                     tol=1e-12)
    want = [2.0 * np.exp(lam * t), 0.5 * np.exp(-lam * t)]
    assert np.allclose(res.states[-1], want, rtol=1e-9)


def test_neck_geodesic_stays_on_neck(cosh_surface):
    z0 = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    res = flows.flow(cosh_surface, z0, (0.0, TWO_PI), tol=1e-12,
                     t_eval=np.linspace(0.0, TWO_PI, 200))
    assert np.max(np.abs(res.states[:, 0])) <= 1e-9
    # theta advances by a full turn over one period
    assert res.states[-1, 1] == pytest.approx(TWO_PI, abs=1e-9)


def test_flow_reversal_returns_to_start():
    sys = flows.double_bump()
    z0 = np.array([0.3, 0.2, 0.5, -0.1])
    fwd = flows.flow(sys, z0, (0.0, 3.0), tol=1e-11)
    back = flows.flow(sys, fwd.states[-1], (0.0, -3.0), tol=1e-11)
    assert np.allclose(back.states[-1], z0, atol=1e-9)


def test_energy_conservation_long_run(cosh_surface):
    z0 = flows.surface_state(cosh_surface, 0.4, 0.0, 0.9)
    tol = 1e-10
    res = flows.flow(cosh_surface, z0, (0.0, 100.0), tol=tol)
    assert res.energy_drift <= 10 * tol * 100.0


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 5.0, 41),
                                    np.linspace(0.0, 4.3, 30)])
def test_flow_observable_integral_of_constant(cosh_surface, t_eval):
    # the integral covers the whole span, also past the last t_eval sample
    z0 = flows.surface_state(cosh_surface, 0.2, 0.0, 0.7)
    res = flows.flow(cosh_surface, z0, (0.0, 5.0), tol=1e-10, t_eval=t_eval,
                     observable=lambda z: 1.7)
    assert res.integral == pytest.approx(1.7 * 5.0, abs=1e-12)
    plain = flows.flow(cosh_surface, z0, (0.0, 5.0), tol=1e-10,
                       t_eval=t_eval)
    assert plain.integral is None
    if t_eval is not None:
        assert np.array_equal(res.times, t_eval)
        assert res.states.shape == (len(t_eval), 4)
        assert np.allclose(res.states, plain.states, atol=1e-8)


def test_flow_rejects_empty_span():
    sys = flows.harmonic_oscillator()
    for span in [(0.0, 0.0), (2.0, 2.0)]:
        with pytest.raises(ValueError, match="empty time span"):
            flows.flow(sys, np.array([1.0, 0.0]), span)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan])
def test_integration_rejects_unusable_tolerance(tol):
    sys = flows.harmonic_oscillator()
    with pytest.raises(ValueError, match="tolerance must be finite"):
        flows.flow(sys, np.array([1.0, 0.0]), (0.0, 1.0), tol=tol)


def test_hessian_is_the_central_difference_stencil():
    # same step rule and arithmetic as a hand-written loop, bit for bit
    sys = flows.double_bump()
    z = np.array([0.3, -0.2, 0.5, 0.1])
    H = np.empty((4, 4))
    for j in range(4):
        h = 6.0e-6 * max(1.0, abs(z[j]))
        zp = z.copy(); zp[j] += h
        zm = z.copy(); zm[j] -= h
        H[:, j] = (sys.gradient(zp) - sys.gradient(zm)) / (2 * h)
    assert np.array_equal(sys.hessian(z), 0.5 * (H + H.T))


def test_gauss_newton_shrinks_rejected_trials():
    # the full step lands where the residual refuses to evaluate; the
    # driver halves it instead of failing
    def residual(x):
        if x[0] > 1.5:
            raise flows.StepFailure("outside the domain")
        return np.array([x[0] ** 2 - 1.0]), None

    x, norm_F, _ = flows._gauss_newton(
        residual, lambda x, aux: np.array([[2.0 * x[0]]]),
        np.array([0.1]), 1e-12, 40)
    assert x[0] == pytest.approx(1.0, abs=1e-12) and norm_F <= 1e-12


# ---------------------------------------------------------------------------
# closed orbits
# ---------------------------------------------------------------------------

def test_neck_orbit_from_exact_guess(neck_orbit):
    assert neck_orbit.period == pytest.approx(TWO_PI, abs=1e-8)
    assert neck_orbit.residual <= 1e-8
    assert abs(neck_orbit.point[0]) <= 1e-9


def test_neck_orbit_from_offset_guess(cosh_surface):
    # r = 0.05 displaces the guess so far up the funnel that it escapes
    # before a full period; the chain must still pull it onto the
    # length-2pi geodesic
    guess = flows.surface_state(cosh_surface, 0.05, 0.0, np.pi / 2)
    orbit = flows.find_closed_orbit(cosh_surface, guess, 6.4)
    assert orbit.period == pytest.approx(TWO_PI, abs=1e-9)
    assert abs(orbit.point[0]) <= 1e-8
    assert orbit.residual <= flows.SHOOT_TOL


def test_neck_orbit_from_near_guess_by_return_map_newton(cosh_surface):
    # r = 1e-4 is off the orbit by far more than the chain tolerance, so
    # Newton steps on the closing residual, not the first residual, close it
    guess = flows.surface_state(cosh_surface, 1e-4, 0.0, np.pi / 2)
    orbit = flows.find_closed_orbit(cosh_surface, guess, flows.NECK_PERIOD)
    assert orbit.period == pytest.approx(TWO_PI, abs=1e-9)
    assert abs(orbit.point[0]) <= 1e-8
    assert orbit.residual <= flows.SHOOT_TOL


def test_far_guess_raises(cosh_surface):
    guess = flows.surface_state(cosh_surface, 2.5, 0.0, 0.3)
    with pytest.raises(flows.MaxIterations):
        flows.find_closed_orbit(cosh_surface, guess, 6.4)


@pytest.mark.parametrize("period_guess", [0.0, -6.4, np.inf, np.nan])
def test_closed_orbit_rejects_unusable_period_guess(cosh_surface,
                                                   period_guess):
    guess = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    with pytest.raises(ValueError, match="period_guess must be finite"):
        flows.find_closed_orbit(cosh_surface, guess, period_guess)


def test_closed_orbit_rejects_unusable_tolerance(cosh_surface):
    guess = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        flows.find_closed_orbit(cosh_surface, guess, 6.4, tol=0.0)


def axis_period_oracle(sys, energy):
    """Quadrature oracle for the bump model's axis-bouncing orbit.

    On the symmetry axis the motion is one-dimensional with potential
    V(x, 0), so the period is 2 int dx / sqrt(2 (E - V)) between turning
    points, evaluated with an endpoint-regularizing substitution.
    """
    V = lambda x: sys.p(np.array([x, 0.0, 0.0, 0.0]))
    x_turn = scipy.optimize.brentq(lambda x: V(x) - energy, 0.0,
                                   sys.params["separation"])

    def integrand(u):
        x = x_turn * np.sin(u)
        return 2.0 * x_turn * np.cos(u) / np.sqrt(2.0 * (energy - V(x)))

    val, err = scipy.integrate.quad(integrand, -np.pi / 2, np.pi / 2,
                                    limit=200)
    assert err < 1e-9
    return val


def test_bump_axis_orbit_period_matches_quadrature():
    sys = flows.double_bump()
    orbit = flows.find_closed_orbit(sys, np.array([0.0, 0.0, 0.9, 0.0]), 6.0)
    assert abs(orbit.point[1]) <= 1e-8      # stays on the axis
    want = axis_period_oracle(sys, orbit.energy)
    assert orbit.period == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("y", [1e-3, 0.02, 0.05, 0.2])
def test_bump_orbit_from_escaping_guess_by_segment_chain(y):
    # from y = 0.02 on, the guess leaves the axis before a full period;
    # the bump model has no cyclic coordinate, so the chain's nodes start
    # on the guess's own trajectory
    sys = flows.double_bump()
    orbit = flows.find_closed_orbit(sys, np.array([0.0, y, 0.9, 0.0]), 6.0)
    assert abs(orbit.point[1]) <= 1e-8
    want = axis_period_oracle(sys, orbit.energy)
    assert orbit.period == pytest.approx(want, rel=1e-7)
    assert orbit.residual <= flows.SHOOT_TOL


def test_segment_chain_closes_the_orbit_without_a_newton_restart(
        monkeypatch):
    # one Gauss-Newton solve of the chain reaches SHOOT_TOL, so its node 0
    # is the orbit: no second solve is started from it
    calls = []
    original = flows._gauss_newton

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(flows, "_gauss_newton", counting)
    sys = flows.double_bump()
    orbit = flows.find_closed_orbit(sys, np.array([0.0, 0.02, 0.9, 0.0]),
                                    6.0)
    assert len(calls) == 1
    want = axis_period_oracle(sys, orbit.energy)
    assert orbit.period == pytest.approx(want, rel=1e-7)
    assert orbit.residual <= flows.SHOOT_TOL


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_neck_monodromy_against_jacobi_oracle(cosh_surface, neck_orbit):
    # curvature -1 on the neck: the transverse Jacobi equation J'' = J has
    # fundamental solution [[cosh t, sinh t], [sinh t, cosh t]], so the
    # period map has eigenvalues exp(+-2 pi)
    mono = flows.linearized_poincare_map(cosh_surface, neck_orbit)
    eigs = np.sort(np.linalg.eigvals(mono.reduced_map).real)
    assert eigs[0] == pytest.approx(np.exp(-TWO_PI), rel=1e-3)
    assert eigs[1] == pytest.approx(np.exp(TWO_PI), rel=1e-3)
    assert mono.symplectic_defect <= 1e-6
    assert np.linalg.det(mono.reduced_map) == pytest.approx(1.0, abs=1e-6)
    c = mono.classification
    assert c.is_loxodromic and not c.has_negative_real
    assert isinstance(c.groups[0], sp.RealHyperbolicPair)
    assert c.groups[0].lam == pytest.approx(TWO_PI, rel=1e-3)


def test_reduced_map_refused_at_classify_bound(cosh_surface, neck_orbit,
                                               monkeypatch):
    # a monodromy off by 1% gives the neck's reduced map a symplectic
    # defect of about 3e-2, under 1e-6 ||red||_F^2; relative to the
    # columns it pairs it is 2e-7, over classify's SYMPLECTIC_TOL, so the
    # orbit layer must refuse it as a numerical failure before classify
    # sees it as an input error
    exact = flows._flow_with_monodromy

    def perturbed(*args, **kwargs):
        zT, M = exact(*args, **kwargs)
        return zT, 1.01 * M

    monkeypatch.setattr(flows, "_flow_with_monodromy", perturbed)
    with pytest.raises(flows.SectionNotTransverse, match="symplectic defect"):
        flows.linearized_poincare_map(cosh_surface, neck_orbit)


def test_flat_cylinder_is_not_loxodromic():
    sys = flows.surface_of_revolution(profile="flat")
    guess = flows.surface_state(sys, 0.0, 0.0, np.pi / 2)
    orbit = flows.find_closed_orbit(sys, guess, 6.4)
    assert orbit.period == pytest.approx(TWO_PI, abs=1e-8)
    mono = flows.linearized_poincare_map(sys, orbit)
    eigs = np.linalg.eigvals(mono.reduced_map)
    assert np.allclose(np.abs(eigs), 1.0, atol=1e-6)
    assert not mono.classification.is_loxodromic


def test_bump_monodromy_hyperbolic_and_step_consistent():
    sys = flows.double_bump()
    orbit = flows.find_closed_orbit(sys, np.array([0.0, 0.0, 0.9, 0.0]), 6.0)
    mono = flows.linearized_poincare_map(sys, orbit)
    eigs = np.sort(np.linalg.eigvals(mono.reduced_map).real)
    assert eigs[1] > 1.0 and 0.0 < eigs[0] < 1.0
    assert eigs[0] * eigs[1] == pytest.approx(1.0, abs=1e-6)
    # cross-check at a coarser integrator tolerance
    mono2 = flows.linearized_poincare_map(sys, orbit, tol=1e-9)
    eigs2 = np.sort(np.linalg.eigvals(mono2.reduced_map).real)
    assert eigs2[1] == pytest.approx(eigs[1], rel=1e-4)


def test_symplectic_pair_basis_of_a_generic_span():
    # a 4-column span in R^6, where the second pair comes out of the
    # re-orthogonalization against the first (every model section has a
    # single pair, so no orbit runs it)
    C = np.random.Generator(np.random.Philox(11)).standard_normal((6, 4))
    P = flows._symplectic_pair_basis(C)
    assert P.shape == (6, 4)
    us, ws = P[:, :2], P[:, 2:]
    for i in range(2):
        for j in range(2):
            assert sp.symplectic_pairing(us[:, i], ws[:, j]) == pytest.approx(
                float(i == j), abs=1e-12)
            assert abs(sp.symplectic_pairing(us[:, i], us[:, j])) <= 1e-12
            assert abs(sp.symplectic_pairing(ws[:, i], ws[:, j])) <= 1e-12
    # P spans the columns of C: rank 4, and C's projector fixes it
    assert np.linalg.matrix_rank(P) == 4
    coef = np.linalg.lstsq(C, P, rcond=None)[0]
    assert np.abs(C @ coef - P).max() <= 1e-12 * np.abs(P).max()


# ---------------------------------------------------------------------------
# averages along the flow
# ---------------------------------------------------------------------------

def test_average_of_sin_squared(cosh_surface):
    z0 = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    avg = flows.trajectory_average(cosh_surface, z0, TWO_PI,
                                   lambda z: np.sin(z[1]) ** 2)
    assert avg == pytest.approx(0.5, abs=1e-10)


def test_average_of_constant(cosh_surface):
    z0 = flows.surface_state(cosh_surface, 0.2, 0.0, 0.7)
    avg = flows.trajectory_average(cosh_surface, z0, 5.0, lambda z: 1.7)
    assert avg == pytest.approx(1.7, abs=1e-12)


def test_meridian_geodesic_sees_damping(cosh_surface):
    a = flows.meridian_damping(0.5, 1.0)
    z0 = flows.surface_state(cosh_surface, 0.0, 0.0, 0.0)   # pure meridian
    avg = flows.trajectory_average(cosh_surface, z0, 10.0,
                                   lambda z: a(z[0]))
    assert avg > 0.5


def test_average_rejects_zero_horizon(cosh_surface):
    z0 = flows.surface_state(cosh_surface, 0.2, 0.0, 0.7)
    with pytest.raises(ValueError):
        flows.trajectory_average(cosh_surface, z0, 0.0, lambda z: 1.0)


def test_backward_average(cosh_surface):
    # a negative T averages over the backward trajectory
    z0 = flows.surface_state(cosh_surface, 0.0, 0.0, np.pi / 2)
    avg = flows.trajectory_average(cosh_surface, z0, -TWO_PI,
                                   lambda z: np.sin(z[1]) ** 2)
    assert avg == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# geometric control
# ---------------------------------------------------------------------------

def test_control_with_global_damping(cosh_surface):
    rep = flows.check_geometric_control(
        cosh_surface, lambda r: 1.0 + 0.0 * np.asarray(r),
        flows.neck_exclusion(), T=5.0, n_samples=40, seed=1)
    assert rep.controlled_fraction == 1.0
    assert rep.min_average == pytest.approx(1.0, abs=1e-9)


def test_control_without_damping(cosh_surface):
    rep = flows.check_geometric_control(
        cosh_surface, lambda r: 0.0 * np.asarray(r),
        flows.neck_exclusion(), T=5.0, n_samples=40, seed=1)
    assert rep.controlled_fraction == 0.0


def test_control_on_neck_model(cosh_surface):
    rep = flows.check_geometric_control(
        cosh_surface, flows.meridian_damping(0.5, 1.0),
        flows.neck_exclusion(), T=50.0, n_samples=80, seed=3)
    assert rep.controlled_fraction == 1.0
    assert rep.min_average > 0.0
    assert len(rep.witnesses) == 80


def test_control_is_seed_deterministic(cosh_surface):
    kw = dict(T=20.0, n_samples=25, seed=11)
    a = flows.meridian_damping(0.5, 1.0)
    rep1 = flows.check_geometric_control(cosh_surface, a,
                                         flows.neck_exclusion(), **kw)
    rep2 = flows.check_geometric_control(cosh_surface, a,
                                         flows.neck_exclusion(), **kw)
    assert rep1.min_average == rep2.min_average
    assert rep1.witnesses == rep2.witnesses


def test_control_regression_pin(cosh_surface):
    # the average rides along in the forward run at tol = 1e-8; it agrees
    # with the former separate average pass (tol 1e-9) to 1e-6
    rep = flows.check_geometric_control(
        cosh_surface, flows.meridian_damping(0.5, 1.0),
        flows.neck_exclusion(), T=20.0, n_samples=25, seed=11)
    assert rep.controlled_fraction == 1.0
    assert rep.min_average == pytest.approx(0.6845391900607233, abs=1e-6)


@pytest.mark.parametrize("kw", [dict(n_samples=0), dict(T=0.0),
                                dict(T=-5.0), dict(n_samples=2.5),
                                dict(T=np.inf)])
def test_control_rejects_degenerate_inputs(cosh_surface, kw):
    args = dict(T=5.0, n_samples=4, seed=1) | kw
    with pytest.raises(ValueError):
        flows.check_geometric_control(
            cosh_surface, flows.meridian_damping(0.5, 1.0),
            flows.neck_exclusion(), **args)


@pytest.mark.parametrize("T", [0.3, 0.33, 0.01])
def test_control_horizon_off_the_scan_lattice(cosh_surface, T):
    # np.arange(0, T + dt, dt) ends past T here; the scan must stop at T
    rep = flows.check_geometric_control(
        cosh_surface, lambda r: 1.0 + 0.0 * np.asarray(r),
        flows.neck_exclusion(), T=T, n_samples=3, seed=1)
    assert rep.controlled_fraction == 1.0
    assert rep.min_average == pytest.approx(1.0, abs=1e-9)


def _control_draws(sys, exclusion, n_samples, seed):
    """check_geometric_control's Philox draw, one sample at a time."""
    rng = np.random.Generator(np.random.Philox(seed))
    samples = []
    while len(samples) < n_samples:
        r = rng.uniform(-flows.CONTROL_R_MAX, flows.CONTROL_R_MAX)
        theta = rng.uniform(0.0, TWO_PI)
        psi = rng.uniform(0.0, TWO_PI)
        z = flows.surface_state(sys, r, theta, psi)
        if not exclusion(sys, z):
            samples.append(z)
    return samples


def _control_by_sample(sys, damping, samples, T, tol):
    """Witnesses and forward damping averages from one flow per sample,
    plus one backward flow per sample that misses the damping forward."""
    dt = flows.CONTROL_SCAN_DT
    t_grid = np.arange(0.0, T + dt, dt)
    t_grid = t_grid[t_grid <= T]

    def first_hit(res):
        hits = np.nonzero(damping(res.states[:, 0])
                          > flows.CONTROL_THRESHOLD)[0]
        return float(res.times[hits[0]]) if hits.size else None

    witnesses, averages = [], []
    for idx, z in enumerate(samples):
        fwd = flows.flow(sys, z, (0.0, T), tol=tol, t_eval=t_grid,
                         observable=lambda s: damping(s[0]))
        averages.append(fwd.integral / T)
        hit = first_hit(fwd)
        if hit is None:
            hit = first_hit(flows.flow(sys, z, (0.0, -T), tol=tol,
                                       t_eval=-t_grid))
        if hit is not None:
            witnesses.append((idx, hit))
    return witnesses, averages


@pytest.mark.parametrize("seed", [5, 2024])
def test_batched_control_matches_per_sample_flows(cosh_surface, seed):
    # 110 samples span three column batches
    a, neck = flows.meridian_damping(0.5, 1.0), flows.neck_exclusion()
    n, T = 110, 10.0
    rep = flows.check_geometric_control(cosh_surface, a, neck, T=T,
                                        n_samples=n, seed=seed)
    samples = _control_draws(cosh_surface, neck, n, seed)
    witnesses, _ = _control_by_sample(cosh_surface, a, samples, T, 1e-8)
    assert rep.witnesses == witnesses
    assert rep.controlled_fraction == len(witnesses) / n
    _, accurate = _control_by_sample(cosh_surface, a, samples, T, 1e-12)
    assert rep.min_average == pytest.approx(min(accurate), abs=1e-6)


def test_batched_control_one_sided_damping_hits_backward(cosh_surface):
    # damping on r < -0.5 only: samples that escape to r > 0 forward are
    # controlled, if at all, by the batched backward run
    a = lambda r: cutoffs.smooth_bridge((-np.asarray(r) - 0.5) / 0.5)
    neck, n, T = flows.neck_exclusion(), 60, 10.0
    rep = flows.check_geometric_control(cosh_surface, a, neck, T=T,
                                        n_samples=n, seed=8)
    samples = _control_draws(cosh_surface, neck, n, 8)
    witnesses, averages = _control_by_sample(cosh_surface, a, samples, T,
                                             1e-8)
    assert rep.witnesses == witnesses
    assert rep.controlled_fraction == len(witnesses) / n < 1.0
    assert any(t < 0 for _, t in witnesses)
    assert rep.min_average == pytest.approx(min(averages), abs=1e-6)


def test_batched_control_column_over_energy_budget_raises(cosh_surface):
    neck, n, T = flows.neck_exclusion(), 12, 5.0
    samples = _control_draws(cosh_surface, neck, n, 3)
    c = samples[4][3]      # p_theta, conserved along every column's flow

    def gradient(z):
        # a push along p_r on the level p_theta = c only: that column's
        # energy drifts by about 3x its budget, less than the budget when
        # averaged over the 12 columns; the others follow the geodesic flow
        g = cosh_surface.gradient(z)
        g[0] = g[0] - 3e-7 * np.exp(-((z[3] - c) / 1e-6) ** 2)
        return g

    leaky = dataclasses.replace(cosh_surface, gradient=gradient)
    a = flows.meridian_damping(0.5, 1.0)
    for j, z in enumerate(samples):
        if j == 4:
            with pytest.raises(StepFailure):
                flows.flow(leaky, z, (0.0, T), tol=1e-8)
        else:
            flows.flow(leaky, z, (0.0, T), tol=1e-8)
    with pytest.raises(StepFailure):
        flows.check_geometric_control(leaky, a, neck, T=T, n_samples=n,
                                      seed=3)


def test_one_neck_damping():
    from loxokit import cutoffs, dampedwave
    assert flows.meridian_damping is cutoffs.neck_damping
    assert dampedwave.neck_damping is cutoffs.neck_damping


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_system_from_config_roundtrip():
    sys = flows.system_from_config(
        {"model": "surface_of_revolution", "profile": "cosh"})
    assert sys.model_tag == "surface_of_revolution"
    assert sys.params["profile"] == "cosh"


def test_system_from_config_rejects_unknown_model():
    with pytest.raises(ValueError):
        flows.system_from_config({"model": "pendulum"})


def test_system_from_config_rejects_bad_params():
    for cfg in ({"model": "harmonic", "bogus": 1.0},
                {"model": "surface_of_revolution", "R": 3.0}):
        with pytest.raises(ValueError, match="bad parameters"):
            flows.system_from_config(cfg)
