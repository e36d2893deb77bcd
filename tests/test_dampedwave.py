"""Damped wave on a warped period: pencil assembly, parity sectors,
eigenfrequency structure, exact-propagator energy traces. The dense
first-order generator on the whole grid, which the library no longer
builds, is the oracle of the sector roots and marches."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from scipy.optimize import linear_sum_assignment

from loxokit import dampedwave as dw
from loxokit import spectra
from loxokit.cutoffs import get_warp


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def const(c):
    return lambda r: c * np.ones_like(np.asarray(r, dtype=float))


@pytest.fixture(scope="module")
def default_problem():
    return dw.DampedWaveProblem()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError, match="n_grid must be at least 32, not 16"):
        dw.DampedWaveProblem(n_grid=16)
    for epsilon in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"epsilon .* not {epsilon}"):
            dw.DampedWaveProblem(epsilon=epsilon)
    with pytest.raises(ValueError):
        # constant damping violates the declared dead zone
        dw.DampedWaveProblem(damping=const(0.2))
    dw.DampedWaveProblem(damping=const(0.2), dead_zone_radius=None)
    # cosh has slope sinh 3 where the period-6 circle wraps, and the neck
    # warp flattens out only for |r| >= 2
    with pytest.raises(ValueError, match="does not close up"):
        dw.DampedWaveProblem(profile="cosh")
    with pytest.raises(ValueError, match="unknown warp"):
        dw.DampedWaveProblem(profile="saddle")


def test_pencil_of_any_mode(default_problem):
    # each call names its modes; the problem holds no mode list that a
    # pencil must belong to
    pencil = dw.assemble_pencil(default_problem, 99)
    shift = pencil.zeroth - dw.assemble_pencil(default_problem, 0).zeroth
    want = 99**2 / default_problem.f**2
    assert np.allclose(np.diag(shift), want, rtol=1e-12, atol=0)
    assert np.array_equal(shift, np.diag(np.diag(shift)))


def delta_matrix(pencil):
    """The mode operator back in the physical frame (f-weighted)."""
    scale = np.sqrt(pencil.problem.f)
    return (pencil.zeroth / scale[:, None]) * scale[None, :]


def test_mode_operator_weighted_symmetric(default_problem):
    # the physical-frame operator is similar to a symmetric matrix, so it
    # is symmetric for the f-weighted pairing: diag(f) D = S L S
    D = delta_matrix(dw.assemble_pencil(default_problem, 5))
    FD = default_problem.f[:, None] * D
    assert np.abs(FD - FD.T).max() <= 1e-12 * np.abs(FD).max()


def test_pencil_coefficients(default_problem):
    # the pencil stores only its symmetric operator; -1 and 2i a are read
    # from the problem
    pencil = dw.assemble_pencil(default_problem, 3)
    assert set(vars(pencil)) == {"k", "zeroth", "problem"}
    assert pencil.k == 3 and pencil.problem is default_problem
    zeroth = pencil.zeroth
    assert zeroth.shape == (default_problem.n_grid,) * 2
    assert np.abs(zeroth - zeroth.T).max() <= 1e-10


def scatter_assembly(problem, k):
    """Reference assembly: the flux stencil scattered edge by edge into a
    dense zero matrix, then symmetrized and shifted by k^2 / f^2."""
    n = problem.n_grid
    L = np.zeros((n, n))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    half = problem.r + 0.5 * problem.spacing  # the last one wraps
    w = get_warp(problem.profile).f(half) / problem.spacing**2
    np.add.at(L, (idx, idx), w)
    np.add.at(L, (nxt, nxt), w)
    np.add.at(L, (idx, nxt), -w)
    np.add.at(L, (nxt, idx), -w)
    scale = 1.0 / np.sqrt(problem.f)
    L = L * scale[:, None] * scale[None, :]
    L[idx, idx] += k**2 / problem.f**2
    return L


@pytest.mark.parametrize("n_grid", [32, 48, 192, 288])
@pytest.mark.parametrize("warp", ["neck", "flat"])
def test_direct_assembly_matches_scatter(n_grid, warp):
    prob = dw.DampedWaveProblem(n_grid=n_grid, profile=warp)
    for k in (0, 1, 7, 40):
        got = dw.assemble_pencil(prob, k).zeroth
        assert np.array_equal(got, scatter_assembly(prob, k))


@pytest.mark.parametrize("k", [0, 5, 20, 40])
def test_periodic_operator_without_its_wrap_node_is_spectra_operator(
        default_problem, k):
    # deleting the node r = -3, where the period wraps, leaves spectra's
    # Dirichlet operator on [-3, 3] over the same 191 nodes: both come
    # from one stencil, so they agree bit for bit
    zeroth = dw.assemble_pencil(default_problem, k).zeroth[1:, 1:]
    op = spectra.build_radial_operator(k, 3.0, 191, "neck")
    assert np.array_equal(op.nodes, default_problem.r[1:])
    assert np.array_equal(np.diag(zeroth), op.sym_diag)
    assert np.array_equal(np.diag(zeroth, 1), op.sym_off)


def reflection_basis(n_grid):
    """Orthonormal columns e_0, (e_j + e_{n-j})/sqrt 2 (0 < j < h), e_h,
    then (e_j - e_{n-j})/sqrt 2 (0 < j < h): the even and odd bases that
    parity_sectors and fold use, h = n_grid / 2."""
    h = n_grid // 2
    Q = np.zeros((n_grid, n_grid))
    Q[0, 0] = Q[h, h] = 1.0
    for j in range(1, h):
        Q[j, j] = Q[n_grid - j, j] = 1 / math.sqrt(2)
        Q[j, h + j] = 1 / math.sqrt(2)
        Q[n_grid - j, h + j] = -1 / math.sqrt(2)
    return Q


@pytest.mark.parametrize("n_grid", [32, 192])
@pytest.mark.parametrize("k", [0, 20])
def test_parity_sectors_are_the_reflection_blocks(n_grid, k):
    # in the reflection basis the operator is block diagonal, its blocks
    # are the two sectors, and fold is the change of basis
    prob = dw.DampedWaveProblem(n_grid=n_grid)
    pencil = dw.assemble_pencil(prob, k)
    Q = reflection_basis(n_grid)
    assert np.abs(Q.T @ Q - np.eye(n_grid)).max() <= 1e-15
    (even, a_even), (odd, a_odd) = dw.parity_sectors(pencil)
    h = n_grid // 2
    assert even.shape == (h + 1, h + 1) and odd.shape == (h - 1, h - 1)
    blocks = la.block_diag(even, odd)
    L = pencil.zeroth
    assert np.abs(Q.T @ L @ Q - blocks).max() <= 1e-14 * np.abs(L).max()
    damping = Q.T @ np.diag(prob.a) @ Q
    assert np.abs(damping - np.diag(np.concatenate([a_even, a_odd]))).max() \
        <= 1e-15
    # both sectors are tridiagonal: the periodic wrap is folded away
    for block in (even, odd):
        assert np.array_equal(block, np.triu(np.tril(block, 1), -1))
    w = np.random.Generator(np.random.Philox(7)).standard_normal(n_grid)
    assert np.abs(np.concatenate(dw.fold(w)) - Q.T @ w).max() <= 4e-15


def first_order_generator(pencil):
    """Real generator A = [[0, I], [-L, -2a]] of the mode's first-order
    system d/dt (w, w_t) = A (w, w_t) on the whole grid: the dense oracle
    of the two sector generators."""
    n = pencil.problem.n_grid
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -pencil.zeroth
    A[n:, n:] = -2.0 * np.diag(pencil.problem.a)
    return A


def match_roots(got, want):
    """|got - want| of each root after pairing the two sets one to one;
    sorting is not stable for roots whose real parts are zero up to
    roundoff."""
    dist = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(dist)
    return dist[rows, cols]


@pytest.mark.parametrize("k", [0, 5, 20, 40])
def test_sector_roots_and_eigenvalues_match_the_dense_oracle(
        default_problem, k):
    # the largest gap, 2.2e-12 at k = 0, is a root near the imaginary axis
    # (0.141 + 0.929i), which both solves place about 1e-12 from the exact
    # root; relative to the largest root every gap is below 4e-14
    pencil = dw.assemble_pencil(default_problem, k)
    got = dw.eigenfrequencies(pencil).frequencies
    want = -1j * np.linalg.eigvals(first_order_generator(pencil))
    assert got.size == want.size == 2 * default_problem.n_grid
    assert match_roots(got, want).max() <= 1e-12 * np.abs(want).max()
    lam = dw.mode_frame(pencil).lam
    merged = np.sort(np.concatenate(
        [dw._eigh(zeroth)[0] for zeroth, _ in dw.parity_sectors(pencil)]))
    assert np.abs(merged - lam).max() <= 1e-14 * lam.max()


def test_default_initial_is_synthesized_on_the_whole_grid():
    # the data come from the whole grid's eigh, bit for bit as before the
    # sector split, not from either sector's eigenbasis
    prob = dw.DampedWaveProblem()
    for k in (0, 5, 40):
        pencil = dw.assemble_pencil(prob, k)
        lam, basis = la.eigh(pencil.zeroth)
        j = np.arange(dw.N_LOW)
        c = np.zeros(prob.n_grid)
        c[:dw.N_LOW] = (-1.0) ** j / (1.0 + j)
        want = (basis @ c) / math.sqrt(prob.spacing) / np.sqrt(prob.f)
        u0, v0 = dw.default_initial(dw.mode_frame(pencil))
        assert not np.any(u0)
        assert np.array_equal(v0, want)


# ---------------------------------------------------------------------------
# eigenfrequencies
# ---------------------------------------------------------------------------

def test_flat_undamped_spectrum_is_real_sqrt_ladder():
    prob = dw.DampedWaveProblem(profile="flat", damping=zero)
    pencil = dw.assemble_pencil(prob, 3)
    lam = dw.mode_frame(pencil).lam
    es = dw.eigenfrequencies(pencil)
    taus = es.frequencies
    assert taus.size == 2 * prob.n_grid
    assert np.abs(taus.imag).max() <= 1e-8
    # every root squares to a discrete Laplacian-plus-k^2 eigenvalue
    worst = max(np.min(np.abs(t ** 2 - lam)) for t in taus)
    assert worst <= 1e-10 * lam.max()
    # low frequencies agree with the continuum sqrt((pi m / 3)^2 + k^2)
    pos = np.sort(taus.real[taus.real > 0.1])
    for m, idx in ((0, 0), (1, 1), (2, 3), (3, 5)):
        want = math.sqrt((math.pi * m / 3.0) ** 2 + 9.0)
        assert pos[idx] == pytest.approx(want, rel=1e-3)


def test_constant_damping_scalar_quadratic_oracle():
    # a == c shifts every undamped pair to i c +- sqrt(mu^2 - c^2)
    c = 0.15
    prob = dw.DampedWaveProblem(profile="flat", damping=const(c),
                                dead_zone_radius=None)
    pencil = dw.assemble_pencil(prob, 2)
    lam = dw.mode_frame(pencil).lam
    got = dw.eigenfrequencies(pencil).frequencies
    want = np.concatenate([1j * c + np.sqrt(lam - c ** 2 + 0j),
                           1j * c - np.sqrt(lam - c ** 2 + 0j)])
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    diff = np.abs(np.array(sorted(got, key=key))
                  - np.array(sorted(want, key=key)))
    assert diff.max() <= 1e-8


def test_strip_and_mirror_diagnostics(default_problem):
    for k in (1, 7):
        es = dw.eigenfrequencies(dw.assemble_pencil(default_problem, k))
        assert es.strip_margin <= 1e-8
        assert es.symmetry_defect <= 1e-8
        assert es.frequencies.imag.min() >= -1e-8
        assert es.frequencies.imag.max() <= 2.0 + 1e-8


def companion_roots(pencil):
    """Pencil roots from the complex companion [[0, I], [L, 2i a]], solved
    with the complex eigensolver: the linearization eigenfrequencies used
    before the real generator."""
    n = pencil.problem.n_grid
    comp = np.zeros((2 * n, 2 * n), dtype=complex)
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = pencil.zeroth
    comp[n:, n:] = 2j * np.diag(pencil.problem.a)
    return la.eigvals(comp)


@pytest.mark.parametrize("k", [0, 7, 40])
def test_real_generator_roots_match_complex_companion(default_problem, k):
    pencil = dw.assemble_pencil(default_problem, k)
    got = dw.eigenfrequencies(pencil).frequencies
    want = companion_roots(pencil)
    assert got.size == want.size == 2 * default_problem.n_grid
    assert match_roots(got, want).max() <= 1e-10


def test_scan_matches_per_mode_eigenfrequencies():
    prob = dw.DampedWaveProblem(n_grid=64)
    sets, strip, mirror = dw.eigenfrequency_scan(prob, modes=(9, 0))
    assert [es.k for es in sets] == [9, 0]
    for es in sets:
        want = dw.eigenfrequencies(dw.assemble_pencil(prob, es.k))
        assert np.array_equal(es.frequencies, want.frequencies)
        assert es.strip_margin == want.strip_margin
        assert es.symmetry_defect == want.symmetry_defect
    assert strip == max(es.strip_margin for es in sets)
    assert mirror == max(es.symmetry_defect for es in sets)


def test_scan_reports_the_signed_strip_margin():
    # every root of mode 5 lies strictly inside the strip, and the scan
    # says by how much instead of clamping the margin at 0
    _, strip, _ = dw.eigenfrequency_scan(dw.DampedWaveProblem(n_grid=64),
                                         modes=(5,))
    assert strip < 0


def odd_sector_only(corrupt, n_grid):
    """np.linalg.eig that applies corrupt to the result of the odd
    sector, whose generator is n_grid - 2 wide (the even one's is
    n_grid + 2)."""
    real_eig = np.linalg.eig

    def eig(A):
        mus, vecs = real_eig(A)
        if A.shape[0] == n_grid - 2:
            return corrupt(mus, vecs)
        return mus, vecs

    return eig


def test_trace_check_catches_a_repeated_root(monkeypatch):
    # copy one conjugate pair of eigenpairs over another in the odd
    # sector: every eigenpair keeps its small residual, the roots stay in
    # the strip and mirror symmetric, and only the sum of the sector's
    # roots misses its trace
    pencil = dw.assemble_pencil(dw.DampedWaveProblem(n_grid=64), 3)

    def repeat_a_pair(mus, vecs):
        first = np.flatnonzero(mus.imag > 0)
        j, i = first[0], first[1]
        mus[[j, j + 1]] = mus[[i, i + 1]]
        vecs[:, [j, j + 1]] = vecs[:, [i, i + 1]]
        return mus, vecs

    es = dw.eigenfrequencies(pencil)
    assert es.symmetry_defect == 0.0
    monkeypatch.setattr(np.linalg, "eig", odd_sector_only(repeat_a_pair, 64))
    with pytest.raises(dw.DampedWaveError,
                       match="odd sector roots miss the generator trace .* "
                             "at mode 3: a root is missing or repeated"):
        dw.eigenfrequencies(pencil)


def test_trace_check_catches_a_root_dropped_from_one_sector(monkeypatch):
    # drop one conjugate pair from the odd sector: the rest keep their
    # residuals, strip and mirrors, and the merged set is two roots short;
    # only the odd sector's trace check sees it
    pencil = dw.assemble_pencil(dw.DampedWaveProblem(n_grid=64), 3)

    def drop_a_pair(mus, vecs):
        j = np.flatnonzero(mus.imag > 0)[0]
        keep = np.delete(np.arange(mus.size), [j, j + 1])
        return mus[keep], vecs[:, keep]

    monkeypatch.setattr(np.linalg, "eig", odd_sector_only(drop_a_pair, 64))
    with pytest.raises(dw.DampedWaveError,
                       match="odd sector roots miss the generator trace .* "
                             "at mode 3: a root is missing or repeated"):
        dw.eigenfrequencies(pencil)


def test_mirror_check_catches_an_unpaired_root(monkeypatch):
    # copy one eigenpair over the conjugate partner of another: residuals
    # and strip hold, but the first root has lost its mirror -conj(tau)
    pencil = dw.assemble_pencil(dw.DampedWaveProblem(n_grid=64), 3)
    real_eig = np.linalg.eig

    def unpair(A):
        mus, vecs = real_eig(A)
        first = np.flatnonzero(mus.imag > 0)
        j, i = first[0], first[1]
        mus[j + 1] = mus[i]
        vecs[:, j + 1] = vecs[:, i]
        return mus, vecs

    monkeypatch.setattr(np.linalg, "eig", unpair)
    with pytest.raises(dw.DampedWaveError,
                       match="not mirror symmetric .* at mode 3"):
        dw.eigenfrequencies(pencil)


def gap_profile(n_grid):
    """min over modes and |Re tau| >= 1 of Im tau * log<Re tau>."""
    prob = dw.DampedWaveProblem(n_grid=n_grid)
    best = np.inf
    for es in dw.eigenfrequency_scan(prob, modes=range(0, 41, 4))[0]:
        t = es.frequencies
        sel = np.abs(t.real) >= 1.0
        vals = t.imag[sel] * np.log(np.hypot(1.0, t.real[sel]))
        best = min(best, float(vals.min()))
    return best


def test_log_weighted_gap_positive_and_grid_stable():
    # the least-damped mode hugs the undamped neck, so the raw gap decays
    # fast in k; the log-weighted minimum over the scanned band must stay
    # positive and reproduce under refinement to count as converged
    g_coarse = gap_profile(192)
    g_fine = gap_profile(288)
    assert g_coarse > 0
    assert g_fine > 0
    assert abs(g_coarse - g_fine) <= 0.10 * g_fine


# ---------------------------------------------------------------------------
# time-domain energy
# ---------------------------------------------------------------------------

def test_single_constant_damped_mode_decays_at_2c():
    c = 0.05
    prob = dw.DampedWaveProblem(profile="flat", damping=const(c),
                                dead_zone_radius=None)
    frame = dw.mode_frame(dw.assemble_pencil(prob, 1))
    v0 = frame.basis[:, 4] / np.sqrt(prob.f) / math.sqrt(prob.spacing)
    trace = dw.evolve(prob, 1, initial=(np.zeros(prob.n_grid), v0),
                      t_max=40.0, dt=0.004)
    assert trace.rate == pytest.approx(2 * c, rel=0.02)
    assert trace.r_squared >= 0.99


def test_energy_monotone_and_dissipation_accounted(default_problem):
    trace = dw.evolve(default_problem, 6, t_max=8.0, dt=0.002)
    assert np.diff(trace.e0).max() <= 1e-8 * trace.e0[0]
    assert trace.dissipation_residual <= 1e-6
    # the weighted energy dominates the flat one for epsilon > 0
    assert np.all(trace.eeps >= trace.e0 * (1 - 1e-12))


def test_undamped_energy_conserved():
    prob = dw.DampedWaveProblem(damping=zero)
    trace = dw.evolve(prob, 2, t_max=30.0, dt=0.004)
    drift = np.abs(trace.e0 - trace.e0[0]).max() / trace.e0[0]
    assert drift <= 1e-8
    assert trace.rate == 0.0


def test_decay_fit_reads_only_samples_above_the_roundoff_floor():
    # an exponential that lands on a noisy floor 1e-13 below E(0), where a
    # float64 march stops decaying: the fit sees only E >= FIT_FLOOR E(0)
    times = np.linspace(0.0, 60.0, 6001)
    rng = np.random.Generator(np.random.Philox(5))
    floor = 1e-13 * (1.0 + rng.random(times.size))
    energy = 3.0 * np.maximum(np.exp(-0.6 * times), floor)
    rate, r2 = dw._fit_decay(times, energy)
    assert rate == pytest.approx(0.6, rel=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # with every sample of [t_max/4, t_max] under the floor there is
    # nothing to fit
    assert dw._fit_decay(times, np.exp(-3.0 * times)) == (0.0, 0.0)


def stepwise_states(step, x0, n_steps):
    """Reference march: one matrix-vector product per step."""
    hist = np.empty((n_steps + 1, x0.size))
    hist[0] = x0
    for i in range(n_steps):
        hist[i + 1] = step @ hist[i]
    return hist


@pytest.mark.parametrize("damping", [None, zero], ids=["damped", "undamped"])
def test_power_march_matches_stepwise_loop(damping):
    prob = dw.DampedWaveProblem(n_grid=48, damping=damping)
    dt, n_steps = 0.004, 1500
    pencil = dw.assemble_pencil(prob, 3)
    frame = dw.mode_frame(pencil)
    u0, v0 = dw.default_initial(frame)
    scale = np.sqrt(prob.f)
    x0 = np.concatenate([scale * u0, scale * v0])
    step = la.expm(first_order_generator(pencil) * dt)
    kept = step.copy()
    want = stepwise_states(step, x0, n_steps)
    got = dw.power_march(step, x0, n_steps)
    assert np.array_equal(step, kept)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= 1e-12
    e0, _, _ = full_history_energies(prob, prob.a, frame.lam, frame.basis,
                                     want)
    trace = dw.evolve(prob, 3, t_max=n_steps * dt, dt=dt)
    assert trace.times.size == n_steps + 1
    assert np.abs(trace.e0 / e0 - 1.0).max() <= 1e-12


def full_history_energies(problem, a, lam, basis, hist):
    """e0, eeps and diss of every row of hist, states (w, w_t) with
    damping a and eigenpairs (lam, basis) of their operator, in one pass
    over the whole history."""
    m = a.size
    root = math.sqrt(problem.spacing)
    diss = 2.0 * problem.spacing * (hist[:, m:] ** 2 @ a)
    c = (basis.T @ hist[:, :m].T) * root
    cd = (basis.T @ hist[:, m:].T) * root
    modal = cd**2 + lam[:, None] * c**2
    e0 = 0.5 * modal.sum(axis=0)
    eeps = 0.5 * ((1 + lam[:, None]) ** problem.epsilon
                  * modal).sum(axis=0)
    return e0, eeps, diss


def dense_march(frame, x0, dt, n_steps):
    """e0, eeps and diss of the mode marched on its dense generator."""
    prob = frame.pencil.problem
    step = la.expm(first_order_generator(frame.pencil) * dt)
    return full_history_energies(prob, prob.a, frame.lam, frame.basis,
                                 dw.power_march(step, x0, n_steps))


@pytest.mark.parametrize("n_grid, rows", [
    (64, 100), (64, 128), (64, 148), (192, 3 * 384 + 5)],
    ids=["below-one-slab", "one-slab", "slab-and-remainder",
         "slabs-and-remainder"])
def test_slab_energies_equal_the_full_history(n_grid, rows):
    # slabs hold 2 n_grid rows, and a short remainder joins the last one.
    # The many-slab case is at n_grid 192: at n_grid 64 a slab's products
    # are small enough for OpenBLAS's small-matrix kernel while the whole
    # history's are not, and rows of the last partial tile then differ in
    # the last bit (3 * 128 + 5 rows: 2 of e0, 5 of eeps). The reference
    # runs on the one BLAS thread that importing loxokit pins
    prob = dw.DampedWaveProblem(n_grid=n_grid)
    dt = 0.004
    frame = dw.mode_frame(dw.assemble_pencil(prob, 5))
    u0, v0 = dw.default_initial(frame)
    scale = np.sqrt(prob.f)
    x0 = np.concatenate([scale * u0, scale * v0])
    for (zeroth, a), w, wd in zip(dw.parity_sectors(frame.pencil),
                                  dw.fold(scale * u0), dw.fold(scale * v0)):
        lam, basis = dw._eigh(zeroth)
        step = la.expm(dw._generator(zeroth, a) * dt)
        hist = dw.power_march(step, np.concatenate([w, wd]), rows - 1)
        want = full_history_energies(prob, a, lam, basis, hist)
        for got, ref in zip(dw._energies(prob, a, lam, basis, hist), want):
            assert np.array_equal(got, ref)
    # the two sectors' marches add up to the dense march of the mode
    trace = dw.evolve(prob, 5, t_max=(rows - 1) * dt, dt=dt)
    e0, eeps, _ = dense_march(frame, x0, dt, rows - 1)
    assert np.abs(trace.e0 - e0).max() <= 1e-12 * e0[0]
    assert np.abs(trace.eeps - eeps).max() <= 1e-12 * e0[0]


def test_worker_count_changes_no_bit(monkeypatch, tmp_path):
    # each mode runs whole on one worker and one BLAS thread, so the
    # roots, traces and written files cannot depend on the worker count
    from loxokit.cli import main

    parallel_modes = {"n_grid": 64, "t_max": 3.0, "modes": [0, 3, 7, 11],
                      "decay_modes": [0, 3, 7, 11]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(parallel_modes))
    prob = dw.DampedWaveProblem(n_grid=parallel_modes["n_grid"])
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(dw, "_workers", lambda n_tasks: workers)
        sets, strip, mirror = dw.eigenfrequency_scan(
            prob, modes=parallel_modes["modes"])
        rep = dw.decay_report(prob, modes=parallel_modes["decay_modes"],
                              t_max=parallel_modes["t_max"])
        out = tmp_path / f"workers-{workers}"
        assert main(["damped-wave", "--config", str(cfg),
                     "--out", str(out)]) == 0
        runs.append((
            [es.k for es in sets],
            [es.frequencies.tobytes() for es in sets], strip, mirror,
            [(k, tr.e0.tobytes(), tr.eeps.tobytes(),
              tr.dissipation_residual) for k, tr in rep.per_mode.items()],
            rep.total_e0.tobytes(), rep.rate, rep.envelope_constant,
            [(out / name).read_bytes() for name in (
                "damped_wave.json", "eigenfrequencies.csv", "energy.csv")]))
    assert runs[0][0] == parallel_modes["modes"]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_workers_bounded_by_modes_and_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert dw._workers(0) == 1
    assert dw._workers(1) == 1
    assert dw._workers(1000) == cpus


THREAD_PROBE = """
import sys
from loxokit import dampedwave as dw, flows
prob = dw.DampedWaveProblem()
trace = dw.evolve(prob, 5, t_max=2.0, dt=0.002)
taus = dw.eigenfrequencies(dw.assemble_pencil(prob, 40)).frequencies
neck = flows.surface_of_revolution()
orbit = flows.find_closed_orbit(
    neck, flows.surface_state(neck, **flows.NECK_GUESS), flows.NECK_PERIOD)
mono = flows.linearized_poincare_map(neck, orbit).monodromy
sys.stdout.write(" ".join(a.tobytes().hex() for a in (trace.e0, taus, mono)))
"""


def test_evolve_energies_independent_of_blas_threads():
    # importing loxokit pins BLAS to one thread whatever
    # OPENBLAS_NUM_THREADS says, so the damped wave's energies and
    # eigenfrequencies and the neck orbit's monodromy, a kernel outside
    # the damped wave, agree bit for bit
    src = str(Path(dw.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        runs.append(done.stdout.split())
    (e_one, tau_one, mono_one), (e_two, tau_two, mono_two) = runs
    assert len(bytes.fromhex(e_one)) == 1001 * 8
    assert len(bytes.fromhex(tau_one)) == 2 * 192 * 16
    assert len(bytes.fromhex(mono_one)) == 4 * 4 * 8
    assert e_one == e_two
    assert tau_one == tau_two
    assert mono_one == mono_two


def test_samples_are_exact_at_any_step(default_problem):
    # the propagator is exp(A dt), so a coarse step lands on the fine
    # step's states at the shared times; only the Simpson dissipation
    # quadrature needs a step that resolves the excited band
    coarse = dw.evolve(default_problem, 12, t_max=2.0, dt=0.1)
    fine = dw.evolve(default_problem, 12, t_max=2.0, dt=2e-4)
    assert coarse.times.size == 21 and fine.times.size == 10001
    assert np.allclose(fine.times[::500], coarse.times, rtol=0, atol=1e-12)
    scale = fine.e0[0]
    assert np.abs(coarse.e0 - fine.e0[::500]).max() <= 1e-12 * scale
    assert np.abs(coarse.eeps - fine.eeps[::500]).max() <= 1e-12 * scale
    assert fine.dissipation_residual <= 1e-6


def test_zero_initial_data_is_rejected():
    prob = dw.DampedWaveProblem(n_grid=32)
    zeros = np.zeros(prob.n_grid)
    with pytest.raises(ValueError, match="identically zero"):
        dw.evolve(prob, 0, initial=(zeros, zeros), t_max=1.0)


def test_initial_data_must_be_two_finite_grid_arrays():
    # a NaN velocity marched to NaN energies and a decay rate of 0.0, and
    # data of the wrong length failed in numpy's broadcast
    prob = dw.DampedWaveProblem(n_grid=32)
    zeros, ones = np.zeros(32), np.ones(32)
    for bad in (math.nan, math.inf):
        v0 = ones.copy()
        v0[7] = bad
        with pytest.raises(ValueError) as err:
            dw.evolve(prob, 0, initial=(zeros, v0), t_max=1.0)
        assert str(err.value) == "initial data must be finite"
    for initial, shapes in (
            ((np.zeros(30), np.ones(30)), "[(30,), (30,)]"),
            ((zeros, ones, ones), "[(32,), (32,), (32,)]"),
            ((zeros, ones[:, None]), "[(32,), (32, 1)]")):
        with pytest.raises(ValueError) as err:
            dw.evolve(prob, 0, initial=initial, t_max=1.0)
        assert str(err.value) == (
            f"initial data must be two arrays (u0, v0) of n_grid = 32 "
            f"values, not of shapes {shapes}")


def test_horizon_must_span_two_steps():
    prob = dw.DampedWaveProblem(n_grid=32)
    for t_max in (0.0, 0.005, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_max"):
            dw.evolve(prob, 0, t_max=t_max, dt=0.004)
    assert dw.evolve(prob, 0, t_max=0.008, dt=0.004).times.size == 3


@pytest.mark.parametrize("dt, t_max", [(0.0, 1.0), (-0.004, -1.0),
                                       (math.nan, 1.0)],
                         ids=["zero", "negative", "nan"])
def test_step_must_be_finite_and_positive(dt, t_max):
    # dt = 0 ended in ZeroDivisionError, and dt < 0 with t_max < 0 passed
    # the horizon check and marched backward until the energy rose
    prob = dw.DampedWaveProblem(n_grid=32)
    with pytest.raises(ValueError) as err:
        dw.evolve(prob, 0, t_max=t_max, dt=dt)
    assert str(err.value) == f"dt must be finite and > 0, not {dt}"


def test_decay_report_epsilon_tradeoff():
    reps = [dw.decay_report(dw.DampedWaveProblem(epsilon=e),
                            modes=(0, 2, 5), t_max=20.0) for e in (0.1, 0.3)]
    lo, hi = reps
    # the fitted rate comes from the same flat-energy traces
    assert hi.rate == lo.rate
    assert lo.rate > 0
    assert min(lo.r_squared, hi.r_squared) >= 0.95
    # a stronger data norm can only shrink the envelope constant
    assert hi.hnorm_sq > lo.hnorm_sq
    assert hi.envelope_constant < lo.envelope_constant
    for rep in reps:
        bound = rep.envelope_constant * rep.hnorm_sq * np.exp(
            -rep.rate * rep.times)
        assert np.all(rep.total_e0 <= bound * (1 + 1e-9))


def test_envelope_constant_is_taken_above_the_roundoff_floor():
    # mode 0 alone falls to its float64 floor, about 2e-13 E(0), by
    # t = 60; lifted by exp(rate t), that floor would set an envelope
    # constant near 1e11 instead of one set by the decaying samples
    rep = dw.decay_report(dw.DampedWaveProblem(), modes=(0,), t_max=60.0)
    trusted = rep.total_e0 >= dw.FIT_FLOOR * rep.total_e0[0]
    assert 0.2 < trusted.mean() < 0.6
    assert rep.r_squared >= 0.99
    bound = rep.envelope_constant * rep.hnorm_sq * np.exp(
        -rep.rate * rep.times)
    assert np.all(rep.total_e0[trusted] <= bound[trusted] * (1 + 1e-9))
    # E(0) <= E^eps(0) = hnorm_sq / 2 puts the t = 0 sample at 0.5 or
    # below, and no decaying sample lifts the constant above it
    assert rep.envelope_constant <= 0.5
    # floor_time marks the first sample under the floor, where the
    # untrusted rows begin
    first = int(np.argmin(trusted))
    assert rep.floor_time == rep.times[first]
    assert np.all(trusted[:first])
    assert 0.0 < rep.floor_time < rep.times[-1]


def test_decay_report_rejects_zero_epsilon():
    # decay_report reads epsilon from the problem, which refuses any
    # epsilon a decay report cannot use before anything is solved
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"epsilon .* > 0, not {epsilon}"):
            dw.DampedWaveProblem(epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_decay_report_data_norm_is_twice_the_initial_weighted_energy(
        epsilon):
    # the data start at zero displacement, so 2 E^eps(0) of each mode is
    # the squared H^eps norm of its velocity, at the problem's one epsilon,
    # and the report reads the data norm off the marches bit for bit
    prob = dw.DampedWaveProblem(n_grid=64, epsilon=epsilon)
    rep = dw.decay_report(prob, modes=(0, 2, 5), t_max=1.0)
    assert rep.epsilon == epsilon
    assert rep.hnorm_sq == 2 * rep.total_eeps[0]
    # the same norm as the spectral sum over the whole-grid basis of each
    # mode, to roundoff
    spectral = 0.0
    for k in rep.modes:
        frame = dw.mode_frame(dw.assemble_pencil(prob, k))
        _, v0 = dw.default_initial(frame)
        spectral += hnorm_sq(frame, np.sqrt(prob.f) * v0, epsilon)
    assert spectral == pytest.approx(rep.hnorm_sq, rel=1e-12)


def test_decay_report_total_eeps_is_the_per_mode_sum():
    # damped-wave writes it as energy.csv's Eeps column, bit for bit
    rep = dw.decay_report(dw.DampedWaveProblem(n_grid=64), modes=(0, 2, 5),
                          t_max=1.0)
    per_mode = rep.per_mode
    assert np.array_equal(rep.total_eeps, per_mode[0].eeps
                          + per_mode[2].eeps + per_mode[5].eeps)
    assert np.array_equal(rep.total_e0, per_mode[0].e0 + per_mode[2].e0
                          + per_mode[5].e0)
    # no sample falls under the roundoff floor on this short horizon
    assert np.all(rep.total_e0 >= dw.FIT_FLOOR * rep.total_e0[0])
    assert rep.floor_time is None


def test_decay_report_rejects_repeated_mode():
    # a repeated mode would count twice in total_e0 but once in per_mode
    prob = dw.DampedWaveProblem(n_grid=32)
    with pytest.raises(ValueError, match="repeat"):
        dw.decay_report(prob, modes=(0, 0), t_max=1.0)


@pytest.mark.parametrize("modes, message", [
    ((), "need at least one mode"),
    ((5, 5), "repeat a mode"),
], ids=["empty", "repeated"])
def test_eigenfrequency_scan_rejects_what_decay_report_rejects(
        monkeypatch, modes, message):
    # the scan took any list: no modes gave margins of 0 over no roots,
    # and a repeated mode solved its roots twice
    def solve(pencil):
        pytest.fail("eigenfrequencies ran for an unusable mode list")

    monkeypatch.setattr(dw, "eigenfrequencies", solve)
    with pytest.raises(ValueError, match=message):
        dw.eigenfrequency_scan(dw.DampedWaveProblem(n_grid=32), modes=modes)


def hnorm_sq(frame, w, s):
    """sum (1 + lam_j)^s c_j^2 over the coefficients c of the grid vector
    w in the frame's basis, with the sqrt(spacing) quadrature weight: the
    squared H^s norm, f-weighted L^2 at s = 0."""
    c = (frame.basis.T @ w) * math.sqrt(frame.pencil.problem.spacing)
    return float(np.sum((1.0 + frame.lam) ** s * c ** 2))


def interpolation_defect(frame, rng, n_samples):
    """Largest violation of the spectral interpolation inequality

        ||f||^2_{H^{1-eps}} <= ||f||^{1-eps}_{H^2} ||f||^{1+eps}_{L^2}

    over random band-limited grid functions. Returns max ratio - 1;
    anything above roundoff means the discrete norms are inconsistent.
    """
    epsilon = 0.1
    worst = -np.inf
    n = frame.lam.size
    keep = max(2, n // 2)
    for _ in range(n_samples):
        c = np.zeros(n)
        c[:keep] = rng.standard_normal(keep)
        w = frame.synthesize(c)
        lhs = hnorm_sq(frame, w, 1.0 - epsilon)
        rhs = (hnorm_sq(frame, w, 2.0) ** ((1.0 - epsilon) / 2)
               * hnorm_sq(frame, w, 0.0) ** ((1.0 + epsilon) / 2))
        worst = max(worst, lhs / rhs - 1.0)
    return float(worst)


def test_interpolation_inequality_holds(default_problem):
    # the spectral H^s norms of the whole-grid basis interpolate
    frame = dw.mode_frame(dw.assemble_pencil(default_problem, 0))
    rng = np.random.Generator(np.random.Philox(3))
    assert interpolation_defect(frame, rng, n_samples=60) <= 1e-6


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------
# The CSVs of one short damped-wave run, recorded with numpy 2.4.6 and
# scipy 1.17.1 and their bundled OpenBLAS (x86-64), on the one BLAS thread
# that importing loxokit pins: a change that moves a last bit of a root,
# of the data or of an energy fails here.

PINNED_WAVE = {"n_grid": 64, "t_max": 4.0, "modes": [0, 5, 40],
               "decay_modes": [0, 5, 40]}
PINNED_WAVE_DIGESTS = {
    "eigenfrequencies.csv":
        "29651191835586f5afb979b85ebad607969b7cb164ab43057f5ffad982b58313",
    "energy.csv":
        "38db951967514f9c9ad5b18418b3bc6e242f1577d05587c78a2e4f56902c1ca5",
}


def test_damped_wave_csvs_are_pinned(tmp_path):
    from loxokit.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PINNED_WAVE))
    out = tmp_path / "out"
    assert main(["damped-wave", "--config", str(cfg), "--out", str(out)]) == 0
    for name, want in PINNED_WAVE_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want
    # energy stays above the roundoff floor on this short horizon
    assert json.loads((out / "damped_wave.json").read_text())[
        "floor_time"] is None
