"""Ship gate: one callable per headline property, with pass/fail records.

Each criterion function is self-contained (fixed seeds, desk-scale
sizes) and returns a CriterionResult. The CLI `selftest` subcommand and
the acceptance test module both run this registry, so there is exactly
one definition of "the package works".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import dampedwave as dw
from . import flows
from . import resolvent as rv
from . import spectra
from .cutoffs import neck_damping
from .normal_form import birkhoff_normal_form, escape_rate_form, williamson
from .symplectic import (
    NegativeRealEigenvalue,
    hamilton_matrix,
    standard_symplectic_matrix,
    symplectic_log,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}  ({self.elapsed:.1f}s)  {self.detail}"


def _random_hamilton(rng, m, scale=1.0):
    sym = rng.standard_normal((2 * m, 2 * m))
    return hamilton_matrix(scale * (sym + sym.T) / 2).entries


def _random_symplectic(rng, m, scale=0.4):
    """exp of a Hamilton matrix is symplectic."""
    return la.expm(_random_hamilton(rng, m, scale))


def criterion_symplectic_residuals():
    """Williamson transforms are symplectic and reconstruct the form;
    radii do not move under symplectic pre-conjugation."""
    rng = np.random.Generator(np.random.Philox(11))
    worst_symp = worst_rec = worst_radii = 0.0
    for m in (1, 2, 3, 4):
        J = standard_symplectic_matrix(m)
        for _ in range(200):
            R = rng.standard_normal((2 * m, 2 * m))
            Q = R.T @ R + 0.3 * np.eye(2 * m)
            dec = williamson(Q)
            T = dec.transform.entries
            worst_symp = max(worst_symp, np.abs(T.T @ J @ T - J).max())
            # q carries the 1/2 convention, so the diagonalized form
            # shows 2 / r^2 per coordinate pair
            D = np.diag(np.concatenate([2.0 / dec.radii**2] * 2))
            worst_rec = max(worst_rec, np.abs(T.T @ Q @ T - D).max())
            S = _random_symplectic(rng, m)
            dec2 = williamson(S.T @ Q @ S)
            worst_radii = max(worst_radii, np.abs(
                dec2.radii - dec.radii).max() / (1 + dec.radii.max()))
    ok = worst_symp <= 1e-9 and worst_rec <= 1e-9 and worst_radii <= 1e-8
    return ok, (f"symplectic defect {worst_symp:.1e}, reconstruction "
                f"{worst_rec:.1e}, radii drift {worst_radii:.1e}")


def criterion_log_exp_roundtrip():
    rng = np.random.Generator(np.random.Philox(12))
    worst = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(50):
            B = _random_hamilton(rng, m)
            B *= min(1.0, 2.0 / max(la.norm(B, 2), 1e-12))
            S = la.expm(B)
            H = symplectic_log(S)
            worst = max(worst, np.abs(la.expm(H.entries) - S).max()
                        / max(1.0, np.abs(S).max()))
    bad = np.diag([-math.e**2, -math.e**-2])
    try:
        symplectic_log(bad)
        rejected = False
    except NegativeRealEigenvalue:
        rejected = True
    ok = worst <= 1e-8 and rejected
    return ok, (f"roundtrip defect {worst:.1e}, negative-real pair "
                f"{'rejected' if rejected else 'NOT rejected'}")


def _planted_normal_form(rng):
    """Random A = blockdiag of Jordan-coupled blocks, distinct eigenvalues,
    total phase-space dimension <= 8."""
    m_total = int(rng.integers(2, 5))
    blocks = []
    eigs = []
    m_left = m_total
    lam_pool = list(0.3 + 0.45 * np.arange(5) + rng.uniform(0, 0.1, 5))
    while m_left > 0:
        if m_left >= 2 and rng.random() < 0.35:
            k = 1
            a = lam_pool.pop()
            b = rng.uniform(0.4, 1.6)
            blocks.append(np.array([[a, -b], [b, a]]))
            eigs += [complex(a, b), complex(a, -b)]
            m_left -= 2
        else:
            k = int(rng.integers(1, min(3, m_left) + 1))
            lam = lam_pool.pop()
            blk = lam * np.eye(k) + np.diag(np.ones(k - 1), 1)
            blocks.append(blk)
            eigs += [complex(lam, 0.0)] * k
            m_left -= k
    A = la.block_diag(*blocks)
    return A, np.array(eigs)


def criterion_normal_form_recovery():
    rng = np.random.Generator(np.random.Philox(13))
    worst_eig = worst_block = 0.0
    pd_ok = True
    for _ in range(60):
        A, eigs = _planted_normal_form(rng)
        m = A.shape[0]
        B0 = la.block_diag(A.T, -A)
        S = _random_symplectic(rng, m, scale=0.3)
        B = S @ B0 @ la.inv(S)
        nf = birkhoff_normal_form(B)
        got = np.sort_complex(la.eigvals(nf.block_matrix_A))
        want = np.sort_complex(eigs)
        worst_eig = max(worst_eig, np.abs(got - want).max())
        T = nf.transform.entries
        resid = la.norm(la.solve(T, B @ T) - nf.normal_matrix)
        worst_block = max(worst_block, resid / max(1.0, la.norm(B)))
        # growth form must certify whenever the coupling respects the
        # spectral gap
        eps = 0.5 * min(e.real for e in eigs) * rng.uniform(0.3, 1.0)
        cert = escape_rate_form(birkhoff_normal_form(B, jordan_scale=eps))
        pd_ok = pd_ok and cert.positive_definite and \
            cert.certificate is not None
    # documented indefinite corner: one size-2 chain at lambda = 0.1 with
    # unit coupling has sym(A) eigenvalues 0.1 +- 0.5
    A = np.array([[0.1, 1.0], [0.0, 0.1]])
    B0 = la.block_diag(A.T, -A)
    corner = escape_rate_form(birkhoff_normal_form(B0, jordan_scale=1.0))
    ok = (worst_eig <= 1e-6 and worst_block <= 1e-6 and pd_ok
          and not corner.positive_definite and corner.min_eigenvalue < 0)
    return ok, (f"eig multiset err {worst_eig:.1e}, block residual "
                f"{worst_block:.1e}, gap certificates "
                f"{'all definite' if pd_ok else 'FAILED'}, corner "
                f"min eig {corner.min_eigenvalue:+.2f}")


def criterion_monodromy_oracle():
    sys = flows.surface_of_revolution()
    guess = flows.surface_state(sys, **flows.NECK_GUESS)
    orbit = flows.find_closed_orbit(sys, guess, flows.NECK_PERIOD)
    mono = flows.linearized_poincare_map(sys, orbit)
    eigs = np.sort(la.eigvals(mono.reduced_map).real)
    want = np.array([math.exp(-2 * math.pi), math.exp(2 * math.pi)])
    rel = np.abs(eigs - want) / want
    det = float(la.det(mono.reduced_map))
    ok = rel.max() <= 1e-3 and abs(det - 1.0) <= 1e-6
    return ok, (f"eigenvalue rel err {rel.max():.2e}, det defect "
                f"{abs(det - 1):.1e}")


def criterion_nonconcentration():
    ks = spectra.K_LADDER
    scan = spectra.nonconcentration_scan(ks)
    ratio = scan.band["product_ratio"]
    coarse = spectra.nonconcentration_scan(ks, N=spectra.GRID_N // 2)
    drift = max(abs(a.product - b.product) / b.product
                for a, b in zip(coarse.rows, scan.rows))
    ok = ratio <= 2.0 and drift <= 0.05
    return ok, f"band ratio {ratio:.2f}, grid drift {drift:.2%}"


def criterion_resolvent_bounds():
    scan = rv.sigma_min_scan(rv.default_operator_builder(), rv.H_LADDER)
    r1 = scan.bands["inv_norm"]["ratio"]
    r2 = scan.bands["cutoff"]["ratio"]
    glob = rv.global_absorption_check(1 / 100)
    ok = r1 <= 2.0 and r2 <= 2.0 and glob["rel_err"] <= 0.10
    return ok, (f"inv-norm band {r1:.2f}, cutoff band {r2:.2f}, "
                f"global absorption err {glob['rel_err']:.1e}")


def criterion_harmonic_oscillator():
    rows = rv.harm_osc_lower_bound([0.1, 0.05, 0.025])
    ratios = [r["ratio"] for r in rows]
    pure = rv.harm_osc_lower_bound([0.05], weighted=False)[0]
    pure_err = abs(pure["lam_min"] - 0.05) / 0.05
    ok = min(ratios) > 0 and pure_err <= 0.02
    return ok, (f"ratio band [{min(ratios):.3f}, {max(ratios):.3f}], "
                f"pure harmonic err {pure_err:.2%}")


def criterion_damped_wave():
    prob = dw.DampedWaveProblem()
    rep = dw.decay_report(prob, modes=dw.DECAY_MODES, t_max=dw.T_MAX)
    _, strip, symm = dw.eigenfrequency_scan(prob, modes=dw.MODES)
    traces = rep.per_mode.values()
    mono = max(float(np.diff(tr.e0).max() / tr.e0[0]) for tr in traces)
    diss = max(tr.dissipation_residual for tr in traces)
    undamped = dw.DampedWaveProblem(
        damping=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        dead_zone_radius=None)
    cons = dw.evolve(undamped, 5, t_max=100.0, dt=0.1)
    drift = float(np.abs(cons.e0 - cons.e0[0]).max() / cons.e0[0])
    ok = (strip <= 1e-8 and symm <= 1e-8 and mono <= 1e-8
          and diss <= 1e-6 and rep.r_squared >= 0.95 and drift <= 1e-8)
    return ok, (f"strip {strip:.1e}, mirror {symm:.1e}, rise {mono:.1e}, "
                f"dissipation {diss:.1e}, decay R^2 "
                f"{rep.r_squared:.3f}, conservation drift {drift:.1e}")


def criterion_geometric_control():
    sys = flows.surface_of_revolution()
    report = flows.check_geometric_control(
        sys, neck_damping(), flows.neck_exclusion(), seed=2024)
    orbit_pt = flows.surface_state(sys, **flows.NECK_GUESS)
    avg = flows.trajectory_average(sys, orbit_pt, flows.NECK_PERIOD,
                                   lambda z: math.sin(z[1]) ** 2)
    avg_err = abs(avg - 0.5)
    ok = (report.controlled_fraction == 1.0 and report.min_average > 0
          and avg_err <= 1e-10)
    return ok, (f"controlled {report.controlled_fraction:.1%}, min damping "
                f"average {report.min_average:.3f}, sin^2 average err "
                f"{avg_err:.1e}")


CRITERIA = [
    ("symplectic-residuals", criterion_symplectic_residuals),
    ("log-exp-roundtrip", criterion_log_exp_roundtrip),
    ("normal-form-recovery", criterion_normal_form_recovery),
    ("monodromy-oracle", criterion_monodromy_oracle),
    ("non-concentration", criterion_nonconcentration),
    ("resolvent-bounds", criterion_resolvent_bounds),
    ("harmonic-oscillator", criterion_harmonic_oscillator),
    ("damped-wave", criterion_damped_wave),
    ("geometric-control", criterion_geometric_control),
]


def run_criterion(name):
    fn = dict(CRITERIA)[name]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not a traceback
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    # criteria mix python and numpy booleans; keep the result JSON-safe
    return CriterionResult(name=name, passed=bool(passed), detail=detail,
                           elapsed=time.perf_counter() - t0)


def run_all(names=None):
    names = [n for n, _ in CRITERIA] if names is None else list(names)
    return [run_criterion(n) for n in names]


def format_table(results):
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
