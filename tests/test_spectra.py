"""Radial Dirichlet eigenproblem on the neck segment and the
mass-away-from-the-neck scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loxokit import spectra
from loxokit.cutoffs import get_warp
from loxokit.errors import GridTooCoarse


@pytest.fixture(scope="module")
def flat_op():
    return spectra.build_radial_operator(0, R=3.0, N=512, profile="flat")


@pytest.fixture(scope="module")
def neck_op():
    return spectra.build_radial_operator(10, R=3.0, N=1024)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_flat_operator_matches_sine_modes(flat_op):
    vals, _ = spectra.solve_eigenpairs(flat_op, 6)
    want = np.array([(j * np.pi / 6.0) ** 2 for j in range(1, 7)])
    assert np.allclose(vals, want, rtol=1e-2)


def test_weighted_symmetry_of_action(neck_op):
    # action in the physical frame: A v = (K v) / w with K symmetric in the
    # sqrt(w)-conjugated frame; the weighted inner product must not see a
    # difference between <Av, u> and <v, Au>
    rng = np.random.Generator(np.random.Philox(5))
    d, off, w = neck_op.sym_diag, neck_op.sym_off, neck_op.weight

    def apply_sym(x):
        y = d * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        return y

    for _ in range(5):
        u = rng.standard_normal(neck_op.N)
        v = rng.standard_normal(neck_op.N)
        us, vs = u * np.sqrt(w), v * np.sqrt(w)
        lhs = neck_op.spacing * np.dot(apply_sym(us), vs)
        rhs = neck_op.spacing * np.dot(us, apply_sym(vs))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_effective_potential_peaks_at_neck(neck_op):
    # interior Dirichlet nodes straddle r = 0, so the grid maximum sits
    # within half a spacing of the model value k^2
    w_eff = neck_op.k ** 2 / neck_op.weight ** 2
    j = int(np.argmax(w_eff))
    assert abs(neck_op.nodes[j]) <= neck_op.spacing
    assert np.max(w_eff) == pytest.approx(100.0, rel=1e-4)


def dirichlet_operator(k, R, N, profile):
    """Reference assembly: the stiffness K of the flux stencil with
    Dirichlet ends plus k^2 / f, symmetrized by W = diag(f)."""
    f = get_warp(profile).f
    dr = 2.0 * R / (N + 1)
    nodes = -R + dr * np.arange(1, N + 1)
    w = f(nodes)
    w_half = f(nodes[:-1] + 0.5 * dr)
    diag_K = np.empty(N)
    diag_K[0] = (f(-R + 0.5 * dr) + w_half[0]) / dr ** 2
    diag_K[-1] = (w_half[-1] + f(R - 0.5 * dr)) / dr ** 2
    diag_K[1:-1] = (w_half[:-1] + w_half[1:]) / dr ** 2
    diag_K += k ** 2 / w
    off_K = -w_half / dr ** 2
    return diag_K / w, off_K / np.sqrt(w[:-1] * w[1:])


@pytest.mark.parametrize("k", [0, 10, 80])
@pytest.mark.parametrize("profile", ["cosh", "flat", "neck"])
def test_stencil_matches_dirichlet_formula(profile, k):
    op = spectra.build_radial_operator(k, R=3.0, N=2048, profile=profile)
    diag, off = dirichlet_operator(k, 3.0, 2048, profile)
    assert np.max(np.abs(op.sym_diag - diag) / np.abs(diag)) <= 1e-15
    assert np.max(np.abs(op.sym_off - off) / np.abs(off)) <= 1e-15


def test_grid_too_coarse_rejected():
    with pytest.raises(ValueError, match="N must be at least 64, not 32"):
        spectra.build_radial_operator(0, R=3.0, N=32)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def test_vectors_weight_orthonormal(neck_op):
    vals, vecs = spectra.solve_eigenpairs(neck_op, 8)
    assert np.all(np.diff(vals) > 0)
    G = neck_op.spacing * (vecs * neck_op.weight[:, None]).T @ vecs
    assert np.allclose(G, np.eye(8), atol=1e-8)


def test_eigen_residuals(neck_op):
    vals, vecs = spectra.solve_eigenpairs(neck_op, 5)
    d, off, w = neck_op.sym_diag, neck_op.sym_off, neck_op.weight
    for mu, v in zip(vals, vecs.T):
        vs = v * np.sqrt(w)
        Av = d * vs
        Av[:-1] += off * vs[1:]
        Av[1:] += off * vs[:-1]
        res = np.sqrt(neck_op.spacing * np.sum((Av - mu * vs) ** 2))
        assert res <= 1e-8 * mu


def test_refinement_moves_eigenvalues_little():
    coarse = spectra.build_radial_operator(0, R=3.0, N=512)
    fine = spectra.build_radial_operator(0, R=3.0, N=1024)
    v1, _ = spectra.solve_eigenpairs(coarse, 10)
    v2, _ = spectra.solve_eigenpairs(fine, 10)
    assert np.max(np.abs(v1 - v2) / v2) <= 1e-3


# ---------------------------------------------------------------------------
# mass away from the neck
# ---------------------------------------------------------------------------

def test_mass_bounds_and_normalization(neck_op):
    mu, v = spectra.neck_mode(neck_op, 0.5)
    m = spectra.mass_outside(neck_op, v, 0.5)
    assert 0.0 <= m <= 1.0
    total = neck_op.spacing * np.sum(v ** 2 * neck_op.weight)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_neck_mode_fallback_failure_is_typed(neck_op, monkeypatch):
    # value windows that stay empty up to four times their width used to
    # fall back to the lowest N/4 modes; they now raise GridTooCoarse, and
    # a LAPACK failure inside a window surfaces as ConvergenceFailure
    def empty(diag, off, select, select_range):
        return np.empty(0), np.empty((diag.size, 0))

    monkeypatch.setattr(spectra.la, "eigh_tridiagonal", empty)
    with pytest.raises(GridTooCoarse, match="k = 10 on N = 1024"):
        spectra.neck_mode(neck_op, 0.5)

    def failing(diag, off, select, select_range):
        raise np.linalg.LinAlgError("eigenvalue iteration did not converge")

    monkeypatch.setattr(spectra.la, "eigh_tridiagonal", failing)
    with pytest.raises(spectra.ConvergenceFailure):
        spectra.neck_mode(neck_op, 0.5)


def test_neck_mode_beyond_the_grid_is_grid_too_coarse():
    # on 64 nodes the k = 20000 window holds no eigenvalue even at four
    # times its width; the index-range fallback returned mu ~ 0.04 k^2
    op = spectra.build_radial_operator(20000, R=3.0, N=64)
    with pytest.raises(GridTooCoarse, match="k = 20000 on N = 64"):
        spectra.neck_mode(op, 0.5)


def test_neck_mode_widens_an_empty_window():
    # k = 5000 on 64 nodes needs the fourfold window, which still finds
    # the barrier-top mode
    op = spectra.build_radial_operator(5000, R=3.0, N=64)
    mu, _ = spectra.neck_mode(op, 0.5)
    assert mu == pytest.approx(5000.0 ** 2, rel=0.01)


@settings(deadline=None, max_examples=15)
@given(st.floats(min_value=0.0, max_value=1.4),
       st.floats(min_value=0.05, max_value=1.4))
def test_mass_monotone_in_window(delta_lo, gap):
    op = spectra.build_radial_operator(6, R=3.0, N=256)
    _, v = spectra.neck_mode(op, 0.5)
    hi = min(delta_lo + gap, 2.9)
    assert spectra.mass_outside(op, v, delta_lo) >= \
        spectra.mass_outside(op, v, hi) - 1e-12


def test_no_barrier_mode_spreads():
    op = spectra.build_radial_operator(0, R=3.0, N=1024)
    vals, vecs = spectra.solve_eigenpairs(op, 1)
    assert spectra.mass_outside(op, vecs[:, 0], 0.5) >= 0.3


def test_scan_band_and_refinement_agreement():
    ks = [10, 20, 40]
    rep = spectra.nonconcentration_scan(ks, N=1024)
    products = [r.product for r in rep.rows]
    assert rep.band["product_ratio"] == pytest.approx(
        max(products) / min(products), rel=1e-12)
    assert rep.band["product_ratio"] <= 2.0
    assert all(r.lam == pytest.approx(r.k, rel=0.15) for r in rep.rows)
    rep2 = spectra.nonconcentration_scan(ks, N=512)
    for a, b in zip(rep.rows, rep2.rows):
        assert b.product == pytest.approx(a.product, rel=0.05)


@pytest.mark.parametrize("k_list, bad", [
    ([10, -1], "-1"), ([10, 2.5], "2.5"), ([10, math.nan], "nan"),
    ([10, math.inf], "inf")], ids=["negative", "fraction", "nan", "inf"])
def test_scan_refuses_a_bad_mode_before_any_solve(monkeypatch, k_list, bad):
    # the whole k list is checked first: a bad k used to be refused only
    # when its turn came, after every k before it was solved
    def solve(*args, **kwargs):
        pytest.fail("a solve ran for an unusable k list")

    monkeypatch.setattr(spectra, "_scan_one", solve)
    monkeypatch.setattr(spectra, "build_radial_operator", solve)
    with pytest.raises(ValueError) as err:
        spectra.nonconcentration_scan(k_list)
    assert str(err.value) == f"mode k must be a nonnegative integer, not {bad}"
