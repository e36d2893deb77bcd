"""Block normal forms, positive-form diagonalization, escape-rate
certificates, invariant subspaces."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

from loxokit import normal_form as nf_module
from loxokit import symplectic as sp
from loxokit.normal_form import (birkhoff_normal_form, escape_rate_form,
                                 williamson)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_symplectic(rng, m, scale=0.4):
    dim = 2 * m
    C = scale * rng.standard_normal((dim, dim))
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(C + C.T))
    return la.expm(B.entries)


def conjugated_normal_form(A, rng):
    """Hamilton matrix with prescribed block matrix, hidden by a random
    symplectic change of frame."""
    m = A.shape[0]
    B_nf = np.block([[A.T, np.zeros((m, m))], [np.zeros((m, m)), -A]])
    S = random_symplectic(rng, m)
    return S @ B_nf @ np.linalg.inv(S)


# ---------------------------------------------------------------------------
# block normal form
# ---------------------------------------------------------------------------

def test_normal_form_of_diagonal_generator():
    nf = birkhoff_normal_form(np.diag([0.7, -0.7]))
    assert nf.block_matrix_A.shape == (1, 1)
    assert nf.block_matrix_A[0, 0] == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(np.abs(nf.transform.entries), np.eye(2), atol=1e-12)


def test_normal_form_recovers_planted_real_chain():
    # 2-chain at lambda = 1 hidden by a random symplectic conjugation;
    # the recovered eigenvalue multiset and block structure must match
    rng = rng_for(21)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = conjugated_normal_form(A, rng)
    nf = birkhoff_normal_form(B)
    got = np.sort_complex(np.linalg.eigvals(B))
    assert np.allclose(got, [-1, -1, 1, 1], atol=1e-6)
    groups = nf.eigenvalues.groups
    assert len(groups) == 1
    assert isinstance(groups[0], sp.RealHyperbolicPair)
    assert groups[0].chain_size == 2
    T = nf.transform.entries
    m = 2
    A_rec = nf.block_matrix_A
    B_blocks = np.block([[A_rec.T, np.zeros((m, m))],
                         [np.zeros((m, m)), -A_rec]])
    residual = la.norm(np.linalg.solve(T, B @ T) - B_blocks)
    assert residual <= 1e-6
    assert sp.symplectic_residual(T) <= 1e-9


def test_normal_form_complex_quadruple():
    rng = rng_for(5)
    Lam = np.array([[1.0, -2.0], [2.0, 1.0]])
    B = conjugated_normal_form(Lam, rng)
    nf = birkhoff_normal_form(B)
    assert nf.block_matrix_A.shape == (2, 2)
    assert np.allclose(nf.block_matrix_A, Lam, atol=1e-6)
    groups = nf.eigenvalues.groups
    assert len(groups) == 1
    assert isinstance(groups[0], sp.ComplexHyperbolicQuad)
    assert groups[0].lam == pytest.approx(1 + 2j, abs=1e-6)


def assert_normal_form(B, nf):
    m = B.shape[0] // 2
    T = nf.transform.entries
    A_rec = nf.block_matrix_A
    B_blocks = np.block([[A_rec.T, np.zeros((m, m))],
                         [np.zeros((m, m)), -A_rec]])
    assert la.norm(np.linalg.solve(T, B @ T) - B_blocks) <= 1e-6
    assert sp.symplectic_residual(T) <= 1e-9


def jordan_block(lam, k):
    return lam * np.eye(k) + np.eye(k, k=1)


@pytest.mark.parametrize("gap", [0.03, 0.003])
@pytest.mark.parametrize("as_map", [False, True])
def test_normal_form_of_nearby_jordan_chains(gap, as_map):
    # size-3 chains at 1.0 and 1.0 - gap: on the whole matrix, a rank cut
    # on (B + lambda)^3 can count the other chain's directions, so the
    # chains must be built inside each eigenvalue cluster
    A = la.block_diag(jordan_block(1.0, 3), jordan_block(1.0 - gap, 3))
    B = la.block_diag(A.T, -A)
    if as_map:
        B = sp.symplectic_log(la.expm(B)).entries
    nf = birkhoff_normal_form(B)
    assert [g.chain_size for g in nf.eigenvalues.groups] == [3, 3]
    # A is lower bidiagonal, so its eigenvalues are its diagonal
    assert np.allclose(np.sort(np.diag(nf.block_matrix_A)),
                       [1.0 - gap] * 3 + [1.0] * 3, atol=1e-8)
    assert_normal_form(B, nf)


@pytest.mark.parametrize("A", [
    0.8 * np.eye(2),
    la.block_diag(jordan_block(0.8, 2), jordan_block(0.8, 2)),
    la.block_diag(jordan_block(0.8, 3), jordan_block(0.8, 1)),
])
def test_normal_form_of_repeated_real_eigenvalue(A):
    # several chains share one real eigenvalue, so the chain bottoms are
    # picked from a kernel of dimension > 1 and must still come out real
    B = conjugated_normal_form(A, rng_for(17))
    nf = birkhoff_normal_form(B)
    assert np.allclose(np.diag(nf.block_matrix_A), 0.8, atol=1e-6)
    assert_normal_form(B, nf)


COMPLEX_LAM = np.array([[1.0, -2.0], [2.0, 1.0]])


@pytest.mark.parametrize("A, chains, want", [
    # J_2(0.8) + J_1(0.8): the size-1 bottom is picked off the size-2
    # chain's bottom inside one kernel; the chain couples at 0.8 / 2
    (la.block_diag(jordan_block(0.8, 2), jordan_block(0.8, 1)), [2, 1],
     np.array([[0.8, 0.0, 0.0], [0.4, 0.8, 0.0], [0.0, 0.0, 0.8]])),
    # a size-2 chain of the quadruple 1 +- 2i, coupled at Re lambda / 2
    (np.block([[COMPLEX_LAM, np.zeros((2, 2))], [np.eye(2), COMPLEX_LAM]]),
     [2], np.block([[COMPLEX_LAM, np.zeros((2, 2))],
                    [0.5 * np.eye(2), COMPLEX_LAM]])),
], ids=["J2+J1", "complex-J2"])
@pytest.mark.parametrize("conjugate", [False, True])
def test_normal_form_of_mixed_and_complex_chains(A, chains, want, conjugate):
    m = A.shape[0]
    B = (conjugated_normal_form(A, rng_for(17)) if conjugate
         else la.block_diag(A.T, -A))
    nf = birkhoff_normal_form(B)
    assert [g.chain_size for g in nf.eigenvalues.groups] == chains
    assert np.allclose(nf.block_matrix_A, want, atol=1e-8)
    T = nf.transform.entries
    resid = la.norm(la.solve(T, B @ T) - nf.normal_matrix)
    assert resid <= 1e-12 * max(1.0, la.norm(B))
    assert sp.symplectic_residual(T) <= 1e-9
    assert nf.normal_matrix.shape == (2 * m, 2 * m)


def test_normal_form_rejects_elliptic():
    with pytest.raises(sp.EllipticEigenvaluePresent):
        birkhoff_normal_form(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("jordan_scale", [0.0, -1.0, np.nan, np.inf])
def test_jordan_scale_checked_before_classification(monkeypatch,
                                                    jordan_scale):
    def refuse(*args, **kwargs):
        pytest.fail("a bad jordan_scale reached the classification")

    monkeypatch.setattr(nf_module, "_classify", refuse)
    with pytest.raises(ValueError, match="jordan_scale must be finite"):
        birkhoff_normal_form(np.diag([0.7, -0.7]), jordan_scale=jordan_scale)


# the two block builders that _jordan_block replaced, as reference code
def real_block_reference(lam, k, eps):
    A = np.eye(k) * lam
    for l in range(k - 1):
        A[l + 1, l] = eps
    return A


def complex_block_reference(lam, k, eps):
    L = np.array([[np.real(lam), -np.imag(lam)], [np.imag(lam), np.real(lam)]])
    A = np.kron(np.eye(k), L)
    for l in range(k - 1):
        A[2 * (l + 1):2 * (l + 2), 2 * l:2 * (l + 1)] = eps * np.eye(2)
    return A


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jordan_block_matches_real_reference_bitwise(k):
    lam, eps = 0.7318, 0.2931
    got = nf_module._jordan_block(np.array([[lam]]), k, eps)
    assert got.tobytes() == real_block_reference(lam, k, eps).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jordan_block_matches_complex_reference_bitwise(k):
    lam, eps = complex(0.4113, 1.0927), 0.1877
    L = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
    got = nf_module._jordan_block(L, k, eps)
    assert got.tobytes() == complex_block_reference(lam, k, eps).tobytes()


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_normal_form_roundtrip_random_plants(seed):
    rng = rng_for(seed)
    lam = 0.3 + rng.uniform(0.0, 1.5)
    kind = rng.integers(0, 3)
    if kind == 0:
        A = np.array([[lam]])
    elif kind == 1:
        A = np.array([[lam, 1.0], [0.0, lam]])      # 2-chain
    else:
        beta = 0.4 + rng.uniform(0.0, 1.5)
        A = np.array([[lam, -beta], [beta, lam]])   # complex pair
    B = conjugated_normal_form(A, rng)
    nf = birkhoff_normal_form(B)
    got = np.sort_complex(np.linalg.eigvals(B))
    m = A.shape[0]
    want = np.sort_complex(np.concatenate(
        [np.linalg.eigvals(A), -np.linalg.eigvals(A)]))
    assert np.allclose(got, want, atol=1e-6)
    T = nf.transform.entries
    A_rec = nf.block_matrix_A
    B_blocks = np.block([[A_rec.T, np.zeros((m, m))],
                         [np.zeros((m, m)), -A_rec]])
    assert la.norm(np.linalg.solve(T, B @ T) - B_blocks) <= 1e-6
    assert sp.symplectic_residual(T) <= 1e-9


# ---------------------------------------------------------------------------
# positive-form diagonalization
# ---------------------------------------------------------------------------

def test_diagonalize_round_form():
    dec = williamson(sp.QuadraticHamiltonian(2.0 * np.eye(2)))
    assert np.allclose(dec.radii, [1.0], atol=1e-12)
    assert np.allclose(dec.transform.entries, np.eye(2), atol=1e-9)


def test_diagonalize_anisotropic_form():
    # q = a x^2 + b xi^2 has the single radius (a b)^(-1/4)
    a, b = 2.0, 3.0
    dec = williamson(sp.QuadraticHamiltonian(np.diag([2 * a, 2 * b])))
    assert dec.radii[0] == pytest.approx((a * b) ** -0.25, rel=1e-10)
    # brute-force sampling of q(T rho) against sqrt(ab) (x^2 + xi^2)
    rng = rng_for(3)
    T = dec.transform.entries
    for _ in range(20):
        rho = rng.standard_normal(2)
        v = T @ rho
        q_val = a * v[0] ** 2 + b * v[1] ** 2
        assert q_val == pytest.approx(
            np.sqrt(a * b) * (rho[0] ** 2 + rho[1] ** 2), rel=1e-9)


def test_diagonalize_rejects_indefinite():
    with pytest.raises(sp.NotPositiveDefinite):
        williamson(sp.QuadraticHamiltonian(np.diag([1.0, -1.0])))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_diagonalize_random_positive_forms(seed):
    rng = rng_for(seed)
    C = rng.standard_normal((4, 4))
    Q = C @ C.T + 0.1 * np.eye(4)
    dec = williamson(sp.QuadraticHamiltonian(Q))
    r = dec.radii
    assert np.all(r[:-1] <= r[1:] + 1e-12)
    T = dec.transform.entries
    assert sp.symplectic_residual(T) <= 1e-9
    D = T.T @ Q @ T
    want = np.diag(np.concatenate([2.0 / r**2, 2.0 / r**2]))
    assert la.norm(D - want) <= 1e-9 * la.norm(Q)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_radii_invariant_under_symplectic_conjugation(seed):
    rng = rng_for(seed)
    C = rng.standard_normal((4, 4))
    Q = C @ C.T + 0.1 * np.eye(4)
    T0 = random_symplectic(rng, 2)
    r1 = williamson(sp.QuadraticHamiltonian(Q)).radii
    r2 = williamson(sp.QuadraticHamiltonian(T0.T @ Q @ T0)).radii
    assert np.allclose(r1, r2, atol=1e-8 * max(1.0, np.max(r1)))


# ---------------------------------------------------------------------------
# escape-rate certificates
# ---------------------------------------------------------------------------

def test_escape_rate_single_eigenvalue():
    lam = 0.7
    nf = birkhoff_normal_form(np.diag([lam, -lam]))
    esc = escape_rate_form(nf)
    assert esc.positive_definite
    # the form is lambda (x^2 + xi^2), coefficient array 2 lambda I
    assert np.allclose(esc.form.coeff, 2 * lam * np.eye(2), atol=1e-12)
    # the certificate radius is lambda^(-1/2)
    assert esc.certificate.radii[0] == pytest.approx(lam ** -0.5, rel=1e-10)


def test_escape_rate_complex_block_is_isotropic():
    rng = rng_for(11)
    alpha, beta = 0.9, 1.7
    Lam = np.array([[alpha, -beta], [beta, alpha]])
    B = conjugated_normal_form(Lam, rng)
    esc = escape_rate_form(birkhoff_normal_form(B))
    # quadratic part of the escape derivative is alpha times the round form
    assert np.allclose(esc.form.coeff, 2 * alpha * np.eye(4), atol=1e-6)
    assert esc.positive_definite
    assert np.allclose(esc.certificate.radii, alpha ** -0.5, atol=1e-6)


def test_escape_rate_chain_needs_rescaling():
    # 2-chain at lambda = 0.1: raw coupling makes the symmetrized block
    # indefinite, min eigenvalue 0.1 - 0.5; shrinking the chain scale to
    # 0.05 restores positivity
    B_nf = np.array([[0.1, 0.0, 0.0, 0.0],
                     [1.0, 0.1, 0.0, 0.0],
                     [0.0, 0.0, -0.1, -1.0],
                     [0.0, 0.0, 0.0, -0.1]])
    nf_raw = birkhoff_normal_form(B_nf, jordan_scale=1.0)
    esc_raw = escape_rate_form(nf_raw)
    assert not esc_raw.positive_definite
    assert esc_raw.min_eigenvalue == pytest.approx(0.1 - 0.5, abs=1e-8)
    assert esc_raw.certificate is None
    nf_scaled = birkhoff_normal_form(B_nf, jordan_scale=0.05)
    esc_scaled = escape_rate_form(nf_scaled)
    assert esc_scaled.positive_definite
    assert esc_scaled.min_eigenvalue > 0


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_escape_rate_default_scale_certifies(seed):
    # default chain scale min(1, min Re lambda / 2) always certifies
    rng = rng_for(seed)
    lam = 0.2 + rng.uniform(0.0, 1.0)
    k = int(rng.integers(1, 4))
    A = lam * np.eye(k) + np.diag(np.ones(k - 1), 1)
    B = conjugated_normal_form(A, rng)
    esc = escape_rate_form(birkhoff_normal_form(B))
    assert esc.positive_definite
    assert esc.certificate is not None
    assert np.all(esc.certificate.radii > 0)
