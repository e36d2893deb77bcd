"""Small-matrix LAPACK kernels of loxokit.symplectic: bit-identity with
the scipy.linalg wrappers they replace, pinned Williamson and normal-form
outputs, and the finite rules for input and intermediate matrices."""

import hashlib

import numpy as np
import pytest
import scipy.linalg as la

from loxokit import errors
from loxokit import normal_form as nf
from loxokit import symplectic as sp

SIZES = range(2, 9)
SEEDS = range(6)


def random_matrix(seed, shape, complex_):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    if complex_:
        a = a + 1j * rng.standard_normal(shape)
    return a


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# each helper reproduces its scipy wrapper bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
def test_eigh_matches_scipy_bitwise(n):
    for seed in SEEDS:
        a = random_matrix(seed, (n, n), False)
        a = a + a.T
        assert_same_bits(sp._eigh(a), la.eigh(a))
        assert_same_bits([sp._eigh(a, eigvals_only=True)],
                         [la.eigh(a, eigvals_only=True)])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("complex_", [False, True])
def test_schur_matches_scipy_bitwise(n, complex_):
    output = "complex" if complex_ else "real"
    for seed in SEEDS:
        a = random_matrix(seed, (n, n), complex_)
        assert_same_bits(sp._schur(a), la.schur(a, output=output))
        # sorted: the eigenvalues left of the widest gap in real part lead
        re = np.sort(la.eigvals(a).real)
        i = int(np.argmax(np.diff(re)))
        cut = 0.5 * (re[i] + re[i + 1])
        if complex_:
            def sort(w):
                return w.real < cut
        else:
            def sort(re, im):
                return re < cut
        T, Z, sdim = sp._schur(a, sort=sort)
        T_ref, Z_ref, sdim_ref = la.schur(a, output=output, sort=sort)
        assert_same_bits([T, Z], [T_ref, Z_ref])
        assert sdim == sdim_ref


@pytest.mark.parametrize("n", SIZES)
def test_eig_matches_scipy_bitwise(n):
    # real input only, as in the kernels: random (conjugate pairs) and
    # symmetric (a real spectrum, real vectors)
    for seed in SEEDS:
        a = random_matrix(seed, (n, n), False)
        for m in (a, a + a.T):
            assert_same_bits(sp._eig(m), la.eig(m))
            assert_same_bits([sp._eig(m, vectors=False)], [la.eigvals(m)])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("complex_", [False, True])
def test_svd_matches_scipy_bitwise(n, complex_):
    for seed in SEEDS:
        for shape in ((n, n), (n, 2 * n), (2 * n, n - 1)):
            a = random_matrix(seed, shape, complex_)
            assert_same_bits(sp._svd(a), la.svd(a))
            assert_same_bits(sp._svd(a, full_matrices=False),
                             la.svd(a, full_matrices=False))
            assert_same_bits([sp._svd(a, compute_uv=False)],
                             [la.svdvals(a)])


def test_norm2_matches_numpy_bitwise():
    for n in SIZES:
        for complex_ in (False, True):
            for seed in SEEDS:
                a = random_matrix(seed, (n, n), complex_)
                assert sp._norm2(a) == np.linalg.norm(a, 2)


def test_structure_matrix_is_shared_and_read_only():
    J = sp._structure(3)
    assert J is sp._structure(3)
    assert np.array_equal(J, sp.standard_symplectic_matrix(3))
    with pytest.raises(ValueError):
        J[0, 0] = 1.0
    # the public constructor still hands out a new, writable array
    fresh = sp.standard_symplectic_matrix(3)
    assert fresh is not sp.standard_symplectic_matrix(3)
    fresh[0, 0] = 1.0


# ---------------------------------------------------------------------------
# pinned outputs on a seeded batch
# ---------------------------------------------------------------------------
# Inputs are built from small integers and dyadic rationals, so every
# product that forms them is exact and the inputs are the same bits on
# any BLAS. The digests were recorded with the scipy.linalg wrappers, on
# scipy 1.17.1 and numpy 2.4.6 with their bundled OpenBLAS (x86-64): a
# scipy, LAPACK or workspace change that moves a last bit fails here.

def williamson_inputs():
    rng = np.random.default_rng(31)
    forms = []
    for m in (1, 2, 3, 4):
        for _ in range(4):
            R = rng.integers(-2, 3, (2 * m, 2 * m)).astype(float)
            forms.append(R.T @ R + 3.0 * np.eye(2 * m))
    return forms


def integer_symplectic(rng, m):
    """[[I, K], [0, I]] [[I, 0], [L, I]] for symmetric integer K, L, and
    its inverse, both exact."""
    K = rng.integers(-1, 2, (m, m)).astype(float)
    L = rng.integers(-1, 2, (m, m)).astype(float)
    K, L = K + K.T, L + L.T
    eye, zero = np.eye(m), np.zeros((m, m))
    upper = np.block([[eye, K], [zero, eye]])
    lower = np.block([[eye, zero], [L, eye]])
    upper_inv = np.block([[eye, -K], [zero, eye]])
    lower_inv = np.block([[eye, zero], [-L, eye]])
    return upper @ lower, lower_inv @ upper_inv


def normal_form_inputs():
    """Conjugated blockdiag(A^T, -A) with a real Jordan chain, a simple
    real eigenvalue and a complex block, in dimension 4, 6 and 8."""
    rng = np.random.default_rng(32)
    plants = [
        [np.array([[0.5, 1.0], [0.0, 0.5]])],
        [np.array([[1.25]]), np.array([[0.75, -0.5], [0.5, 0.75]])],
        [np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]),
         np.array([[1.5]])],
        [np.array([[0.75, -1.25], [1.25, 0.75]]),
         np.array([[0.5, 1.0], [0.0, 0.5]])],
    ]
    inputs = []
    for blocks in plants:
        A = la.block_diag(*blocks)
        S, S_inv = integer_symplectic(rng, A.shape[0])
        inputs.append(S @ la.block_diag(A.T, -A) @ S_inv)
    return inputs


def digest(arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


def williamson_digest():
    arrays = []
    for Q in williamson_inputs():
        dec = nf.williamson(Q)
        arrays += [dec.radii, dec.transform.entries]
    return digest(arrays)


def normal_form_digest():
    arrays = []
    for B in normal_form_inputs():
        form = nf.birkhoff_normal_form(B)
        rate = nf.escape_rate_form(form)
        arrays += [form.transform.entries, form.block_matrix_A,
                   rate.certificate.radii, rate.certificate.transform.entries]
    return digest(arrays)


def test_pinned_inputs_are_exact():
    for Q in williamson_inputs():
        assert np.array_equal(Q, np.rint(Q))
    for B in normal_form_inputs():
        assert np.array_equal(B * 4, np.rint(B * 4))


def test_williamson_outputs_are_pinned():
    assert williamson_digest() == WILLIAMSON_DIGEST


def test_normal_form_outputs_are_pinned():
    assert normal_form_digest() == NORMAL_FORM_DIGEST


WILLIAMSON_DIGEST = \
    "bbb61825efa6406ea806c2f7c572640684989e9f69bfa5b29818db91f543a309"
NORMAL_FORM_DIGEST = \
    "cbd0cd1daea26bed3318f978eb32635ef6fcd39ea098fe5c9edcb33e23a5c635"


# ---------------------------------------------------------------------------
# finite rules
# ---------------------------------------------------------------------------

def test_nonfinite_intermediate_is_a_numerical_failure():
    # Q^{-1/2} J Q^{-1/2} overflows for a form this small; the Schur
    # kernel refuses it as a LoxokitError (exit 3), not a ValueError
    with np.errstate(over="ignore"), \
            pytest.raises(sp.NonFiniteMatrix) as err:
        nf.williamson(np.diag([1e-310, 1e-310]))
    assert isinstance(err.value, errors.LoxokitError)
    assert not isinstance(err.value, ValueError)


def test_overflowing_chain_scale_is_a_numerical_failure():
    # jordan_scale^-2 overflows on a size-3 chain: an inf column of T, where
    # a float power used to raise OverflowError
    A = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(sp.NonFiniteMatrix):
        nf.birkhoff_normal_form(la.block_diag(A.T, -A), jordan_scale=1e-200)


def test_unbounded_transform_is_a_numerical_failure():
    # at jordan_scale 1e-100 the chain's T stays finite, with entries near
    # 1e200, but cond(T) is inf: the residual bound, which grows with
    # cond(T), is inf too and would pass any transform. It is refused
    # before the solve, which would warn that T is ill-conditioned
    A = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    with pytest.raises(sp.DefectiveBeyondTolerance,
                       match="bound is not finite") as err:
        nf.birkhoff_normal_form(la.block_diag(A.T, -A), jordan_scale=1e-100)
    assert isinstance(err.value, errors.LoxokitError)
    assert not isinstance(err.value, ValueError)


def test_transform_with_an_overflowing_bound_is_refused():
    # exactly symplectic, but ||T||^2 overflows, so TRANSFORM_TOL ||T||^2
    # is inf and would pass any defect
    with np.errstate(over="ignore"), \
            pytest.raises(sp.NotSymplectic, match="finite tolerance"):
        sp.SymplecticTransform(np.diag([1e200, 1e-200]))


@pytest.mark.parametrize("helper, a", [
    (sp._eigh, np.diag([1.0, np.inf])),
    (sp._schur, np.diag([np.nan, 1.0])),
    (sp._eig, np.diag([1.0, -np.inf])),
    (sp._svd, np.array([[1.0, np.nan]])),
], ids=["eigh", "schur", "eig", "svd"])
def test_every_kernel_refuses_a_nonfinite_matrix(helper, a):
    with pytest.raises(sp.NonFiniteMatrix, match="NaN or inf"):
        helper(a)
