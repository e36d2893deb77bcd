"""Symplectic core: structure matrix, Hamilton matrices, classification,
logarithm."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings, strategies as st

from loxokit import acceptance, errors
from loxokit import normal_form as nf
from loxokit import symplectic as sp
from loxokit.symplectic import _cluster_log as cluster_log


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_symplectic(rng, m, scale=0.4):
    """exp of a random Hamilton matrix is symplectic by construction."""
    dim = 2 * m
    C = scale * rng.standard_normal((dim, dim))
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(C + C.T))
    return la.expm(B.entries)


# ---------------------------------------------------------------------------
# standard structure matrix
# ---------------------------------------------------------------------------

def test_structure_matrix_m1():
    assert np.array_equal(sp.standard_symplectic_matrix(1),
                          [[0.0, -1.0], [1.0, 0.0]])


def test_structure_matrix_m2_blocks():
    J = sp.standard_symplectic_matrix(2)
    I2 = np.eye(2)
    assert np.array_equal(J[:2, 2:], -I2)
    assert np.array_equal(J[2:, :2], I2)
    assert np.array_equal(J[:2, :2], 0 * I2)
    assert np.array_equal(J[2:, 2:], 0 * I2)


@given(st.integers(min_value=1, max_value=8))
def test_structure_matrix_squares_to_minus_identity(m):
    J = sp.standard_symplectic_matrix(m)
    assert np.array_equal(J @ J, -np.eye(2 * m))


# ---------------------------------------------------------------------------
# Hamilton matrix assembly
# ---------------------------------------------------------------------------

def test_hamilton_matrix_dilation():
    lam = 0.7
    Q = np.array([[0.0, lam], [lam, 0.0]])
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(Q))
    assert np.allclose(B.entries, np.diag([lam, -lam]), atol=1e-14)


def test_hamilton_matrix_harmonic():
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(np.eye(2)))
    assert np.allclose(B.entries, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(B.entries)),
                       [-1j, 1j], atol=1e-12)


def test_hamilton_matrix_complex_pair_eigenvalues():
    # 4x4 coefficient array whose generator has the complex quadruple
    # 1 + i: assemble Q from the known rotation-scaling normal form and
    # check the dense eigensolver recovers {1 +- i, -1 -+ i}
    Lam = np.array([[1.0, -1.0], [1.0, 1.0]])
    B_nf = np.block([[Lam.T, np.zeros((2, 2))], [np.zeros((2, 2)), -Lam]])
    J = sp.standard_symplectic_matrix(2)
    Q = J @ B_nf
    assert np.allclose(Q, Q.T, atol=1e-14)
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(Q))
    got = np.sort_complex(np.linalg.eigvals(B.entries))
    want = np.sort_complex([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    assert np.allclose(got, want, atol=1e-10)


def test_hamilton_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        sp.QuadraticHamiltonian(np.array([[0.0, 1.0], [0.5, 0.0]]))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=4))
def test_hamilton_matrix_structure_relation(seed, m):
    rng = rng_for(seed)
    C = rng.standard_normal((2 * m, 2 * m))
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(C + C.T))
    assert sp.hamilton_residual(B.entries) <= 1e-10


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_hyperbolic_map():
    c = sp.classify(np.diag([np.e, 1 / np.e]), mode=sp.POINCARE_MAP)
    assert len(c.groups) == 1
    group = c.groups[0]
    assert isinstance(group, sp.RealHyperbolicPair)
    assert group.lam == pytest.approx(1.0, abs=1e-12)
    assert c.is_loxodromic
    assert not c.has_negative_real


def test_classify_rotation_is_elliptic():
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c = sp.classify(R, mode=sp.POINCARE_MAP)
    assert isinstance(c.groups[0], sp.EllipticGroup)
    assert c.groups[0].theta == pytest.approx(0.3, abs=1e-12)
    assert not c.is_loxodromic


def test_classify_negative_real_axis():
    c = sp.classify(np.diag([-np.e**2, -np.e**-2]), mode=sp.POINCARE_MAP)
    assert c.is_loxodromic
    assert c.has_negative_real


def test_classify_rejects_nonsymplectic():
    with pytest.raises(ValueError, match="input is not symplectic"):
        sp.classify(np.diag([2.0, 2.0]), mode=sp.POINCARE_MAP)


# singular, so not symplectic: its defect, 1.41, sits under a bound that
# grows with ||S||^2 (100 here) but is 1 relative to the columns it pairs
SINGULAR_MAP = np.diag([1e5, 0.0, 1e-5, 1.0])


@pytest.mark.parametrize("call", [
    lambda S: sp.classify(S, mode=sp.POINCARE_MAP),
    lambda S: sp.symplectic_log(S),
], ids=["classify", "symplectic_log"])
def test_singular_map_is_not_symplectic(call):
    with pytest.raises(ValueError, match="input is not symplectic"):
        call(SINGULAR_MAP)


def test_map_defect_is_relative_to_the_columns_it_pairs():
    # an exact map with columns 1e6 apart in norm passes; a relative
    # perturbation of 1e-7 in a small column fails, though a bound on the
    # whole matrix at the scale of the large column would pass it
    S = np.diag([1e3, 1e-3, 1e-3, 1e3])
    assert sp._paired_defect(S) == 0.0
    sp.classify(S, mode=sp.POINCARE_MAP)
    S[1, 1] *= 1 + 1e-7
    # entries (1, 3) and (3, 1) are off by 1e-7 of their columns
    assert sp._paired_defect(S) == pytest.approx(math.sqrt(2) * 1e-7,
                                                 rel=1e-6)
    assert sp._symplectic_defect(S) < sp.SYMPLECTIC_TOL * 1e6
    with pytest.raises(ValueError, match="input is not symplectic"):
        sp.classify(S, mode=sp.POINCARE_MAP)


HYPERBOLIC = np.diag([0.7, -0.7])


@pytest.mark.parametrize("call, words", [
    (lambda: sp.classify(np.ones((2, 3))), "must be square"),
    (lambda: sp.classify(np.eye(3), mode=sp.POINCARE_MAP), "even dimension"),
    (lambda: sp.classify(HYPERBOLIC, mode="flow"), "unknown mode 'flow'"),
    (lambda: sp.symplectic_log(np.ones(4)), "must be square"),
    (lambda: sp.symplectic_log(np.eye(3)), "even dimension"),
    (lambda: nf.birkhoff_normal_form(np.eye(3)), "even dimension"),
    (lambda: nf.birkhoff_normal_form(HYPERBOLIC, jordan_scale=0.0),
     "jordan_scale must be finite and > 0, not 0.0"),
    (lambda: nf.birkhoff_normal_form(HYPERBOLIC, jordan_scale=math.nan),
     "not nan"),
    (lambda: nf.birkhoff_normal_form(HYPERBOLIC, jordan_scale=math.inf),
     "not inf"),
    (lambda: nf.williamson(np.eye(3)), "even dimension"),
    (lambda: nf.williamson(np.array([[1.0, 1.0], [0.0, 1.0]])),
     "not symmetric within 1e-12"),
    (lambda: sp.hamilton_matrix(np.ones((2, 4))), "must be square"),
    (lambda: sp.hamilton_matrix(np.eye(1)), "even dimension"),
    (lambda: sp.classify(np.diag([0.7, math.nan])), "entries must be finite"),
    (lambda: sp.symplectic_log(np.diag([math.inf, 0.5])),
     "entries must be finite"),
    (lambda: nf.birkhoff_normal_form(np.diag([-math.inf, 0.7])),
     "entries must be finite"),
    (lambda: nf.williamson(np.diag([1.0, math.nan])),
     "entries must be finite"),
], ids=["classify-shape", "classify-odd", "classify-mode", "log-shape",
        "log-odd", "nf-odd", "nf-scale-zero", "nf-scale-nan", "nf-scale-inf",
        "williamson-odd", "williamson-asymmetric", "hamilton-shape",
        "hamilton-odd", "classify-nan", "log-inf", "nf-minus-inf",
        "williamson-nan"])
def test_input_errors_are_value_errors_not_numerical(call, words):
    # an input error exits 2 on the command line, a LoxokitError 3
    with pytest.raises(ValueError, match=words) as err:
        call()
    assert not isinstance(err.value, errors.LoxokitError)


def test_value_types_derive_their_dimension():
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(np.eye(4)))
    assert B.dim == 4
    assert sp.QuadraticHamiltonian(np.eye(6)).dim == 6
    assert sp.SymplecticTransform(np.eye(2)).dim == 2


def test_a_singular_transform_is_not_symplectic():
    # ||T^T J T - J||_F = 1.41 passed the old bound 1e-10 ||T||_F^2 = 100:
    # the large column hid the zero one
    T = np.diag([1e6, 0.0, 1e-6, 1.0])
    old_bound = sp.TRANSFORM_TOL * np.linalg.norm(T) ** 2
    assert sp.symplectic_residual(T) < old_bound
    with pytest.raises(sp.NotSymplectic, match="not symplectic"):
        sp.SymplecticTransform(T)
    # its columns scaled apart but still symplectic pass
    assert sp.SymplecticTransform(np.diag([1e6, 1.0, 1e-6, 1.0])).dim == 4


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=3),
       st.sampled_from([0.0, 4 * np.pi]))
@example(seed=0, m=3, strength=4 * np.pi)
def test_classify_map_and_generator_agree(seed, m, strength):
    # exp(B) is classified by the Hamilton-level logs of its eigenvalues,
    # so both modes report the same groups and flags; the term
    # strength * x_1 xi_1 plants a real pair near +-strength, which leaves
    # |Im lambda| < pi
    rng = rng_for(seed)
    C = 0.4 * rng.standard_normal((2 * m, 2 * m))
    Q = C + C.T
    Q[0, m] += strength
    Q[m, 0] += strength
    B = sp.hamilton_matrix(sp.QuadraticHamiltonian(Q)).entries
    gen = sp.classify(B)
    cmap = sp.classify(la.expm(B), mode=sp.POINCARE_MAP)

    def multiset(c):
        values = [complex(getattr(g, "lam", getattr(g, "theta", 0)))
                  for g in c.groups]
        return sorted((g.tag, getattr(g, "chain_size", 1), v.real, v.imag)
                      for g, v in zip(c.groups, values))

    a, b = multiset(gen), multiset(cmap)
    assert [g[:2] for g in a] == [g[:2] for g in b]
    assert all(abs(complex(*x[2:]) - complex(*y[2:])) <= 1e-8
               for x, y in zip(a, b))
    assert gen.is_loxodromic == cmap.is_loxodromic
    assert gen.has_negative_real == cmap.has_negative_real


def _rotation_scaling_generator(theta):
    A = np.array([[0.5, -theta], [theta, 0.5]])
    return la.block_diag(A.T, -A)


@pytest.mark.parametrize("B", [
    _rotation_scaling_generator(np.pi),
    _rotation_scaling_generator(np.nextafter(np.pi, 0)),
    _rotation_scaling_generator(np.pi - 1e-12),
    _rotation_scaling_generator(np.pi + 1e-12),
    np.array([[0.0, -np.pi], [np.pi, 0.0]]),     # elliptic pair +-i pi
], ids=["quad_pi", "quad_pi_nextafter", "quad_pi_below", "quad_pi_above",
        "elliptic_pi"])
def test_negative_real_flag_agrees_across_modes(B):
    # Im lambda = pi (mod 2 pi) from either side puts exp(lambda) on the
    # negative real axis
    assert sp.classify(B).has_negative_real
    assert sp.classify(la.expm(B), mode=sp.POINCARE_MAP).has_negative_real


@pytest.mark.parametrize("t, theta", [(np.pi, np.pi), (2 * np.pi, 0.0)])
def test_classify_near_scalar_harmonic_monodromy(t, theta):
    # half and full periods of the harmonic oscillator give -I and I up
    # to roundoff; the cluster is semisimple, not a defective Jordan block
    S = la.expm(t * sp.standard_symplectic_matrix(1))
    c = sp.classify(S, mode=sp.POINCARE_MAP)
    assert [g.tag for g in c.groups] == ["elliptic"]
    assert c.groups[0].theta == pytest.approx(theta, abs=1e-8)
    assert c.has_negative_real == (theta == np.pi)


@pytest.mark.parametrize("gap", [0.03, 0.003])
@pytest.mark.parametrize("mode", [sp.HAMILTON_MATRIX, sp.POINCARE_MAP])
def test_classify_nearby_jordan_chains(mode, gap):
    # two size-3 chains at 1.0 and 1.0 - gap: ranks taken on the whole
    # matrix counted the other chain's (M - lam I)^3 as kernel
    chain = lambda lam: lam * np.eye(3) + np.eye(3, k=1)
    A = la.block_diag(chain(1.0), chain(1.0 - gap))
    B = la.block_diag(A.T, -A)
    c = sp.classify(B if mode == sp.HAMILTON_MATRIX else la.expm(B),
                    mode=mode)
    assert [(g.tag, g.chain_size) for g in c.groups] == \
        [("real_hyperbolic", 3)] * 2
    assert [g.lam for g in c.groups] == pytest.approx([1.0, 1.0 - gap],
                                                      abs=1e-4)


@pytest.mark.parametrize("seed", [None, 0, 1, 2],
                         ids=["plain", "conj0", "conj1", "conj2"])
def test_classify_strongly_hyperbolic_map(seed):
    # e^-4pi and e^+-0.3 lie within CLUSTER_RTOL * e^4pi of each other,
    # but their logs lie far apart
    S = la.expm(np.diag([4 * np.pi, 0.3, -4 * np.pi, -0.3]))
    if seed is not None:
        P = random_symplectic(rng_for(seed), 2, scale=0.3)
        S = P @ S @ la.inv(P)
    c = sp.classify(S, mode=sp.POINCARE_MAP)
    assert [(g.tag, g.chain_size) for g in c.groups] == \
        [("real_hyperbolic", 1)] * 2
    assert [g.lam for g in c.groups] == pytest.approx([4 * np.pi, 0.3],
                                                      rel=1e-8)
    assert c.is_loxodromic and not c.has_negative_real


def test_group_counts_cover_dimension():
    rng = rng_for(7)
    S = random_symplectic(rng, 3)
    c = sp.classify(S, mode=sp.POINCARE_MAP)
    total = 0
    for g in c.groups:
        if isinstance(g, sp.ComplexHyperbolicQuad):
            total += 4 * g.chain_size
        elif isinstance(g, sp.RealHyperbolicPair):
            total += 2 * g.chain_size
        else:
            total += 2
    assert total == 6


# ---------------------------------------------------------------------------
# symplectic logarithm
# ---------------------------------------------------------------------------

def test_log_of_diagonal():
    B = sp.symplectic_log(np.diag([np.e, 1 / np.e]))
    assert np.allclose(B.entries, np.diag([1.0, -1.0]), atol=1e-12)


def test_log_of_rotation_roundtrip():
    th = 0.2
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    B = sp.symplectic_log(R)
    assert np.allclose(np.abs(B.entries), [[0.0, th], [th, 0.0]], atol=1e-12)
    assert la.norm(la.expm(B.entries) - R) <= 1e-10


def test_log_rejects_negative_real_axis():
    with pytest.raises(sp.NegativeRealEigenvalue):
        sp.symplectic_log(np.diag([-np.e**2, -np.e**-2]))


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=4))
def test_log_exp_roundtrip(seed, m):
    rng = rng_for(seed)
    S = random_symplectic(rng, m)
    eigs = np.linalg.eigvals(S)
    # exp-generated maps stay off the negative real axis
    assert not np.any((eigs.real < 0) & (np.abs(eigs.imag) < 1e-12))
    B = sp.symplectic_log(S)
    assert la.norm(la.expm(B.entries) - S) <= 1e-8 * max(1.0, la.norm(S))
    assert sp.hamilton_residual(B.entries) <= 1e-8
    # principal branch
    assert np.all(np.abs(np.linalg.eigvals(B.entries).imag) < np.pi)


@pytest.mark.parametrize("lam", [8.5, 9.0, 4 * np.pi, 20.0],
                         ids=["8.5", "9", "4pi", "20"])
def test_log_of_strongly_hyperbolic_map(lam):
    # the negative-axis test is relative to each |mu|: e^-lam is tiny next
    # to e^lam but positive
    S = np.diag([np.exp(lam), np.exp(-lam)])
    B = sp.symplectic_log(S).entries
    assert np.allclose(B, np.diag([lam, -lam]), rtol=1e-12, atol=0)
    assert la.norm(la.expm(B) - S) <= 1e-8 * la.norm(S, 2)


def test_log_separates_eigenvalues_far_apart_next_to_their_modulus():
    # e^-4pi and e^+-0.3 lie within CLUSTER_RTOL * e^4pi of each other but
    # have no common log series
    B0 = np.diag([4 * np.pi, 0.3, -4 * np.pi, -0.3])
    B = sp.symplectic_log(la.expm(B0)).entries
    assert np.allclose(B, B0, rtol=1e-12, atol=1e-12)


def test_cluster_log_series_converges_or_raises():
    # the series in E/mu converges for eigenvalues within |mu| of mu, and
    # slowly near that radius; an unconverged sum is never returned
    got = cluster_log(np.diag([1.0, 3.0]).astype(complex), 2.0)
    assert np.allclose(got, np.diag(np.log([1.0, 3.0])), rtol=0, atol=1e-14)
    with pytest.raises(sp.DefectiveBeyondTolerance):
        cluster_log(np.diag([0.1, 3.9]).astype(complex), 2.0)


# ---------------------------------------------------------------------------
# scipy.linalg.logm as the oracle of symplectic_log
# ---------------------------------------------------------------------------

def assert_log_matches_logm(S):
    with warnings.catch_warnings():
        # logm warns about its own error estimate on Jordan blocks
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = la.logm(S)
    assert la.norm(ref.imag) <= 1e-12 * max(1.0, la.norm(ref))
    B = sp.symplectic_log(S).entries
    assert la.norm(B - ref.real) <= 1e-10 * max(1.0, la.norm(ref))


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=4))
def test_log_matches_logm_on_random_maps(seed, m):
    assert_log_matches_logm(random_symplectic(rng_for(seed), m))


def _jordan(mu, k):
    return mu * np.eye(k) + np.eye(k, k=1)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def _map_of(M):
    """blockdiag(M, M^-T) is symplectic for every invertible M."""
    return la.block_diag(M, la.inv(M).T)


def _elliptic_map(a, b):
    """Rotations by a in the (x1, xi1) plane and by b in (x2, xi2)."""
    S = np.zeros((4, 4))
    S[np.ix_([0, 2], [0, 2])] = _rotation(a)
    S[np.ix_([1, 3], [1, 3])] = _rotation(b)
    return S


PLANTED_MAPS = {
    **{f"J{k}({mu})": _map_of(_jordan(mu, k))
       for k in (1, 2, 3, 4) for mu in (1.0, 0.6, 2.0)},
    **{f"J3(1)+J3({1 - g:g})": _map_of(la.block_diag(_jordan(1.0, 3),
                                                      _jordan(1.0 - g, 3)))
       for g in (0.03, 0.003)},
    "quad": _map_of(1.5 * _rotation(0.8)),
    "quad_near_pi": _map_of(0.7 * _rotation(3.1)),
    "quad_chain": _map_of(np.kron(np.eye(2), 0.7 * _rotation(2.0))
                          + np.eye(4, k=2)),
    **{f"elliptic({a},{b})": _elliptic_map(a, b)
       for a, b in ((0.3, 0.15), (2.0, 1.0), (3.1, 0.4))},
}


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("name", sorted(PLANTED_MAPS))
def test_log_matches_logm_on_planted_maps(name, conjugate):
    S = PLANTED_MAPS[name]
    if conjugate:
        # a random symplectic conjugation hides the block structure
        P = random_symplectic(rng_for(sum(map(ord, name))), S.shape[0] // 2,
                              scale=0.3)
        S = P @ S @ la.inv(P)
    assert_log_matches_logm(S)


def test_no_product_path_calls_logm(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.logm was called")

    monkeypatch.setattr(la, "logm", forbidden)
    B = sp.symplectic_log(PLANTED_MAPS["J3(1)+J3(0.97)"])
    assert sp.hamilton_residual(B.entries) <= 1e-10
    ok, detail = acceptance.criterion_log_exp_roundtrip()
    assert ok, detail
