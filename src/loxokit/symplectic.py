"""Symplectic linear algebra for loxodromic (hyperbolic) spectra.

Conventions, fixed once for the whole package:

* phase space is R^{2m} with coordinates rho = (x, xi),
* the standard symplectic matrix is ``J = [[0, -I], [I, 0]]``,
* a quadratic Hamiltonian is q(rho) = (1/2) <rho, Q rho> with Q symmetric,
* its Hamilton matrix is B = -J Q, so the flow is rho' = B rho,
* a symplectic transform satisfies T^T J T = J.

Internally the symplectic pairing is evaluated as ``s(u, v) = <J u, v>``,
which makes the canonical pair e = (1, 0), f = (0, 1) satisfy s(e, f) = 1.

A symplectic map is read through the principal logs lambda = log mu of
its eigenvalues, taken modulo 2 pi i, so classify applies the rules of a
Hamilton matrix to both: |mu| = 1 is Re lambda = 0, the partner 1/mu is
-lambda, and mu < 0 is Im lambda = pi (mod 2 pi), the one negative-axis
test, which symplectic_log shares.

Tolerances are fixed module constants: SYMMETRY_RTOL, HAMILTON_TOL,
SYMPLECTIC_TOL, TRANSFORM_TOL, UNIT_TOL, CLUSTER_RTOL, RANK_RTOL,
ROUNDTRIP_TOL, BLOCK_RESIDUAL_TOL and LOG_CLUSTER_TOL (see their
definitions).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.linalg import lapack

from .errors import LoxokitError


class SymplecticError(LoxokitError):
    """Base class for the numerical failures of this module; an input of
    the wrong shape, an input matrix that fails its structural identity or
    an unknown option is a ValueError instead."""


class NotSymplectic(SymplecticError):
    """A value type's matrix violates its structural identity."""


class GroupingFailed(SymplecticError):
    """Eigenvalues cannot be matched into pairs/quadruples within tolerance."""


class NegativeRealEigenvalue(SymplecticError):
    """Spectrum touches the closed negative real axis; no real principal log."""


class EllipticEigenvaluePresent(SymplecticError):
    """Operation requires a loxodromic spectrum but found a unit-modulus /
    purely imaginary eigenvalue."""


class DefectiveBeyondTolerance(SymplecticError):
    """Jordan structure could not be resolved at the requested tolerance."""


class NotPositiveDefinite(SymplecticError):
    """Quadratic form is not positive definite."""


class NonFiniteMatrix(SymplecticError):
    """A matrix computed inside a kernel holds NaN or inf (an overflow);
    a non-finite input matrix is a ValueError instead."""


# Fixed tolerances, relative to the scale of the input unless noted.
SYMMETRY_RTOL = 1e-12       # Q = Q^T for quadratic Hamiltonians
HAMILTON_TOL = 1e-10        # ||J B + B^T J||
SYMPLECTIC_TOL = 1e-8       # S^T J S - J over its column norms, maps
TRANSFORM_TOL = 1e-10       # T^T J T - J over its column norms, transforms
UNIT_TOL = 1e-7             # pair/quadruple matching, axis tests
CLUSTER_RTOL = 1e-4         # same-eigenvalue clustering (Jordan); a
                            # chain of size k scatters by ~eps^(1/k)
RANK_RTOL = 1e-8            # SVD threshold for rank decisions
ROUNDTRIP_TOL = 1e-8        # exp(log S) = S
BLOCK_RESIDUAL_TOL = 1e-8   # ||T^{-1} B T - blockdiag(A^T, -A)||
LOG_CLUSTER_TOL = 1e-2      # symplectic_log: eigenvalues whose logs lie
                            # this close share one Schur block; see there
LOG_SERIES_CAP = 100        # terms of one block's log series

HAMILTON_MATRIX = "hamilton_matrix"
POINCARE_MAP = "poincare_map"


def standard_symplectic_matrix(m):
    """Return a new 2m x 2m matrix J = [[0, -I], [I, 0]]."""
    J = np.zeros((2 * m, 2 * m))
    idx = np.arange(m)
    J[idx, m + idx] = -1.0
    J[m + idx, idx] = 1.0
    return J


@functools.cache
def _structure(m):
    """J for phase space R^{2m}, built once per m and read-only: the one
    the kernels multiply with."""
    J = standard_symplectic_matrix(m)
    J.flags.writeable = False
    return J


def symplectic_pairing(u, v):
    """s(u, v) = <J u, v>; s(e_x, e_xi) = +1 for a canonical pair."""
    m = u.shape[0] // 2
    # <J u, v> = -u_xi . v_x + u_x . v_xi  without forming J
    return np.dot(u[:m], v[m:]) - np.dot(u[m:], v[:m])


def _as_matrix(obj):
    """The matrix of obj (an array or a value type of this module) as a
    float array; a shape that is not even and square, or a NaN or
    infinite entry, raises ValueError."""
    M = np.asarray(getattr(obj, "entries", getattr(obj, "coeff", obj)),
                   dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.shape[0] % 2 != 0:
        raise ValueError(f"matrix must have even dimension, got {M.shape[0]}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite, not NaN or inf")
    return M


def _hamilton_defect(B):
    """||J B + B^T J||_F of a checked matrix B."""
    J = _structure(B.shape[0] // 2)
    return np.linalg.norm(J @ B + B.T @ J)


def _paired_defect(S):
    """||D||_F of a checked matrix S, where D_ij is (S^T J S - J)_ij over
    |s_i| |s_j|, the norms of the two columns of S that entry pairs, which
    bound |(S^T J S)_ij|: each entry is judged at its own scale, so a large
    column cannot hide a small one. A zero column (S singular) gives inf."""
    c = np.linalg.norm(S, axis=0)
    if not c.all():
        return math.inf
    J = _structure(S.shape[0] // 2)
    return np.linalg.norm((S.T @ J @ S - J) / c[:, None] / c)


def hamilton_residual(B):
    """||J B + B^T J||_F, the defect of the Hamilton-matrix identity."""
    return _hamilton_defect(_as_matrix(B))


def symplectic_residual(S):
    """||S^T J S - J||_F, the defect of the symplectic identity."""
    S = _as_matrix(S)
    J = _structure(S.shape[0] // 2)
    return np.linalg.norm(S.T @ J @ S - J)


def _norm2(a):
    """||a||_2, the largest singular value: np.linalg.norm(a, 2) without its
    axis handling."""
    return np.linalg.svd(a, compute_uv=False)[0]


@dataclass
class QuadraticHamiltonian:
    """Quadratic form q(rho) = (1/2) <rho, coeff rho> on R^dim.

    coeff must be symmetric to relative tolerance SYMMETRY_RTOL; it is
    symmetrized on construction, and an asymmetric one is a ValueError.
    """

    coeff: np.ndarray
    dim = property(lambda self: self.coeff.shape[0])

    def __post_init__(self):
        Q = _as_matrix(self.coeff)
        if not (np.linalg.norm(Q - Q.T)
                <= SYMMETRY_RTOL * max(1.0, np.linalg.norm(Q))):
            raise ValueError(f"coeff matrix is not symmetric within "
                             f"{SYMMETRY_RTOL:g} (relative)")
        self.coeff = 0.5 * (Q + Q.T)


@dataclass
class HamiltonMatrix:
    """Linear vector field B with J B + B^T J = 0 (flow rho' = B rho),
    judged by classify's rule (_identity_defect), which then accepts it."""

    entries: np.ndarray
    dim = property(lambda self: self.entries.shape[0])

    def __post_init__(self):
        B = _as_matrix(self.entries)
        defect, bound, _ = _identity_defect(B, HAMILTON_MATRIX)
        if not defect <= bound:
            raise NotSymplectic(f"J B + B^T J != 0: defect {defect:.2e} over "
                                f"the bound {bound:.2e}; not a Hamilton matrix")
        self.entries = B


@dataclass
class SymplecticTransform:
    """Invertible T with T^T J T = J within TRANSFORM_TOL, each entry
    over the norms of the two columns it pairs (_paired_defect), so a
    large column cannot hide a singular one; a T whose ||T||_F^2, which
    bounds cond_2(T) = ||T||_2^2, overflows is refused too."""

    entries: np.ndarray
    dim = property(lambda self: self.entries.shape[0])

    def __post_init__(self):
        T = _as_matrix(self.entries)
        if not (_paired_defect(T) <= TRANSFORM_TOL
                and np.linalg.norm(T) ** 2 < math.inf):
            raise NotSymplectic("T^T J T != J within a finite tolerance: "
                                "not symplectic")
        self.entries = T


def hamilton_matrix(q: QuadraticHamiltonian) -> HamiltonMatrix:
    """Hamilton matrix B = -J Q of a quadratic Hamiltonian or its coeff."""
    if not isinstance(q, QuadraticHamiltonian):
        q = QuadraticHamiltonian(q)
    return HamiltonMatrix(-_structure(q.dim // 2) @ q.coeff)


# ---------------------------------------------------------------------------
# small-matrix LAPACK kernels
# ---------------------------------------------------------------------------
# The matrices of this module and of normal_form are 2 x 2 ... 8 x 8, where
# scipy.linalg's wrappers cost more than the LAPACK work. These helpers
# call the routines that la.eigh, la.schur, la.eig and la.svd call, with
# the workspace sizes those query (cached per routine and size), so their
# results are the wrappers' bit for bit. Each checks its input with
# _finite and raises la.LinAlgError with the wrapper's message when LAPACK
# reports a failure.

def _finite(a):
    """a, if every entry is finite; NonFiniteMatrix (a numerical failure)
    otherwise."""
    if not np.isfinite(a).all():
        raise NonFiniteMatrix(f"a {a.shape[0]} x {a.shape[1]} matrix "
                              f"computed from the input holds NaN or inf")
    return a


def _no_sort(*eigenvalue):
    """The select callback of an unsorted ?gees call."""


@functools.cache
def _workspace(query, *sizes):
    """The workspace that the size query query returns for sizes, as
    integers (one for each work array)."""
    *work, info = query(*sizes)
    if info != 0:
        raise la.LinAlgError(f"workspace query failed: info {info}")
    return tuple(int(w.real) for w in work)


@functools.cache
def _gees_workspace(gees, n, dtype):
    """la.schur's workspace for an n x n matrix: its lwork = -1 query, which
    depends only on n. The routine's default lwork gives other bits."""
    return int(gees(_no_sort, np.zeros((n, n), dtype), lwork=-1)[-2][0].real)


def _eigh(a, eigvals_only=False):
    """la.eigh of a real symmetric a (dsyevr on its lower triangle): the
    ascending eigenvalues w, and with eigvals_only False the eigenvectors."""
    lwork, liwork = _workspace(lapack.dsyevr_lwork, a.shape[0], 1)
    w, v, _, _, info = lapack.dsyevr(
        _finite(a), compute_v=int(not eigvals_only), lower=1, lwork=lwork,
        liwork=liwork)
    if info != 0:
        raise la.LinAlgError("Internal Error.")
    return w if eigvals_only else (w, v)


def _schur(a, sort=None):
    """la.schur of a, real for a real a and complex for a complex one:
    (T, Z), and with a sort callback (T, Z, sdim)."""
    n = a.shape[0]
    gees = lapack.zgees if np.iscomplexobj(a) else lapack.dgees
    result = gees(sort or _no_sort, _finite(a),
                  lwork=_gees_workspace(gees, n, a.dtype),
                  sort_t=int(sort is not None))
    info = result[-1]
    if info == n + 1:
        raise la.LinAlgError("Eigenvalues could not be separated for "
                             "reordering.")
    if info == n + 2:
        raise la.LinAlgError("Leading eigenvalues do not satisfy sort "
                             "condition.")
    if info != 0:
        raise la.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    T, Z = result[0], result[-3]
    return (T, Z) if sort is None else (T, Z, result[1])


_I = np.array(1j, dtype="F")   # la.eig forms w = wr + _I * wi with this unit


def _eig(a, vectors=True):
    """la.eig of a real a (dgeev): the eigenvalues w, and with vectors the
    right eigenvectors, complex where w has a conjugate pair."""
    wr, wi, _, vr, info = lapack.dgeev(
        _finite(a), compute_vl=0, compute_vr=int(vectors),
        lwork=_workspace(lapack.dgeev_lwork, a.shape[0], 0, int(vectors))[0])
    if info != 0:
        raise la.LinAlgError(f"eig algorithm (geev) did not converge (only "
                             f"eigenvalues with order >= {info} have "
                             f"converged)")
    w = wr + _I * wi
    if not vectors:
        return w
    if np.all(w.imag == 0.0):
        return w, vr
    # a pair's vectors are stored as the real and imaginary parts of the
    # first member's
    v = np.array(vr, dtype=complex)
    pair = w.imag > 0
    pair[:-1] |= w.imag[1:] < 0
    for i in np.flatnonzero(pair):
        v.imag[:, i] = vr[:, i + 1]
        np.conj(v[:, i], v[:, i + 1])
    return w, v


def _svd(a, compute_uv=True, full_matrices=True):
    """la.svd of a, real or complex (?gesdd): (U, s, Vh), or s alone with
    compute_uv False, as la.svdvals."""
    complex_ = np.iscomplexobj(a)
    gesdd = lapack.zgesdd if complex_ else lapack.dgesdd
    query = lapack.zgesdd_lwork if complex_ else lapack.dgesdd_lwork
    lwork = _workspace(query, *a.shape, int(compute_uv), int(full_matrices))[0]
    u, s, vh, info = gesdd(_finite(a), compute_uv=int(compute_uv),
                           full_matrices=int(full_matrices), lwork=lwork)
    if info != 0:
        raise la.LinAlgError("SVD did not converge")
    return (u, s, vh) if compute_uv else s


# ---------------------------------------------------------------------------
# spectrum classification
# ---------------------------------------------------------------------------

@dataclass
class RealHyperbolicPair:
    """Eigenvalue pair (lambda, -lambda), lambda > 0, with one Jordan chain.

    For map inputs lambda is log|mu| of the expanding representative;
    negative_real marks the mu < 0 case (no real Hamilton logarithm).
    """

    lam: float
    chain_size: int = 1
    negative_real: bool = False

    tag = "real_hyperbolic"

    @property
    def dim_count(self):
        return 2 * self.chain_size


@dataclass
class ComplexHyperbolicQuad:
    """Eigenvalue quadruple (lambda, -lambda, conj, -conj), Re/Im lambda > 0."""

    lam: complex
    chain_size: int = 1

    tag = "complex_hyperbolic"

    @property
    def dim_count(self):
        return 4 * self.chain_size


@dataclass
class EllipticGroup:
    """Unit-modulus / purely imaginary pair, rotation angle theta >= 0."""

    theta: float

    tag = "elliptic"

    @property
    def dim_count(self):
        return 2


@dataclass
class SpectrumClassification:
    dim: int
    mode: str
    groups: list
    is_loxodromic: bool
    has_negative_real: bool

    @property
    def min_real_part(self):
        parts = [abs(np.real(g.lam)) for g in self.groups if g.tag != "elliptic"]
        return min(parts) if parts else 0.0


def _cluster_values(vals, tol, wrap=lambda d: d):
    """Greedy union-find clustering of complex values at absolute tol;
    wrap maps a difference to the one whose size is compared. Returns the
    clusters' index lists, largest mean value (real part, then imaginary)
    first."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(wrap(vals[i] - vals[j])) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    means = {root: np.mean([vals[i] for i in members])
             for root, members in clusters.items()}
    order = sorted(clusters,
                   key=lambda r: (-np.real(means[r]), -np.imag(means[r])))
    return [clusters[root] for root in order]


def _cluster_schur(M, lam, members, eigs):
    """Ordered complex Schur form M Z = Z T with the cluster eigs[members]
    (mean lam) leading, cut to the cluster: an orthonormal basis Z of its
    invariant subspace and the block T11 = Z^H M Z."""
    k = len(members)
    inner = max(abs(eigs[i] - lam) for i in members)
    outer = min((abs(v - lam) for j, v in enumerate(eigs) if j not in members),
                default=np.inf)
    T, Z, sdim = _schur(M.astype(complex),
                        sort=lambda w: abs(w - lam) <= 0.5 * (inner + outer))
    if sdim != k:
        raise DefectiveBeyondTolerance(
            f"Schur ordering for eigenvalue {lam} selected {sdim} "
            f"eigenvalues, expected {k}")
    return Z[:, :k], T[:k, :k]


def _block_sizes(T11, lam, scale):
    """Jordan block sizes, largest first, of a cluster with mean lam.

    The ranks of (T11 - lam I)^k are taken on the cluster's own invariant
    block T11 (see _cluster_schur), so the chains of a nearby eigenvalue
    cannot count toward the kernel.
    """
    k = T11.shape[0]
    N = T11 - lam * np.eye(k)
    norm_N = max(_norm2(N), 1e-300)
    if norm_N <= RANK_RTOL * scale:
        # the block is lam I up to roundoff, so every rank below would be noise
        return [1] * k
    ranks = [k]
    P = np.eye(k, dtype=complex)
    for j in range(1, k + 1):
        P = P @ N
        s = _svd(P, compute_uv=False)
        thr = RANK_RTOL * norm_N ** j
        ranks.append(int(np.sum(s > max(thr, s[0] * 1e-14))))
        if ranks[-1] == 0:
            break
    # d_j = number of blocks of size >= j
    d = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    sizes = []
    for j, dj in enumerate(d, start=1):
        d_next = d[j] if j < len(d) else 0
        sizes.extend([j] * (dj - d_next))
    sizes.sort(reverse=True)
    if sum(sizes) != k:
        raise DefectiveBeyondTolerance(
            f"rank sequence inconsistent for eigenvalue {lam}: "
            f"block sizes {sizes} vs multiplicity {k}")
    return sizes


def _identity_defect(Mm, mode):
    """The defect of Mm's structural identity under mode (a map is
    symplectic, a generator a Hamilton matrix), the bound that defect must
    not exceed, and the scale max(1, ||Mm||_2). A generator's bound grows
    with the scale; a map's defect is relative to its columns already
    (_paired_defect)."""
    scale = max(1.0, _norm2(Mm))
    if mode == POINCARE_MAP:
        return _paired_defect(Mm), SYMPLECTIC_TOL, scale
    if mode == HAMILTON_MATRIX:
        return _hamilton_defect(Mm), HAMILTON_TOL * scale, scale
    raise ValueError(f"unknown mode {mode!r}")


def _structured_input(M, mode):
    """M as an even square array satisfying the identity of mode, with
    the scale max(1, ||M||_2); the refusal names the defect and its bound."""
    Mm = _as_matrix(M)
    defect, bound, scale = _identity_defect(Mm, mode)
    if not defect <= bound:
        identity = "symplectic" if mode == POINCARE_MAP else "a Hamilton matrix"
        kind = "symplectic" if mode == POINCARE_MAP else "Hamilton"
        raise ValueError(f"input is not {identity} within tolerance: {kind} "
                         f"defect {defect:.2e} over the bound {bound:.2e}")
    return Mm, scale


def _wrap_2pi(d):
    """d with its imaginary part taken modulo 2 pi into [-pi, pi]: the
    distance between two map logs, which are defined modulo 2 pi i."""
    return complex(d.real, math.remainder(d.imag, 2 * math.pi))


def _negative_real(lam, tol):
    """exp(lam) < 0: Im lam is an odd multiple of pi, within tol."""
    return abs(math.remainder(abs(np.imag(lam)) - math.pi, 2 * math.pi)) <= tol


def classify(M, mode=HAMILTON_MATRIX):
    """Group the spectrum of a Hamilton matrix (mode HAMILTON_MATRIX) or
    of a symplectic map (mode POINCARE_MAP) into elliptic groups, real
    pairs and complex quadruples, one group per Jordan chain.

    Groups store Hamilton-level representatives: for maps the stored
    lambda is the principal log of the expanding eigenvalue.
    """
    return _classify(M, mode)[0]


def _classify(M, mode):
    """classify, plus one entry per hyperbolic cluster lambda it visits:
    (the groups of lambda, its (Z, T11) from _cluster_schur, the basis Z
    of the partner cluster -lambda, which pairs with it under s). A map is
    read through its eigenvalue logs (see the module docstring); its Schur
    blocks and chain sizes are taken on the eigenvalues mu themselves."""
    Mm, scale = _structured_input(M, mode)
    n = Mm.shape[0]
    eigs = _eig(Mm, vectors=False)
    is_map = mode == POINCARE_MAP
    lams = np.log(eigs) if is_map else eigs
    wrap = _wrap_2pi if is_map else (lambda d: d)
    lam_scale = max(1.0, float(np.max(np.abs(lams))))
    clusters = _cluster_values(lams, CLUSTER_RTOL * lam_scale, wrap)
    # a cluster's mean is taken on mu, as a mean of logs breaks at the cut
    means = [np.mean(eigs[members]) for members in clusters]
    reps = [np.log(mu) for mu in means] if is_map else means
    schur = [_cluster_schur(Mm, mu, members, eigs)
             for mu, members in zip(means, clusters)]
    sizes = [_block_sizes(T11, mu, scale)
             for mu, (_, T11) in zip(means, schur)]
    match_tol = UNIT_TOL * lam_scale
    window = max(match_tol, 10 * CLUSTER_RTOL * lam_scale)
    consumed = set()

    def take(value):
        """Consume the free cluster nearest to value within the window."""
        best, best_dist = None, window
        for idx, rep in enumerate(reps):
            dist = abs(wrap(rep - value))
            if idx not in consumed and dist <= best_dist:
                best, best_dist = idx, dist
        if best is None:
            raise GroupingFailed(f"no eigenvalue matches {value}")
        consumed.add(best)
        return best

    groups, hyperbolic = [], []
    has_negative_real = False
    for idx in range(len(reps)):   # expanding clusters first
        if idx in consumed:
            continue
        consumed.add(idx)
        v = reps[idx]
        negative = _negative_real(v, match_tol)
        has_negative_real |= negative
        self_conjugate = abs(wrap(v - np.conj(v))) <= 2 * match_tol
        if abs(np.real(v)) <= match_tol:
            # elliptic: a conjugate pair, or self-paired (lambda = 0, or
            # i pi for a map)
            count = sum(sizes[idx])
            if self_conjugate:
                if count % 2 != 0:
                    raise GroupingFailed(f"odd multiplicity at {v}")
                count //= 2
            elif sum(sizes[take(np.conj(v))]) != count:
                raise GroupingFailed(f"multiplicity mismatch across conjugates of {v}")
            theta = float(abs(np.imag(v)))
            groups.extend(EllipticGroup(theta) for _ in range(count))
            continue
        if self_conjugate:
            # a real pair; v is its expanding member
            partners = [-v]
            new = [RealHyperbolicPair(float(abs(np.real(v))), k, negative)
                   for k in sizes[idx]]
        else:
            partners = [-v, np.conj(v), -np.conj(v)]
            lam = complex(abs(v.real), abs(v.imag))
            new = [ComplexHyperbolicQuad(lam, k) for k in sizes[idx]]
        matched = [take(p) for p in partners]
        if any(sizes[j] != sizes[idx] for j in matched):
            raise GroupingFailed(f"chain mismatch in the group of {v}")
        groups += new
        # partners[0] is the member that pairs with v under s
        hyperbolic.append((new, schur[idx], schur[matched[0]][0]))

    total = sum(g.dim_count for g in groups)
    if total != n:
        raise GroupingFailed(f"group dimensions sum to {total}, expected {n}")
    return SpectrumClassification(
        dim=n, mode=mode, groups=groups,
        is_loxodromic=not any(g.tag == "elliptic" for g in groups),
        has_negative_real=has_negative_real), hyperbolic


# ---------------------------------------------------------------------------
# principal logarithm
# ---------------------------------------------------------------------------

def _hamilton_project(B):
    """Orthogonal projection onto Hamilton matrices: B -> (B + J B^T J)/2."""
    J = _structure(B.shape[0] // 2)
    return 0.5 * (B + J @ B.T @ J)


def _cluster_log(T11, mu):
    """Principal log of a cluster block T11 (eigenvalues near mu) by the
    series log mu I + sum_j (-1)^(j+1) (E/mu)^j / j, E = T11 - mu I.

    The series is finite for a Jordan block (E nilpotent); otherwise it
    stops once a term past the block size is negligible, and a block whose
    series has not converged within LOG_SERIES_CAP terms is rejected
    rather than returned unconverged.
    """
    k = T11.shape[0]
    X = (T11 - mu * np.eye(k)) / mu
    log_block = np.log(mu) * np.eye(k, dtype=complex)
    power = np.eye(k, dtype=complex)
    for j in range(1, LOG_SERIES_CAP + 1):
        power = power @ X
        term = power * ((-1) ** (j + 1) / j)
        log_block += term
        if j >= k and np.linalg.norm(term) <= np.finfo(float).eps * max(
                1.0, np.linalg.norm(log_block)):
            return log_block
    raise DefectiveBeyondTolerance(
        f"log series for the eigenvalue cluster at {mu} did not converge "
        f"within {LOG_SERIES_CAP} terms")


def symplectic_log(S) -> HamiltonMatrix:
    """Principal-branch Hamilton logarithm of a symplectic matrix.

    Eigenvalue logs take imaginary parts in (-pi, pi); spectra touching the
    closed negative real axis are rejected (no real Hamilton logarithm
    exists there), as is any non-symplectic input.

    The log is assembled on clusters of the eigenvalue logs: a single
    eigenvalue contributes its eigenvector and log mu, a cluster its
    ordered-Schur basis and the series log of its block (_cluster_log),
    and B = W blockdiag(logs) W^{-1}. The clusters are taken in log space,
    that is relative to each |mu|: e^-4pi and e^0.3 in a map with e^4pi
    are close next to the largest |mu| but have no common series. The
    width LOG_CLUSTER_TOL is far above CLUSTER_RTOL: a size-4 chain
    scatters by ~eps^(1/4), more than CLUSTER_RTOL, and its scattered
    eigenvalues as separate eigenvectors would make W near singular, while
    a wider cluster only costs a few more series terms.
    """
    Sm, scale = _structured_input(S, POINCARE_MAP)
    eigs, V = _eig(Sm)
    lams = np.log(eigs)
    # classify's test and tolerance, on the logs
    tol = UNIT_TOL * max(1.0, np.max(np.abs(lams)))
    for mu, lam in zip(eigs, lams):
        if _negative_real(lam, tol):
            raise NegativeRealEigenvalue(
                f"eigenvalue {mu} lies on the closed negative real axis")
    bases, images = [], []   # W = [bases], W L = [images]
    for members in _cluster_values(lams, LOG_CLUSTER_TOL):
        if len(members) == 1:
            Z = V[:, members]
            images.append(Z * lams[members[0]])
        else:
            mu = np.mean(eigs[members])
            Z, T11 = _cluster_schur(Sm, mu, members, eigs)
            images.append(Z @ _cluster_log(T11, mu))
        bases.append(Z)
    # B = W L W^{-1}, as the solve B^T = W^{-T} (W L)^T; W and W L come
    # from the kernels' finite outputs, and B is checked once solved
    try:
        B = la.solve(np.hstack(bases).T, np.hstack(images).T,
                     check_finite=False).T
    except la.LinAlgError as exc:
        raise DefectiveBeyondTolerance(
            "eigenvector and cluster bases are singular") from exc
    _finite(B)
    if not (np.linalg.norm(np.imag(B))
            <= ROUNDTRIP_TOL * max(1.0, np.linalg.norm(B))):
        raise NegativeRealEigenvalue("matrix logarithm is not real")
    B = _hamilton_project(np.real(B))
    back = la.expm(B)
    if not np.linalg.norm(back - Sm) <= ROUNDTRIP_TOL * scale:
        raise DefectiveBeyondTolerance(
            "exp(log S) failed to reproduce S within tolerance")
    return HamiltonMatrix(B)
