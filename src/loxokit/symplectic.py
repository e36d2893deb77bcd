"""Symplectic linear algebra for loxodromic (hyperbolic) spectra.

Conventions, fixed once for the whole package:

* phase space is R^{2m} with coordinates rho = (x, xi),
* the standard symplectic matrix is ``J = [[0, -I], [I, 0]]``,
* a quadratic Hamiltonian is q(rho) = (1/2) <rho, Q rho> with Q symmetric,
* its Hamilton matrix is B = -J Q, so the flow is rho' = B rho,
* a symplectic transform satisfies T^T J T = J.

Internally the symplectic pairing is evaluated as ``s(u, v) = <J u, v>``,
which makes the canonical pair e = (1, 0), f = (0, 1) satisfy s(e, f) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg as la

from .errors import LoxokitError


class SymplecticError(LoxokitError, ValueError):
    """Base class for structured failures in this module."""


class NotSymplectic(SymplecticError):
    """Input matrix violates the required structural identity."""


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


@dataclass
class Tolerances:
    """Numerical tolerances used across the symplectic routines.

    All values are relative to the scale of the input unless noted.
    """

    symmetry_rtol: float = 1e-12      # Q = Q^T for quadratic Hamiltonians
    hamilton_tol: float = 1e-10       # ||J B + B^T J||
    symplectic_tol: float = 1e-8      # ||S^T J S - J|| for map inputs
    transform_tol: float = 1e-9       # ||T^T J T - J|| for returned transforms
    unit_tol: float = 1e-7            # pair/quadruple matching, axis tests
    cluster_rtol: float = 1e-4        # same-eigenvalue clustering (Jordan); a
                                      # chain of size k scatters by ~eps^(1/k)
    rank_rtol: float = 1e-8           # SVD threshold for rank decisions
    roundtrip_tol: float = 1e-8       # exp(log S) = S
    block_residual_tol: float = 1e-8  # ||T^{-1} B T - blockdiag(A^T, -A)||


DEFAULT_TOL = Tolerances()

HAMILTON_MATRIX = "hamilton_matrix"
POINCARE_MAP = "poincare_map"


def standard_symplectic_matrix(m):
    """Return the 2m x 2m matrix J = [[0, -I], [I, 0]]."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, -eye], [eye, zero]])


def symplectic_pairing(u, v):
    """s(u, v) = <J u, v>; s(e_x, e_xi) = +1 for a canonical pair."""
    m = u.shape[0] // 2
    # <J u, v> = -u_xi . v_x + u_x . v_xi  without forming J
    return np.dot(u[:m], v[m:]) - np.dot(u[m:], v[:m])


def _as_matrix(obj):
    if hasattr(obj, "entries"):
        return np.asarray(obj.entries, dtype=float)
    if hasattr(obj, "coeff"):
        return np.asarray(obj.coeff, dtype=float)
    arr = np.asarray(obj, dtype=float)
    return arr


def _check_even_square(M, what="matrix"):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SymplecticError(f"{what} must be square, got shape {M.shape}")
    if M.shape[0] % 2 != 0:
        raise SymplecticError(f"{what} must have even dimension, got {M.shape[0]}")
    return M.shape[0]


def hamilton_residual(B):
    """||J B + B^T J||_F, the defect of the Hamilton-matrix identity."""
    B = _as_matrix(B)
    m = B.shape[0] // 2
    J = standard_symplectic_matrix(m)
    return la.norm(J @ B + B.T @ J)


def symplectic_residual(S):
    """||S^T J S - J||_F, the defect of the symplectic identity."""
    S = _as_matrix(S)
    m = S.shape[0] // 2
    J = standard_symplectic_matrix(m)
    return la.norm(S.T @ J @ S - J)


@dataclass
class QuadraticHamiltonian:
    """Quadratic form q(rho) = (1/2) <rho, coeff rho> on R^dim.

    coeff must be symmetric to relative tolerance 1e-12; it is symmetrized
    on construction and rejected beyond the tolerance.
    """

    dim: int
    coeff: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.coeff, dtype=float)
        n = _check_even_square(Q, "coeff")
        if n != self.dim:
            raise SymplecticError(f"dim={self.dim} does not match coeff shape {Q.shape}")
        scale = max(1.0, la.norm(Q))
        if la.norm(Q - Q.T) > DEFAULT_TOL.symmetry_rtol * scale:
            raise SymplecticError("coeff matrix is not symmetric within 1e-12 (relative)")
        self.coeff = 0.5 * (Q + Q.T)

    def value(self, rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * float(rho @ self.coeff @ rho)


@dataclass
class HamiltonMatrix:
    """Linear vector field B with J B + B^T J = 0 (flow rho' = B rho)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.entries, dtype=float)
        n = _check_even_square(B, "entries")
        if n != self.dim:
            raise SymplecticError(f"dim={self.dim} does not match entries shape {B.shape}")
        scale = max(1.0, la.norm(B))
        if hamilton_residual(B) > DEFAULT_TOL.hamilton_tol * scale:
            raise NotSymplectic("J B + B^T J != 0 within 1e-10: not a Hamilton matrix")
        self.entries = B


@dataclass
class SymplecticTransform:
    """Invertible T with T^T J T = J within 1e-10 (relative to scale)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.entries, dtype=float)
        n = _check_even_square(T, "entries")
        if n != self.dim:
            raise SymplecticError(f"dim={self.dim} does not match entries shape {T.shape}")
        scale = max(1.0, la.norm(T) ** 2)
        if symplectic_residual(T) > 1e-10 * scale:
            raise NotSymplectic("T^T J T != J within tolerance: not symplectic")
        self.entries = T

    @property
    def inverse(self):
        # J^{-1} T^T J = T^{-1} for symplectic T; cheaper and better
        # conditioned than a generic solve.
        T = self.entries
        m = self.dim // 2
        J = standard_symplectic_matrix(m)
        return -J @ T.T @ J


def hamilton_matrix(q: QuadraticHamiltonian) -> HamiltonMatrix:
    """Hamilton matrix B = -J Q of a quadratic Hamiltonian."""
    if not isinstance(q, QuadraticHamiltonian):
        q = QuadraticHamiltonian(dim=_as_matrix(q).shape[0], coeff=q)
    m = q.dim // 2
    J = standard_symplectic_matrix(m)
    B = -J @ q.coeff
    return HamiltonMatrix(dim=q.dim, entries=B)


def quadratic_form_of(B: Union[HamiltonMatrix, np.ndarray]) -> QuadraticHamiltonian:
    """Inverse of :func:`hamilton_matrix`: Q = J B."""
    Bm = _as_matrix(B)
    m = Bm.shape[0] // 2
    J = standard_symplectic_matrix(m)
    return QuadraticHamiltonian(dim=Bm.shape[0], coeff=J @ Bm)


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
    def n_hc(self):
        return sum(1 for g in self.groups if g.tag == "complex_hyperbolic")

    @property
    def n_hr(self):
        return sum(1 for g in self.groups if g.tag == "real_hyperbolic")

    @property
    def min_real_part(self):
        parts = [abs(np.real(g.lam)) for g in self.groups if g.tag != "elliptic"]
        return min(parts) if parts else 0.0


def _cluster_values(vals, tol):
    """Greedy union-find clustering of complex values at absolute tol."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    out = []
    for members in clusters.values():
        rep = np.mean([vals[i] for i in members])
        out.append((rep, members))
    out.sort(key=lambda c: (-np.real(c[0]), -np.imag(c[0])))
    return out


def _block_sizes(M, lam, multiplicity, rank_rtol):
    """Jordan block sizes of eigenvalue lam via ranks of (M - lam I)^k."""
    n = M.shape[0]
    N = M.astype(complex) - lam * np.eye(n)
    norm_N = max(la.norm(N, 2), 1e-300)
    ranks = [n]
    P = np.eye(n, dtype=complex)
    for k in range(1, multiplicity + 1):
        P = P @ N
        s = la.svdvals(P)
        thr = rank_rtol * norm_N ** k
        ranks.append(int(np.sum(s > max(thr, s[0] * 1e-14 if s.size else 0.0))))
        if ranks[-1] <= n - multiplicity:
            break
    # d_j = number of blocks of size >= j
    d = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    sizes = []
    for j, dj in enumerate(d, start=1):
        d_next = d[j] if j < len(d) else 0
        sizes.extend([j] * (dj - d_next))
    sizes.sort(reverse=True)
    if sum(sizes) != multiplicity:
        raise DefectiveBeyondTolerance(
            f"rank sequence inconsistent for eigenvalue {lam}: "
            f"block sizes {sizes} vs multiplicity {multiplicity}")
    return sizes


def classify(M, mode=HAMILTON_MATRIX, unit_tol=None, tol: Tolerances = DEFAULT_TOL):
    """Group the spectrum of a Hamilton matrix or symplectic map.

    Parameters
    ----------
    M : array or HamiltonMatrix or SymplecticTransform
        The matrix to classify.
    mode : str
        ``"hamilton_matrix"`` or ``"poincare_map"``.
    unit_tol : float, optional
        Relative tolerance for the imaginary-axis / unit-circle test and
        for pair/quadruple matching. Defaults to ``tol.unit_tol``.

    Returns
    -------
    SpectrumClassification
        Groups store Hamilton-level representatives: for maps the stored
        lambda is the principal log of the expanding eigenvalue.
    """
    Mm = _as_matrix(M)
    n = _check_even_square(Mm, "input")
    if unit_tol is None:
        unit_tol = tol.unit_tol

    scale = max(1.0, la.norm(Mm, 2))
    if mode == POINCARE_MAP:
        if symplectic_residual(Mm) > tol.symplectic_tol * scale ** 2:
            raise NotSymplectic("map input is not symplectic within tolerance")
    elif mode == HAMILTON_MATRIX:
        if hamilton_residual(Mm) > tol.hamilton_tol * scale:
            raise NotSymplectic("matrix input is not a Hamilton matrix within tolerance")
    else:
        raise SymplecticError(f"unknown mode {mode!r}")

    eigs = la.eigvals(Mm)
    eig_scale = max(1.0, np.max(np.abs(eigs)))
    clusters = _cluster_values(list(eigs), tol.cluster_rtol * eig_scale)
    sizes = {}
    reps = {}
    for idx, (rep, members) in enumerate(clusters):
        reps[idx] = rep
        sizes[idx] = _block_sizes(Mm, rep, len(members), tol.rank_rtol)

    match_tol = unit_tol * eig_scale
    consumed = set()
    groups = []
    has_negative_real = False

    def find_cluster(value):
        window = max(match_tol, 10 * tol.cluster_rtol * eig_scale)
        best, best_dist = None, window
        for idx, rep in reps.items():
            if idx in consumed:
                continue
            dist = abs(rep - value)
            if dist <= best_dist:
                best, best_dist = idx, dist
        return best

    if mode == POINCARE_MAP:
        # eigenvalues mu; elliptic iff |mu| = 1
        order = sorted(reps, key=lambda i: (-abs(reps[i]), -np.imag(reps[i])))
        for idx in order:
            if idx in consumed:
                continue
            mu = reps[idx]
            if abs(abs(mu) - 1.0) <= unit_tol:
                # elliptic: consume conjugate partner unless self-paired
                consumed.add(idx)
                theta = float(abs(np.angle(mu)))
                count = sum(sizes[idx])
                if abs(np.imag(mu)) <= match_tol:
                    # mu = +-1, self-paired; multiplicity is even
                    if count % 2 != 0:
                        raise GroupingFailed(f"odd multiplicity at mu = {mu}")
                    n_groups = count // 2
                    if np.real(mu) < 0:
                        has_negative_real = True
                else:
                    jdx = find_cluster(np.conj(mu))
                    if jdx is None:
                        raise GroupingFailed(f"no conjugate partner for |mu|=1 eigenvalue {mu}")
                    if sum(sizes[jdx]) != count:
                        raise GroupingFailed(f"multiplicity mismatch across conjugates of {mu}")
                    consumed.add(jdx)
                    n_groups = count
                groups.extend(EllipticGroup(theta=theta) for _ in range(n_groups))
            elif abs(np.imag(mu)) <= match_tol:
                # real pair (mu, 1/mu); |mu| > 1 by ordering
                mu_r = float(np.real(mu))
                consumed.add(idx)
                jdx = find_cluster(1.0 / mu_r)
                if jdx is None:
                    raise GroupingFailed(f"no 1/mu partner for real eigenvalue {mu_r}")
                if sizes[jdx] != sizes[idx]:
                    raise GroupingFailed(f"chain mismatch in pair ({mu_r}, {1/mu_r})")
                consumed.add(jdx)
                negative = mu_r < 0
                if negative:
                    has_negative_real = True
                for k in sizes[idx]:
                    groups.append(RealHyperbolicPair(lam=float(np.log(abs(mu_r))),
                                                     chain_size=k,
                                                     negative_real=negative))
            else:
                # complex quadruple (mu, 1/mu, conj mu, 1/conj mu)
                consumed.add(idx)
                partners = [np.conj(mu), 1.0 / mu, 1.0 / np.conj(mu)]
                pidx = []
                for p in partners:
                    j = find_cluster(p)
                    if j is None:
                        raise GroupingFailed(f"incomplete quadruple for eigenvalue {mu}")
                    pidx.append(j)
                    consumed.add(j)
                for j in pidx:
                    if sizes[j] != sizes[idx]:
                        raise GroupingFailed(f"chain mismatch in quadruple of {mu}")
                lam = np.log(mu)  # principal branch; |mu|>1, Im log in (-pi, pi)
                lam = complex(abs(np.real(lam)), abs(np.imag(lam)))
                for k in sizes[idx]:
                    groups.append(ComplexHyperbolicQuad(lam=lam, chain_size=k))
    else:
        # Hamilton matrix: eigenvalues lambda; elliptic iff purely imaginary
        order = sorted(reps, key=lambda i: (-np.real(reps[i]), -np.imag(reps[i])))
        for idx in order:
            if idx in consumed:
                continue
            lam = reps[idx]
            if abs(np.real(lam)) <= match_tol:
                consumed.add(idx)
                theta = float(abs(np.imag(lam)))
                count = sum(sizes[idx])
                if abs(np.imag(lam)) <= match_tol:
                    if count % 2 != 0:
                        raise GroupingFailed("odd multiplicity at lambda = 0")
                    n_groups = count // 2
                else:
                    jdx = find_cluster(np.conj(lam))
                    if jdx is None:
                        raise GroupingFailed(f"no -i theta partner for {lam}")
                    if sum(sizes[jdx]) != count:
                        raise GroupingFailed(f"multiplicity mismatch at +-i{theta}")
                    consumed.add(jdx)
                    n_groups = count
                groups.extend(EllipticGroup(theta=theta) for _ in range(n_groups))
            elif abs(np.imag(lam)) <= match_tol:
                lam_r = abs(float(np.real(lam)))
                consumed.add(idx)
                jdx = find_cluster(-lam_r)
                if jdx is None:
                    raise GroupingFailed(f"no -lambda partner for {lam}")
                if sizes[jdx] != sizes[idx]:
                    raise GroupingFailed(f"chain mismatch in pair +-{lam_r}")
                consumed.add(jdx)
                for k in sizes[idx]:
                    groups.append(RealHyperbolicPair(lam=lam_r, chain_size=k))
            else:
                consumed.add(idx)
                partners = [np.conj(lam), -lam, -np.conj(lam)]
                pidx = []
                for p in partners:
                    j = find_cluster(p)
                    if j is None:
                        raise GroupingFailed(f"incomplete quadruple for eigenvalue {lam}")
                    pidx.append(j)
                    consumed.add(j)
                for j in pidx:
                    if sizes[j] != sizes[idx]:
                        raise GroupingFailed(f"chain mismatch in quadruple of {lam}")
                lam_rep = complex(abs(np.real(lam)), abs(np.imag(lam)))
                # exp(lambda) on the negative real axis <=> Im lambda = pi (mod 2pi)
                if abs((abs(np.imag(lam)) - np.pi) % (2 * np.pi)) <= match_tol:
                    has_negative_real = True
                for k in sizes[idx]:
                    groups.append(ComplexHyperbolicQuad(lam=lam_rep, chain_size=k))

    total = sum(g.dim_count for g in groups)
    if total != n:
        raise GroupingFailed(f"group dimensions sum to {total}, expected {n}")
    is_loxodromic = not any(g.tag == "elliptic" for g in groups)
    return SpectrumClassification(dim=n, mode=mode, groups=groups,
                                  is_loxodromic=is_loxodromic,
                                  has_negative_real=has_negative_real)


# ---------------------------------------------------------------------------
# principal logarithm and polar factorization
# ---------------------------------------------------------------------------

def _hamilton_project(B):
    """Orthogonal projection onto Hamilton matrices: B -> (B + J B^T J)/2."""
    m = B.shape[0] // 2
    J = standard_symplectic_matrix(m)
    return 0.5 * (B + J @ B.T @ J)


def symplectic_log(S, tol: Tolerances = DEFAULT_TOL) -> HamiltonMatrix:
    """Principal-branch Hamilton logarithm of a symplectic matrix.

    Eigenvalue logs take imaginary parts in (-pi, pi); spectra touching the
    closed negative real axis are rejected (no real Hamilton logarithm
    exists there), as is any non-symplectic input.
    """
    Sm = _as_matrix(S)
    n = _check_even_square(Sm, "input")
    scale = max(1.0, la.norm(Sm, 2))
    if symplectic_residual(Sm) > tol.symplectic_tol * scale ** 2:
        raise NotSymplectic("input is not symplectic within tolerance")
    eigs = la.eigvals(Sm)
    eig_scale = max(1.0, np.max(np.abs(eigs)))
    for mu in eigs:
        if np.real(mu) <= tol.unit_tol * eig_scale and \
                abs(np.imag(mu)) <= tol.unit_tol * eig_scale:
            raise NegativeRealEigenvalue(
                f"eigenvalue {mu} lies on the closed negative real axis")
    B = la.logm(Sm)
    if la.norm(np.imag(B)) > tol.roundtrip_tol * max(1.0, la.norm(B)):
        raise NegativeRealEigenvalue("matrix logarithm is not real")
    B = _hamilton_project(np.real(B))
    back = la.expm(B)
    if la.norm(back - Sm) > tol.roundtrip_tol * scale:
        raise DefectiveBeyondTolerance(
            "exp(log S) failed to reproduce S within tolerance")
    return HamiltonMatrix(dim=n, entries=B)


def symplectic_polar(K, tol: Tolerances = DEFAULT_TOL):
    """Polar factorization K = Q P of a symplectic matrix.

    Returns (Q, P) as SymplecticTransforms: Q orthogonal and symplectic,
    P symmetric positive definite and symplectic. Computed from the
    eigendecomposition of K^T K (not an SVD).
    """
    Km = _as_matrix(K)
    n = _check_even_square(Km, "input")
    scale = max(1.0, la.norm(Km, 2))
    if symplectic_residual(Km) > tol.symplectic_tol * scale ** 2:
        raise NotSymplectic("input is not symplectic within tolerance")
    w, V = la.eigh(Km.T @ Km)
    if np.min(w) <= 0:
        raise NotSymplectic("K^T K is singular; input is not invertible")
    P = (V * np.sqrt(w)) @ V.T
    P_inv = (V / np.sqrt(w)) @ V.T
    Q = Km @ P_inv
    P = 0.5 * (P + P.T)
    return (SymplecticTransform(dim=n, entries=Q),
            SymplecticTransform(dim=n, entries=P))
