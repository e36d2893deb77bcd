"""Symplectic normal forms for loxodromic Hamilton matrices.

The target shape is ``T^{-1} B T = blockdiag(A^T, -A)`` with A block
diagonal over eigenvalue groups:

* real pair, chain size k: the k x k lower bidiagonal block with lambda on
  the diagonal and the chain coupling on the subdiagonal;
* complex quadruple, chain size k: the 2k x 2k block built from 2 x 2
  rotation-scaling blocks Lambda = [[Re, -Im], [Im, Re]] on the diagonal
  and identity couplings on the subdiagonal.

Chain couplings carry the scale factor epsilon (``jordan_scale``): the
symplectic rescaling x_l -> eps^l x_l, xi_l -> eps^-l xi_l multiplies each
coupling by eps while fixing the diagonal. For sym(A) to be positive
definite in the escape-rate form the couplings must be small next to the
real parts, hence the default eps = min(1, min_j Re lambda_j / 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la

from .symplectic import (
    BLOCK_RESIDUAL_TOL,
    HAMILTON_MATRIX,
    DefectiveBeyondTolerance,
    EllipticEigenvaluePresent,
    HamiltonMatrix,
    NotPositiveDefinite,
    QuadraticHamiltonian,
    RANK_RTOL,
    SpectrumClassification,
    SymplecticError,
    SymplecticTransform,
    UNIT_TOL,
    _as_matrix,
    _check_even_square,
    classify,
    standard_symplectic_matrix,
    symplectic_pairing,
)


@dataclass
class BirkhoffNormalForm:
    transform: SymplecticTransform
    block_matrix_A: np.ndarray
    eigenvalues: SpectrumClassification
    jordan_scale: float

    @property
    def normal_matrix(self):
        """blockdiag(A^T, -A), the normal form of B."""
        A = self.block_matrix_A
        return la.block_diag(A.T, -A)


@dataclass
class WilliamsonDecomposition:
    radii: np.ndarray
    transform: SymplecticTransform


@dataclass
class EscapeRateForm:
    """Quadratic growth rate of the model escape function along the flow.

    form is the quadratic Hamiltonian with matrix 2*blockdiag(S, S) where
    S = sym(A); its value at rho = (x, xi) is <S x, x> + <S xi, xi>.
    certificate is the Williamson decomposition of that form when S is
    positive definite, else None; min_eigenvalue is the failure margin.
    """

    form: QuadraticHamiltonian
    positive_definite: bool
    min_eigenvalue: float
    certificate: Optional[WilliamsonDecomposition]


@dataclass
class InvariantSubspaces:
    unstable_basis: np.ndarray
    stable_basis: np.ndarray


def _subspace_intersection(U, V, rtol=1e-8):
    """Orthonormal basis of span(U) ^ span(V); U, V have orthonormal columns."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.zeros((U.shape[0], 0), dtype=U.dtype)
    W, s, Xh = la.svd(U.conj().T @ V)
    k = int(np.sum(s > 1 - rtol * 10))
    if k == 0:
        return np.zeros((U.shape[0], 0), dtype=U.dtype)
    return U @ W[:, :k]


def _nullspace(M, rtol):
    """Orthonormal basis of ker(M) with a relative singular-value cutoff."""
    U, s, Vh = la.svd(M)
    thr = rtol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > thr))
    return Vh[rank:].conj().T


def _range_space(M, rtol):
    U, s, Vh = la.svd(M)
    thr = rtol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > thr))
    return U[:, :rank]


def _pick_new_direction(space, used):
    """Unit vector in span(space) most orthogonal to span(used)."""
    if used.shape[1] == 0:
        return space[:, 0]
    proj = space - used @ (used.conj().T @ space)
    norms = la.norm(proj, axis=0)
    j = int(np.argmax(norms))
    if norms[j] < 1e-8:
        raise DefectiveBeyondTolerance("could not separate Jordan chain bottoms")
    return proj[:, j] / norms[j]


def _fix_phase(vec):
    """Scale so the first significant component is positive (real axis)."""
    idx = np.argmax(np.abs(vec) > 1e-8 * la.norm(vec))
    z = vec[idx]
    if z == 0:
        return vec
    return vec * (np.conj(z) / abs(z))


def _jordan_chains(B, lam, block_sizes):
    """Jordan chains e_1..e_k per block (B e_l = lam e_l + e_{l-1}).

    Bottoms are chosen pairwise independent inside ker(N) ^ range(N^{k-1})
    and each chain is generated downward from a least-squares top, so the
    chain relations hold to the accuracy of one lstsq solve.
    """
    n = B.shape[0]
    N = B.astype(complex) - lam * np.eye(n)
    kmax = max(block_sizes)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(kmax):
        powers.append(powers[-1] @ N)
    kerN = _nullspace(N, RANK_RTOL)
    chains = []
    used_bottoms = np.zeros((n, 0), dtype=complex)
    for k in sorted(block_sizes, reverse=True):
        if k == 1:
            cand = kerN
        else:
            rng = _range_space(powers[k - 1], RANK_RTOL)
            cand = _subspace_intersection(kerN, rng, RANK_RTOL)
        if cand.shape[1] == 0:
            raise DefectiveBeyondTolerance(
                f"no admissible chain bottom for eigenvalue {lam}, size {k}")
        bottom = _pick_new_direction(cand, used_bottoms)
        bottom = _fix_phase(bottom)
        used_bottoms = np.column_stack([used_bottoms, bottom])
        if k == 1:
            chain = [bottom]
        else:
            top, *_ = la.lstsq(powers[k - 1], bottom)
            resid = la.norm(powers[k - 1] @ top - bottom)
            if resid > 1e-6:
                raise DefectiveBeyondTolerance(
                    f"chain top solve failed for eigenvalue {lam}: residual {resid:.2e}")
            chain = [powers[k - 1 - l] @ top for l in range(k)]
            chain[0] = powers[k - 1] @ top  # bottom actually reached
        chains.append(chain)
    return chains


def _dual_chains(B, lam, e_chains):
    """Vectors f with s(e_i, f_j) = delta_ij inside the -lam eigenspace.

    The dual basis of a Jordan chain family automatically satisfies
    B f_l = -lam f_l - f_{l+1}, so no second chain solve is needed.
    """
    n = B.shape[0]
    kmax = max(len(c) for c in e_chains)
    M = B.astype(complex) + lam * np.eye(n)
    P = np.eye(n, dtype=complex)
    for _ in range(kmax):
        P = P @ M
    G = _nullspace(P, RANK_RTOL)
    E = np.column_stack([v for chain in e_chains for v in chain])
    if G.shape[1] != E.shape[1]:
        raise DefectiveBeyondTolerance(
            f"generalized eigenspace dimension mismatch at -{lam}")
    m = n // 2
    J = standard_symplectic_matrix(m)
    W = (J @ E).T @ G  # W[i, j] = s(e_i, g_j)
    try:
        F = G @ la.inv(W)
    except la.LinAlgError as exc:
        raise DefectiveBeyondTolerance(
            f"degenerate pairing between +-{lam} eigenspaces") from exc
    chains = []
    col = 0
    for chain in e_chains:
        chains.append([F[:, col + l] for l in range(len(chain))])
        col += len(chain)
    return chains


def _real_block(lam, k, eps):
    A = np.eye(k) * lam
    for l in range(k - 1):
        A[l + 1, l] = eps
    return A


def _complex_block(lam, k, eps):
    L = np.array([[np.real(lam), -np.imag(lam)], [np.imag(lam), np.real(lam)]])
    A = np.kron(np.eye(k), L)
    for l in range(k - 1):
        A[2 * (l + 1):2 * (l + 2), 2 * l:2 * (l + 1)] = eps * np.eye(2)
    return A


def birkhoff_normal_form(B, jordan_scale=None):
    """Symplectic normal form of a loxodromic Hamilton matrix.

    Parameters
    ----------
    B : array or HamiltonMatrix
        Hamilton matrix with no purely imaginary eigenvalues.
    jordan_scale : float, optional
        Chain coupling epsilon. Defaults to min(1, min_j Re lambda_j / 2),
        which keeps sym(A) positive definite for nontrivial chains.

    Returns
    -------
    BirkhoffNormalForm
        transform T with T^{-1} B T = blockdiag(A^T, -A).
    """
    Bm = _as_matrix(B)
    n = _check_even_square(Bm, "input")
    cls = classify(Bm, mode=HAMILTON_MATRIX)
    if not cls.is_loxodromic:
        raise EllipticEigenvaluePresent(
            "normal form requires a loxodromic spectrum")
    if jordan_scale is None:
        jordan_scale = min(1.0, cls.min_real_part / 2.0)
    eps = float(jordan_scale)
    if eps <= 0:
        raise SymplecticError("jordan_scale must be positive")

    # classify() emits one group per Jordan block but chains sharing an
    # eigenvalue must be built together; regroup by eigenvalue.
    by_lam = {}
    order = []
    for g in cls.groups:
        key = (g.tag, complex(g.lam))
        if key not in by_lam:
            by_lam[key] = []
            order.append(key)
        by_lam[key].append(g.chain_size)

    e_cols, f_cols, blocks = [], [], []
    for tag, lam in order:
        sizes = sorted(by_lam[(tag, lam)], reverse=True)
        e_chains = _jordan_chains(Bm, lam, sizes)
        f_chains = _dual_chains(Bm, lam, e_chains)
        for e_chain, f_chain in zip(e_chains, f_chains):
            k = len(e_chain)
            # scale relative to the chain bottom: couplings pick up eps,
            # size-1 chains stay untouched
            e_scaled = [eps ** l * e_chain[l] for l in range(k)]
            f_scaled = [eps ** (-l) * f_chain[l] for l in range(k)]
            if tag == "real_hyperbolic":
                for v in e_scaled:
                    e_cols.append(np.real(v))
                for v in f_scaled:
                    f_cols.append(np.real(v))
                blocks.append(_real_block(np.real(lam), k, eps))
            else:
                for v in e_scaled:
                    e_cols.append(np.sqrt(2.0) * np.real(v))
                    e_cols.append(np.sqrt(2.0) * np.imag(v))
                for v in f_scaled:
                    f_cols.append(np.sqrt(2.0) * np.real(v))
                    f_cols.append(-np.sqrt(2.0) * np.imag(v))
                blocks.append(_complex_block(lam, k, eps))

    T = np.column_stack(e_cols + f_cols)
    A = la.block_diag(*blocks)
    target = la.block_diag(A.T, -A)
    try:
        residual = la.norm(la.solve(T, Bm @ T) - target)
    except la.LinAlgError as exc:
        raise DefectiveBeyondTolerance("normal-form transform is singular") from exc
    scale = max(1.0, la.norm(Bm))
    if residual > BLOCK_RESIDUAL_TOL * scale * max(1.0, np.linalg.cond(T) * 1e-6):
        raise DefectiveBeyondTolerance(
            f"normal-form residual {residual:.2e} exceeds tolerance")
    transform = SymplecticTransform(dim=n, entries=T)
    return BirkhoffNormalForm(transform=transform, block_matrix_A=A,
                              eigenvalues=cls, jordan_scale=eps)


# ---------------------------------------------------------------------------
# Williamson decomposition of a positive definite quadratic form
# ---------------------------------------------------------------------------

def williamson(q) -> WilliamsonDecomposition:
    """Symplectic diagonalization of a positive definite quadratic form.

    Returns radii 0 < r_1 <= ... <= r_m and a symplectic T with
    q(T(x, xi)) = sum_j (x_j^2 + xi_j^2) / r_j^2.
    """
    if not isinstance(q, QuadraticHamiltonian):
        q = QuadraticHamiltonian(dim=_as_matrix(q).shape[0], coeff=q)
    Q = q.coeff
    n = q.dim
    m = n // 2
    ew, EV = la.eigh(Q)
    if ew[0] <= 0:
        raise NotPositiveDefinite(
            f"form has min eigenvalue {ew[0]:.3e}; Williamson needs > 0")
    J = standard_symplectic_matrix(m)
    R_inv = (EV / np.sqrt(ew)) @ EV.T            # Q^{-1/2}
    W = R_inv @ J @ R_inv                        # antisymmetric
    S, K = la.schur(np.asarray(W), output="real")
    # normalize 2x2 blocks to [[0, s], [-s, 0]], s > 0, via column swaps
    for j in range(m):
        i0, i1 = 2 * j, 2 * j + 1
        if S[i0, i1] < 0:
            K[:, [i0, i1]] = K[:, [i1, i0]]
            S[[i0, i1], :] = S[[i1, i0], :]
            S[:, [i0, i1]] = S[:, [i1, i0]]
    s_vals = np.array([S[2 * j, 2 * j + 1] for j in range(m)])
    if np.any(s_vals <= 0):
        raise NotPositiveDefinite("degenerate symplectic spectrum")
    d_vals = 1.0 / s_vals                        # symplectic eigenvalues of Q
    # interleaved (x_j, xi_j) -> (x..., xi...) ordering
    perm = np.zeros((n, n))
    for j in range(m):
        perm[2 * j, j] = 1.0
        perm[2 * j + 1, m + j] = 1.0
    D_half = np.sqrt(np.concatenate([d_vals, d_vals]))
    T = (R_inv @ K @ perm) * D_half[np.newaxis, :]
    # orient each canonical pair so T is symplectic for J (not -J)
    for j in range(m):
        sij = symplectic_pairing(T[:, j], T[:, m + j])
        if sij < 0:
            T[:, [j, m + j]] = T[:, [m + j, j]]
    radii = np.sqrt(2.0 / d_vals)
    order = np.argsort(radii)
    radii = radii[order]
    T = T[:, np.concatenate([order, m + order])]
    transform = SymplecticTransform(dim=n, entries=T)
    resid = la.norm(T.T @ Q @ T - np.diag(np.concatenate([2.0 / radii ** 2] * 2)))
    if resid > 1e-9 * max(1.0, la.norm(Q)) * max(1.0, np.linalg.cond(T)):
        raise SymplecticError(f"Williamson residual {resid:.2e} out of tolerance")
    return WilliamsonDecomposition(radii=radii, transform=transform)


def escape_rate_form(nf: BirkhoffNormalForm) -> EscapeRateForm:
    """Quadratic part of the flow derivative of the log-ratio escape function.

    In normal-form coordinates the model escape function
    G = (1/2)(log(1 + |x|^2) - log(1 + |xi|^2)) grows along the flow with
    quadratic part <sym(A) x, x> + <sym(A) xi, xi>. When sym(A) is positive
    definite this is an elliptic form and its Williamson radii certify a
    strictly positive growth rate; otherwise the minimum eigenvalue of
    sym(A) is reported as the failure margin.
    """
    A = nf.block_matrix_A
    S = 0.5 * (A + A.T)
    m = S.shape[0]
    form = QuadraticHamiltonian(dim=2 * m, coeff=2.0 * la.block_diag(S, S))
    w = la.eigh(S, eigvals_only=True)
    min_eig = float(w[0])
    if min_eig > 0:
        cert = williamson(form)
        return EscapeRateForm(form=form, positive_definite=True,
                              min_eigenvalue=min_eig, certificate=cert)
    return EscapeRateForm(form=form, positive_definite=False,
                          min_eigenvalue=min_eig, certificate=None)


def stable_unstable_subspaces(B) -> InvariantSubspaces:
    """Orthonormal bases of the unstable (Re > 0) and stable (Re < 0) spaces.

    Both are Lagrangian and B-invariant for a loxodromic Hamilton matrix;
    residuals are validated before returning.
    """
    Bm = _as_matrix(B)
    n = _check_even_square(Bm, "input")
    m = n // 2
    eigs = la.eigvals(Bm)
    scale = max(1.0, np.max(np.abs(eigs)))
    if np.any(np.abs(np.real(eigs)) <= UNIT_TOL * scale):
        raise EllipticEigenvaluePresent(
            "stable/unstable splitting needs Re lambda != 0 for all eigenvalues")

    def _invariant(side):
        sort = (lambda re, im: re > 0) if side > 0 else (lambda re, im: re < 0)
        _, Z, k = la.schur(Bm, output="real", sort=sort)
        if k != m:
            raise EllipticEigenvaluePresent("unexpected splitting dimensions")
        return Z[:, :m]

    V_plus = _invariant(+1)
    V_minus = _invariant(-1)
    J = standard_symplectic_matrix(m)
    for V in (V_plus, V_minus):
        inv_resid = la.norm(Bm @ V - V @ (V.T @ Bm @ V))
        lag_resid = la.norm(V.T @ J @ V)
        if inv_resid > 1e-9 * max(1.0, la.norm(Bm)) or lag_resid > 1e-9:
            raise SymplecticError("invariant subspace residual out of tolerance")
    return InvariantSubspaces(unstable_basis=V_plus, stable_basis=V_minus)
