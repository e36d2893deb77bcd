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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la

from .errors import check_positive
from .symplectic import (
    BLOCK_RESIDUAL_TOL,
    HAMILTON_MATRIX,
    DefectiveBeyondTolerance,
    EllipticEigenvaluePresent,
    HamiltonMatrix,
    NotPositiveDefinite,
    QuadraticHamiltonian,
    SpectrumClassification,
    SymplecticError,
    SymplecticTransform,
    _as_matrix,
    _classify,
    _eigh,
    _finite,
    _schur,
    _structure,
    _svd,
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
        return _block_diag(A.T, -A)


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


def _pick_new_direction(space, used):
    """Unit vector in span(space) most orthogonal to span(used)."""
    if used.shape[1] == 0:
        return space[:, 0]
    proj = space - used @ (used.conj().T @ space)
    norms = np.linalg.norm(proj, axis=0)
    j = int(np.argmax(norms))
    if not norms[j] >= 1e-8:
        raise DefectiveBeyondTolerance("could not separate Jordan chain bottoms")
    return proj[:, j] / norms[j]


def _phase(vec):
    """Unit factor that turns the first significant component of vec
    positive (real axis)."""
    idx = np.argmax(np.abs(vec) > 1e-8 * np.linalg.norm(vec))
    z = vec[idx]
    return 1.0 if z == 0 else np.conj(z) / abs(z)


def _jordan_chains(Z, T11, lam, block_sizes):
    """Jordan chains e_1..e_k per block (B e_l = lam e_l + e_{l-1}).

    The chains are built in the cluster block T11 = Z^H B Z and mapped back
    by Z. Every subspace dimension follows from the block sizes (largest
    first) that classify found, so no rank is decided here: ker N has one
    direction per block, and N^{k-1} has rank sum_j max(0, k_j - k + 1) and
    meets ker N in the blocks of size >= k. Bottoms are chosen pairwise
    independent in that intersection and each chain is generated downward
    from the minimum-norm top, so the chain relations hold to the accuracy
    of one pseudo-inverse solve.
    """
    d = T11.shape[0]
    N = T11 - lam * np.eye(d)
    powers = [np.eye(d, dtype=complex)]
    for _ in range(block_sizes[0] - 1):
        powers.append(powers[-1] @ N)
    kerN = _svd(N)[2][d - len(block_sizes):].conj().T
    chains = []
    used_bottoms = np.zeros((d, 0), dtype=complex)
    for k in block_sizes:
        U, s, Vh = _svd(powers[k - 1])
        rank = sum(max(0, kj - k + 1) for kj in block_sizes)
        meet = sum(kj >= k for kj in block_sizes)
        cand = kerN
        if meet < len(block_sizes):
            W = _svd(kerN.conj().T @ U[:, :rank])[0]
            cand = kerN @ W[:, :meet]
        bottom = _pick_new_direction(cand, used_bottoms)
        bottom = bottom * _phase(Z @ bottom)
        used_bottoms = np.column_stack([used_bottoms, bottom])
        top = Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ bottom) / s[:rank])
        resid = np.linalg.norm(powers[k - 1] @ top - bottom)
        if not resid <= 1e-6:
            raise DefectiveBeyondTolerance(
                f"chain top solve failed for eigenvalue {lam}: residual {resid:.2e}")
        chains.append([Z @ (powers[k - 1 - l] @ top) for l in range(k)])
    return chains


def _dual_chains(G, e_chains):
    """Vectors f with s(e_i, f_j) = delta_ij inside span(G), the invariant
    subspace of the eigenvalue -lam paired with the chains' lam.

    The dual basis of a Jordan chain family automatically satisfies
    B f_l = -lam f_l - f_{l+1}, so no second chain solve is needed.
    """
    E = np.column_stack([v for chain in e_chains for v in chain])
    J = _structure(E.shape[0] // 2)
    W = (J @ E).T @ G  # W[i, j] = s(e_i, g_j)
    try:
        F = G @ la.inv(W, check_finite=False)
    except la.LinAlgError as exc:
        raise DefectiveBeyondTolerance(
            "degenerate pairing between the +-lambda eigenspaces") from exc
    chains = []
    col = 0
    for chain in e_chains:
        chains.append([F[:, col + l] for l in range(len(chain))])
        col += len(chain)
    return chains


def _block_diag(*blocks):
    """la.block_diag of square float blocks, filled into one zero array."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


def _jordan_block(L, k, eps):
    """k copies of the diagonal block L (1 x 1 or 2 x 2) with eps I on the
    block subdiagonal."""
    d = L.shape[0]
    A = np.kron(np.eye(k), L)
    for l in range(k - 1):
        A[d * (l + 1):d * (l + 2), d * l:d * (l + 1)] = eps * np.eye(d)
    return A


def birkhoff_normal_form(B, jordan_scale=None):
    """Symplectic normal form of a loxodromic Hamilton matrix.

    Parameters
    ----------
    B : array or HamiltonMatrix
        Hamilton matrix with no purely imaginary eigenvalues.
    jordan_scale : float, optional
        Chain coupling epsilon, finite and > 0 (else ValueError). Defaults
        to min(1, min_j Re lambda_j / 2), which keeps sym(A) positive
        definite for nontrivial chains.

    Returns
    -------
    BirkhoffNormalForm
        transform T with T^{-1} B T = blockdiag(A^T, -A).
    """
    Bm = _as_matrix(B)
    if jordan_scale is not None:
        eps = float(jordan_scale)
        check_positive(eps, "jordan_scale")
    cls, clusters = _classify(Bm, HAMILTON_MATRIX)
    if not cls.is_loxodromic:
        raise EllipticEigenvaluePresent(
            "normal form requires a loxodromic spectrum")
    if jordan_scale is None:
        eps = float(min(1.0, cls.min_real_part / 2.0))

    e_cols, f_cols, blocks = [], [], []
    for groups, (Z, T11), G in clusters:
        tag, lam = groups[0].tag, complex(groups[0].lam)
        if tag == "real_hyperbolic":
            # span(Z) is closed under conjugation, so Re(Z Z^H), which is
            # [Re Z, Im Z] [Re Z, Im Z]^T, projects onto it: the k leading
            # left singular vectors of [Re Z, Im Z] (singular values 1,
            # the rest 0) are a real basis, and the chains come out real
            real_basis = _svd(np.column_stack([Z.real, Z.imag]),
                              full_matrices=False)[0][:, :Z.shape[1]]
            R = Z.conj().T @ real_basis
            Z, T11 = real_basis, np.real(R.conj().T @ T11 @ R)
        e_chains = _jordan_chains(Z, T11, lam, [g.chain_size for g in groups])
        f_chains = _dual_chains(G, e_chains)
        for e_chain, f_chain in zip(e_chains, f_chains):
            k = len(e_chain)
            # scale relative to the chain bottom: couplings pick up eps,
            # size-1 chains stay untouched. The float64 power overflows to
            # inf, which T's finite check refuses, where a float's raises
            e_scaled = [eps ** l * e_chain[l] for l in range(k)]
            f_scaled = [np.float64(eps) ** -l * f_chain[l] for l in range(k)]
            if tag == "real_hyperbolic":
                for v in e_scaled:
                    e_cols.append(np.real(v))
                for v in f_scaled:
                    f_cols.append(np.real(v))
                blocks.append(_jordan_block(np.array([[lam.real]]), k, eps))
            else:
                for v in e_scaled:
                    e_cols.append(np.sqrt(2.0) * np.real(v))
                    e_cols.append(np.sqrt(2.0) * np.imag(v))
                for v in f_scaled:
                    f_cols.append(np.sqrt(2.0) * np.real(v))
                    f_cols.append(-np.sqrt(2.0) * np.imag(v))
                L = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
                blocks.append(_jordan_block(L, k, eps))

    # the chains' one finite check: an overflow stops here, before the
    # solve and cond(T)
    T = _finite(np.column_stack(e_cols + f_cols))
    A = _block_diag(*blocks)
    target = _block_diag(A.T, -A)
    scale = max(1.0, np.linalg.norm(Bm))
    cond = np.linalg.cond(T)
    bound = BLOCK_RESIDUAL_TOL * scale * max(1.0, cond * 1e-6)
    # an infinite bound would pass any residual
    if not bound < math.inf:
        raise DefectiveBeyondTolerance(
            f"normal-form transform has cond(T) = {cond:.2e}: its residual "
            "bound is not finite")
    try:
        residual = np.linalg.norm(
            la.solve(T, Bm @ T, check_finite=False) - target)
    except la.LinAlgError as exc:
        raise DefectiveBeyondTolerance("normal-form transform is singular") from exc
    if not residual <= bound:
        raise DefectiveBeyondTolerance(
            f"normal-form residual {residual:.2e} exceeds tolerance")
    transform = SymplecticTransform(T)
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
        q = QuadraticHamiltonian(q)
    Q = q.coeff
    n = q.dim
    m = n // 2
    ew, EV = _eigh(Q)
    if ew[0] <= 0:
        raise NotPositiveDefinite(
            f"form has min eigenvalue {ew[0]:.3e}; Williamson needs > 0")
    R_inv = (EV / np.sqrt(ew)) @ EV.T            # Q^{-1/2}
    W = R_inv @ _structure(m) @ R_inv            # antisymmetric
    S, K = _schur(W)
    # normalize 2x2 blocks to [[0, s], [-s, 0]], s > 0: a block with
    # S[2j, 2j+1] < 0 swaps its two Schur vectors, which makes its s the
    # old S[2j+1, 2j]
    upper, lower = np.diagonal(S, 1)[::2], np.diagonal(S, -1)[::2]
    flip = upper < 0
    s_vals = np.where(flip, lower, upper)
    if (s_vals <= 0).any():
        raise NotPositiveDefinite("degenerate symplectic spectrum")
    d_vals = 1.0 / s_vals                        # symplectic eigenvalues of Q
    # pair j's Schur vectors (swapped where flipped) become columns j and
    # m + j: interleaved (x_j, xi_j) -> (x..., xi...) ordering
    first = np.arange(0, n, 2) + flip
    K = K[:, np.concatenate([first, first ^ 1])]
    D_half = np.sqrt(np.concatenate([d_vals, d_vals]))
    T = (R_inv @ K) * D_half[np.newaxis, :]
    # orient each canonical pair so T is symplectic for J (not -J): the
    # pairings s(T[:, j], T[:, m + j]), all j at once
    pairing = np.einsum("ij,ij->j", T[:m, :m], T[m:, m:]) - \
        np.einsum("ij,ij->j", T[m:, :m], T[:m, m:])
    x_cols = np.where(pairing < 0, np.arange(m) + m, np.arange(m))
    radii = np.sqrt(2.0 / d_vals)
    order = np.argsort(radii)
    radii = radii[order]
    x_cols = x_cols[order]
    T = _finite(T[:, np.concatenate([x_cols, (x_cols + m) % n])])
    transform = SymplecticTransform(T)
    resid = np.linalg.norm(
        T.T @ Q @ T - np.diag(np.concatenate([2.0 / radii ** 2] * 2)))
    if not (resid <= 1e-9 * max(1.0, np.linalg.norm(Q))
            * max(1.0, np.linalg.cond(T))):
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
    form = QuadraticHamiltonian(2.0 * _block_diag(S, S))
    w = _eigh(S, eigvals_only=True)
    min_eig = float(w[0])
    definite = min_eig > 0
    return EscapeRateForm(form=form, positive_definite=definite,
                          min_eigenvalue=min_eig,
                          certificate=williamson(form) if definite else None)

