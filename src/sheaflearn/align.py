"""Closed-form alignment of two nodes' denoised signals.

For compact representations X_u = D_u S_u and X_v = D_v S_v the best
orthonormal map F minimizing ||F X_u - X_v||_F^2 is F = V U^T where
U Sigma V^T is the SVD of X_u X_v^T, and the achieved cost is
||X_u||_F^2 + ||X_v||_F^2 - 2 * sum(Sigma). The optimized map sits on the
u side; the v side keeps the identity (the pair is only determined up to a
common rotation).

The rules of the solve (degenerate test, F = V U^T, cost clamp, rank rule)
live once, in the batched kernel ``_procrustes`` and its ``_edge_rule``:
``procrustes_align`` is its one-pair call, and ``infer`` scores every pair
through ``_edge_rule`` without a map, then solves the kept edges' maps only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this fraction of sigma_max do not count towards rank.
RANK_RTOL = 1e-10

# Cross products with Frobenius norm below this are treated as identically
# zero: any orthogonal map is then optimal and the identity is returned.
DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class EdgeCandidate:
    """One candidate edge: alignment cost and spectral profile, no map.

    cost = ||X_u||_F^2 + ||X_v||_F^2 - 2 * sum(singular_values), the minimal
    Frobenius misfit over all orthonormal maps (identity for baseline mode).
    ``procrustes_align`` returns one with its map; the rows of an
    ``infer.Candidates`` table iterate as these.
    """

    u: int
    v: int
    cost: float
    singular_values: tuple[float, ...]
    rank: int
    degenerate: bool = False

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


def cross_covariance(S_u: np.ndarray, S_v: np.ndarray) -> np.ndarray:
    """C_uv = S_u S_v^T / N for compact coefficient streams with equal N."""
    S_u = np.atleast_2d(np.asarray(S_u, float))
    S_v = np.atleast_2d(np.asarray(S_v, float))
    if S_u.shape[1] != S_v.shape[1]:
        raise ValueError(f"snapshot mismatch: {S_u.shape[1]} vs {S_v.shape[1]}")
    return S_u @ S_v.T / S_u.shape[1]


def _edge_rule(A, sigma, norms):
    """Cost, rank and degenerate flag of P pairs from ``A`` (P, m, n), their
    cross products or blocks with the same singular values and Frobenius
    norms, their descending singular values ``sigma`` (P, r), zeroed in place
    where degenerate, and ``norms`` = ||X_u||_F^2 + ||X_v||_F^2."""
    fro = np.sqrt(np.einsum("pij,pij->p", A, A))
    degenerate = fro <= DEGENERATE_TOL * np.maximum(1.0, norms)
    sigma[degenerate] = 0.0
    cost = np.maximum(0.0, norms - 2.0 * np.sum(sigma, axis=1))
    rank = np.count_nonzero(sigma > RANK_RTOL * sigma[:, :1], axis=1)
    return cost, rank, degenerate


def _procrustes(A, norms):
    """Solve the edge problems of cross products A = X_u X_v^T (P, d, d);
    return ``(F, cost, sigma, rank, degenerate)``. F = V U^T from the full SVD
    U Sigma V^T (fixing the null-space pairing deterministically), with no
    determinant constraint; a degenerate pair gets the identity."""
    U, sigma, Vt = np.linalg.svd(A)
    cost, rank, degenerate = _edge_rule(A, sigma, norms)
    F = np.matmul(Vt.transpose(0, 2, 1), U.transpose(0, 2, 1))
    F[degenerate] = np.eye(A.shape[1])
    return F, cost, sigma, rank, degenerate


def procrustes_align(D_u, S_u, D_v, S_v, u: int = 0,
                     v: int = 1) -> tuple[np.ndarray, EdgeCandidate]:
    """Solve the local edge problem of one pair; return ``(F, candidate)``.
    A = X_u X_v^T = 0 is a valid degenerate case: the identity, flagged."""
    D_u, S_u, D_v, S_v = (np.atleast_2d(np.asarray(m, float)) for m in (D_u, S_u, D_v, S_v))
    if D_u.shape[0] != D_v.shape[0]:
        raise ValueError("ambient dimensions differ between nodes")
    if S_u.shape[1] != S_v.shape[1]:
        raise ValueError("snapshot counts differ between nodes")
    X_u, X_v = D_u @ S_u, D_v @ S_v
    norms = np.sum(X_u * X_u) + np.sum(X_v * X_v)
    F, cost, sigma, rank, degenerate = (a[0] for a in _procrustes((X_u @ X_v.T)[None], [norms]))
    return F, EdgeCandidate(u, v, float(cost), tuple(sigma.tolist()), int(rank), bool(degenerate))


def aligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Minimal misfit after optimal alignment; depends on the coefficient
    cross-covariance and the subspace dimensions, not on the basis structure."""
    return procrustes_align(D_u, S_u, D_v, S_v)[1].cost


def unaligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Plain squared Frobenius distance between the denoised signals."""
    diff = np.atleast_2d(D_u) @ np.atleast_2d(S_u) - np.atleast_2d(D_v) @ np.atleast_2d(S_v)
    return float(np.sum(diff * diff))
