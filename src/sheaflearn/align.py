"""Closed-form alignment of two nodes' denoised signals.

For compact representations X_u = D_u S_u and X_v = D_v S_v the best
orthonormal map F minimizing ||F X_u - X_v||_F^2 is F = V U^T where
U Sigma V^T is the SVD of X_u X_v^T, and the achieved cost is
||X_u||_F^2 + ||X_v||_F^2 - 2 * sum(Sigma). The optimized map sits on the
u side; the v side keeps the identity (the pair is only determined up to a
common rotation).

Selection reads only the cost, so ``infer.enumerate_candidates`` scores every
pair into one cost-sorted table of arrays without forming a map (QR-reduced
Gram blocks, batched singular values) and ``procrustes_align`` runs only for
the edges that are kept.
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


def procrustes_align(D_u, S_u, D_v, S_v, u: int = 0,
                     v: int = 1) -> tuple[np.ndarray, EdgeCandidate]:
    """Solve the local edge problem in closed form; return ``(F, candidate)``.

    The cross product A = D_u S_u S_v^T D_v^T is decomposed as U Sigma V^T
    (full SVD, fixing the null-space pairing deterministically) and the
    optimal map is F = V U^T in O(d); no determinant constraint is imposed.
    A = 0 is a valid degenerate case: the identity is returned and flagged.
    """
    D_u, S_u, D_v, S_v = (np.atleast_2d(np.asarray(m, float)) for m in (D_u, S_u, D_v, S_v))
    if D_u.shape[0] != D_v.shape[0]:
        raise ValueError("ambient dimensions differ between nodes")
    if S_u.shape[1] != S_v.shape[1]:
        raise ValueError("snapshot counts differ between nodes")
    d = D_u.shape[0]
    X_u = D_u @ S_u
    X_v = D_v @ S_v
    norms = float(np.sum(X_u * X_u) + np.sum(X_v * X_v))

    A = X_u @ X_v.T
    if np.linalg.norm(A) <= DEGENERATE_TOL * max(1.0, norms):
        return np.eye(d), EdgeCandidate(
            u=u, v=v, cost=norms, singular_values=(0.0,) * d, rank=0, degenerate=True,
        )

    U, sigma, Vt = np.linalg.svd(A)
    F = Vt.T @ U.T
    cost = max(0.0, norms - 2.0 * float(np.sum(sigma)))
    rank = int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))
    return F, EdgeCandidate(
        u=u, v=v, cost=cost, singular_values=tuple(float(s) for s in sigma), rank=rank,
    )


def aligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Minimal misfit after optimal alignment; depends on the coefficient
    cross-covariance and the subspace dimensions, not on the basis structure."""
    return procrustes_align(D_u, S_u, D_v, S_v)[1].cost


def unaligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Plain squared Frobenius distance between the denoised signals."""
    diff = np.atleast_2d(D_u) @ np.atleast_2d(S_u) - np.atleast_2d(D_v) @ np.atleast_2d(S_v)
    return float(np.sum(diff * diff))
