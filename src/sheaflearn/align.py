"""Closed-form alignment of two nodes' denoised signals.

For compact representations X_u = D_u S_u and X_v = D_v S_v the best
orthonormal map F minimizing ||F X_u - X_v||_F^2 satisfies F U = V, where
U Sigma V^T is the SVD of X_u X_v^T restricted to its nonzero singular
values, and the achieved cost is ||X_u||_F^2 + ||X_v||_F^2 - 2 * sum(Sigma).
The data fix F on the range span(U) only; off it, F is completed by the
direct rotation of span(U)'s complement onto span(V)'s, so that F is the
optimal map closest to the identity and equals I outside the two nodes'
bases. The optimized map sits on the u side; the v side keeps the identity
(the pair is only determined up to a common rotation).

Everything is solved from the QR-reduced compact forms (``_compact``),
never from a d x d cross product. The rules of the solve (degenerate test,
cost clamp, rank rule, the map) live once, in the batched kernel
``_procrustes`` and its ``_edge_rule``: ``procrustes_align`` is its one-pair
call, and ``infer`` scores every pair through ``_edge_rule`` without a map,
then solves the kept edges' maps only.
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


def _checked_reps(reps, nodes=None) -> tuple:
    """The (basis, coeffs) pairs as 2-D float arrays, each checked for finite
    entries and for shapes that agree with the first pair's. An error names
    the node by its label in ``nodes``, by default its position in ``reps``."""
    reps = tuple(reps)
    nodes = range(len(reps)) if nodes is None else nodes
    out = []
    for node, (b, s) in zip(nodes, reps):
        b = np.atleast_2d(np.asarray(b, float))
        s = np.atleast_2d(np.asarray(s, float))
        for name, m in (("basis", b), ("coefficients", s)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"node {node}: non-finite entries in its {name}")
        if b.shape[1] != s.shape[0]:
            raise ValueError(f"node {node}: basis has {b.shape[1]} columns "
                             f"but coefficients have {s.shape[0]} rows")
        if out and b.shape[0] != out[0][0].shape[0]:
            raise ValueError(f"node {node}: ambient dimension {b.shape[0]}, "
                             f"node {nodes[0]} has {out[0][0].shape[0]}")
        if out and s.shape[1] != out[0][1].shape[1]:
            raise ValueError(f"node {node}: {s.shape[1]} snapshots, "
                             f"node {nodes[0]} has {out[0][1].shape[1]}")
        out.append((b, s))
    return tuple(out)


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


def _compact(reps, *, bases: bool):
    """The compact forms of the nodes ``reps`` (basis, coefficients): with
    the reduced QR D_u = Q_u R_u, return ``(Q, B, k, norms)``: the bases
    ``Q`` (V, d, kmax), or None unless ``bases``; the blocks B_u = R_u S_u
    (V, kmax, N), each zero-padded past its k_u = min(d, d_u) rows (and Q_u
    past its k_u columns); ``k`` (V,); and norms[u] = ||D_u S_u||_F^2.
    R_u is the same with or without Q_u, so B is too."""
    d, N = reps[0][0].shape[0], reps[0][1].shape[1]
    k = np.array([min(b.shape) for b, _ in reps], dtype=np.intp)
    kmax = max(1, int(k.max()))
    Q = np.zeros((len(reps), d, kmax)) if bases else None
    B = np.zeros((len(reps), kmax, N))
    for node, (b, s) in enumerate(reps):
        if not k[node]:  # a node with an empty support keeps zero blocks
            continue
        if bases:
            Q[node, :, :k[node]], r = np.linalg.qr(b)
        else:
            r = np.linalg.qr(b, mode="r")
        B[node, :k[node]] = r @ s
    norms = np.array([np.sum(x * x) for x in (b @ s for b, s in reps)])
    return Q, B, k, norms


def _operands(forms, u, v):
    """The arguments of ``_procrustes`` for the pairs (u[i], v[i]), arrays of
    node indices, from ``_compact``'s forms ``(Q, B, k, norms)``: the blocks
    M = B_u B_v^T (P, s, s), the bases Q_u and Q_v (P, d, s) and the norms
    ||X_u||_F^2 + ||X_v||_F^2. The pairs must share one block size
    s = max(1, k_u, k_v), which sizes each pair by its own nodes alone, so
    its map does not depend on the pairs solved with it."""
    Q, B, k, norms = forms
    s = max(1, int(k[u].max()), int(k[v].max()))
    return B[u, :s] @ B[v, :s].transpose(0, 2, 1), Q[u, :, :s], Q[v, :, :s], norms[u] + norms[v]


def _procrustes(M, Q_u, Q_v, norms):
    """Solve P edge problems from their compact forms (see ``_operands``):
    M = B_u B_v^T (P, s, s), Q_u and Q_v (P, d, s), so that the cross
    product is X_u X_v^T = Q_u M Q_v^T; return ``(F, cost, sigma, rank,
    degenerate)``.

    With the SVD M = P Sigma Z^T, the r directions the rank rule counts give
    U = Q_u P_r and V = Q_v Z_r, and F = V U^T on span(U) (orthogonal
    Procrustes, Schoenemann 1966), so tr(F X_u X_v^T) = sum(Sigma). On the
    complement of span(U), F is the direct rotation of Davis & Kahan (1970)
    onto the complement of span(V): with the SVD U^T V = Y diag(c) W^T,
    Ũ = U Y and S = V W - Ũ diag(c),

        F = I + (V - U) U^T - (Ũ + S diag(1 / (1 + c))) S^T,

    the orthogonal map with F U = V that is closest to I (unique unless a
    principal angle between span(U) and span(V) is exactly 90 degrees; the
    SVD's choice then picks one of the equally close maps). F is I outside
    span(U) + span(V), so outside the nodes' bases. No determinant
    constraint; a degenerate pair (r = 0) gets the identity.

    The r of a pair varies within a batch, so U and V keep s columns: the
    s - r unused ones are zero and get the cosine 1, which adds nothing to S
    and so nothing to F. (With the cosine 0 an SVD could mix them with the
    data's own orthogonal directions, and F would no longer be orthogonal.)"""
    P_m, sigma, Z_t = np.linalg.svd(M)
    cost, rank, degenerate = _edge_rule(M, sigma, norms)
    unused = np.arange(M.shape[1]) >= rank[:, None]  # (P, s)
    U = np.where(unused[:, None, :], 0.0, Q_u @ P_m)
    V = np.where(unused[:, None, :], 0.0, Q_v @ Z_t.transpose(0, 2, 1))
    cosines = U.transpose(0, 2, 1) @ V + unused[:, :, None] * np.eye(M.shape[1])
    Y, c, W_t = np.linalg.svd(cosines)
    U_y = U @ Y
    S = V @ W_t.transpose(0, 2, 1) - U_y * c[:, None, :]
    # F - I = [V - U, -(Ũ + S / (1 + c))] [U, S]^T, one product per pair
    left = np.concatenate([V - U, -(U_y + S / (1.0 + c[:, None, :]))], axis=2)
    F = left @ np.concatenate([U, S], axis=2).transpose(0, 2, 1)
    diagonal = np.arange(F.shape[1])
    F[:, diagonal, diagonal] += 1.0
    F[degenerate] = np.eye(F.shape[1])
    return F, cost, sigma, rank, degenerate


def procrustes_align(D_u, S_u, D_v, S_v, u: int = 0,
                     v: int = 1) -> tuple[np.ndarray, EdgeCandidate]:
    """Solve the local edge problem of one pair; return ``(F, candidate)``.
    A = X_u X_v^T = 0 is a valid degenerate case: the identity, flagged.
    The candidate's singular values are padded with zeros to d. Non-finite
    entries and shapes that disagree raise ``ValueError`` naming u or v."""
    reps = _checked_reps(((D_u, S_u), (D_v, S_v)), (u, v))
    operands = _operands(_compact(reps, bases=True), np.array([0]), np.array([1]))
    F, cost, sigma, rank, degenerate = (a[0] for a in _procrustes(*operands))
    sigma = np.concatenate([sigma, np.zeros(max(0, F.shape[0] - sigma.size))])
    return F, EdgeCandidate(u, v, float(cost), tuple(sigma.tolist()), int(rank), bool(degenerate))


def aligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Minimal misfit after optimal alignment; depends on the coefficient
    cross-covariance and the subspace dimensions, not on the basis structure."""
    return procrustes_align(D_u, S_u, D_v, S_v)[1].cost


def unaligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Plain squared Frobenius distance between the denoised signals."""
    diff = np.atleast_2d(D_u) @ np.atleast_2d(S_u) - np.atleast_2d(D_v) @ np.atleast_2d(S_v)
    return float(np.sum(diff * diff))
