"""Closed-form alignment of two nodes' denoised signals, one pair at a time
or batched over every pair of a graph.

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
``_procrustes`` and its ``_edge_rule``, and so does the pair math ``infer``
runs on a whole graph, each batched function beside the one-pair function
it equals: ``_score_pairs`` scores every pair through ``_edge_rule``
without a map (``procrustes_align``'s costs), one whole tail node at a
time, and ``_solve_maps`` solves the kept edges' maps only
(``procrustes_align``'s maps), in runs of at most ``core.EDGE_CHUNK``
pairs. Neither output depends on a batch size. The plain distance
has one implementation, ``_pair_distances`` over every pair, and
``unaligned_distance`` is its two-node call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _runs

# Singular values below this fraction of sigma_max do not count towards rank.
RANK_RTOL = 1e-10

# Cross products with Frobenius norm at most this fraction of the pair's
# ||X_u||_F^2 + ||X_v||_F^2 are treated as identically zero: any orthogonal map
# is then optimal and the identity is returned. Both sides scale as c^2 when
# the signals scale by c, so the test does not depend on the signals' scale;
# a pair of zero signals is degenerate.
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
    entries, for a basis with at least one row (the ambient dimension), for
    coefficients with at least one column (the snapshots) and for shapes
    that agree with the first pair's. An error names
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
        if b.shape[0] == 0:
            raise ValueError(f"node {node}: basis has no rows, so the ambient dimension is 0")
        if s.shape[1] == 0:
            raise ValueError(f"node {node}: coefficients have no snapshots")
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
    degenerate = fro <= DEGENERATE_TOL * norms
    sigma[degenerate] = 0.0
    cost = np.maximum(0.0, norms - 2.0 * np.sum(sigma, axis=1))
    rank = np.count_nonzero(sigma > RANK_RTOL * sigma[:, :1], axis=1)
    return cost, rank, degenerate


def _compact(reps):
    """The compact forms of the nodes ``reps`` (basis, coefficients): with
    the reduced QR D_u = Q_u R_u, return ``(Q, B, k, norms)``: the bases
    ``Q`` (V, d, kmax) and the blocks B_u = R_u S_u (V, kmax, N), each
    zero-padded past its k_u = min(d, d_u) columns or rows; ``k`` (V,); and
    norms[u] = ||D_u S_u||_F^2. kmax is at least 1, so nodes whose supports
    are all empty still get one zero column and row."""
    d, N = reps[0][0].shape[0], reps[0][1].shape[1]
    k = np.array([min(b.shape) for b, _ in reps], dtype=np.intp)
    kmax = max(1, int(k.max()))
    Q = np.zeros((len(reps), d, kmax))
    B = np.zeros((len(reps), kmax, N))
    norms = np.empty(len(reps))
    for node, (b, s) in enumerate(reps):
        x = b @ s
        norms[node] = np.sum(x * x)
        if not k[node]:  # a node with an empty support keeps zero blocks
            continue
        Q[node, :, :k[node]], r = np.linalg.qr(b)
        B[node, :k[node]] = r @ s
    return Q, B, k, norms


def _operands(forms, u, v):
    """The arguments of ``_procrustes`` for the pairs (u[i], v[i]), arrays of
    node indices, from ``_compact``'s forms ``(Q, B, k, norms)``: the blocks
    M = B_u B_v^T (P, s, s), the bases Q_u and Q_v (P, d, s) and the norms
    ||X_u||_F^2 + ||X_v||_F^2. The pairs must share one block size
    s = max(1, k_u, k_v), which sizes each pair by its own nodes alone, so
    its map does not depend on the pairs solved with it. Each M is one
    product of the two nodes' blocks read in place, so no (P, s, N) copy of
    the blocks is gathered."""
    Q, B, k, norms = forms
    s = max(1, int(k[u].max()), int(k[v].max()))
    M = np.empty((u.size, s, s))
    for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        np.matmul(B[a, :s], B[b, :s].T, out=M[i])
    return M, Q[u, :, :s], Q[v, :, :s], norms[u] + norms[v]


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
    A = X_u X_v^T = 0 is a valid degenerate case: the identity, with ``degenerate`` set.
    The candidate's singular values are padded with zeros to d. Non-finite
    entries and shapes that disagree raise ``ValueError`` naming u or v."""
    reps = _checked_reps(((D_u, S_u), (D_v, S_v)), (u, v))
    operands = _operands(_compact(reps), np.array([0]), np.array([1]))
    F, cost, sigma, rank, degenerate = (a[0] for a in _procrustes(*operands))
    sigma = np.concatenate([sigma, np.zeros(max(0, F.shape[0] - sigma.size))])
    return F, EdgeCandidate(u, v, float(cost), tuple(sigma.tolist()), int(rank), bool(degenerate))


def _score_pairs(reps):
    """Aligned costs of all pairs without forming a map: the columns
    ``(u, v, cost, rank, degenerate, sigma)`` of the pairs u < v of the
    checked ``reps``, with ``sigma`` (P, d) padded with zeros.

    The cross product X_u X_v^T = Q_u (B_u B_v^T) Q_v^T has the singular
    values of the block B_u B_v^T (``_compact``'s blocks, zero-padded to
    kmax, which leaves them unchanged), and cost, rank and the degenerate
    flag come from ``_edge_rule``, as in ``procrustes_align``. The pairs
    are walked one tail at a time, in ``np.triu_indices`` order: tail u's
    heads are u + 1, ..., V - 1, so all of its blocks come from one matrix
    product over the slice B[u + 1:], whatever V is. No batch size cuts a
    tail, so every cost, rank and sigma depends on the data alone, and no
    Gram matrix of all nodes is formed: one tail's blocks take
    (V - 1) * kmax^2 values.
    """
    Q, B, k, norms = _compact(reps)
    d, kmax = Q.shape[1:]
    u_of, v_of = np.triu_indices(len(reps), 1)
    chunks = []
    for u in range(len(reps) - 1):
        # block j is B_v B_u^T for v = u + 1 + j, with the singular values and
        # Frobenius norm of its transpose B_u B_v^T
        blocks = (B[u + 1:].reshape(-1, B.shape[2]) @ B[u].T).reshape(-1, kmax, kmax)
        sigma = np.zeros((len(blocks), d))
        sigma[:, :kmax] = np.linalg.svd(blocks, compute_uv=False)
        sigma[np.arange(d) >= np.minimum(k[u], k[u + 1:])[:, None]] = 0.0
        chunks.append((*_edge_rule(blocks, sigma, norms[u] + norms[u + 1:]), sigma))
    return (u_of, v_of, *map(np.concatenate, zip(*chunks)))


def _solve_maps(reps, u, v, out):
    """Write the map F of each pair (u[i], v[i]) of the checked ``reps``
    into out[i], without a d x d cross product: the pairs are solved in the
    runs of ``core._runs`` keyed by their block size max(1, k_u, k_v) (at
    most EDGE_CHUNK pairs each), through the ``_operands`` that
    ``procrustes_align`` gathers for its one pair, so every F equals that
    function's bit for bit. ``out`` is written in place, so the caller's map
    stack is the only (P, d, d) array."""
    forms = _compact(reps)
    k = forms[2]
    for run in _runs(np.maximum(1, np.maximum(k[u], k[v]))):
        out[run] = _procrustes(*_operands(forms, u[run], v[run]))[0]


def aligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Minimal misfit after optimal alignment; depends on the coefficient
    cross-covariance and the subspace dimensions, not on the basis structure."""
    return procrustes_align(D_u, S_u, D_v, S_v)[1].cost


def unaligned_distance(D_u, S_u, D_v, S_v) -> float:
    """Plain squared Frobenius distance between the denoised signals, from
    ``_pair_distances`` on the one pair. Non-finite entries and shapes that
    disagree raise ``ValueError`` naming node 0 or 1."""
    return float(_pair_distances(_checked_reps(((D_u, S_u), (D_v, S_v))))[2][0])


def _pair_distances(reps):
    """Plain distances ||X_u - X_v||_F^2 of all pairs u < v of the checked
    ``reps``, each X_u = D_u S_u formed once (``unaligned_distance`` is the
    two-node call): the columns ``(u, v, cost, rank, degenerate, sigma)``,
    with rank 0, no degenerate pair and a (P, 0) ``sigma``."""
    X = [b @ s for b, s in reps]
    u_of, v_of = np.triu_indices(len(X), 1)
    cost = [np.sum(diff * diff) for diff in
            (X[u] - X[v] for u, v in zip(u_of.tolist(), v_of.tolist()))]
    P = u_of.size
    return u_of, v_of, cost, np.zeros(P, np.intp), np.zeros(P, bool), np.zeros((P, 0))
