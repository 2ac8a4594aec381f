"""Global topology selection: score every candidate edge, sort by local
alignment cost, take the cheapest E0 (or the minimum needed for connectivity),
and assemble the learned sheaf, solving restriction maps for the kept edges
only.

The combinatorial objective sum_e a_e * cost_e with ||a||_0 = E0 is separable,
so the sorted-prefix greedy is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .align import DEGENERATE_TOL, RANK_RTOL, EdgeCandidate, procrustes_align
from .align import unaligned_distance  # noqa: F401  (the reference for baseline costs)
from .core import EDGE_CHUNK, Sheaf, make_sheaf

MODES = ("aligned", "baseline")


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.components -= 1
        return True


@dataclass(frozen=True)
class EdgeSelection:
    """Greedy selection result: the chosen prefix plus the full sorted list."""

    selected: tuple[tuple[int, int], ...]
    E0: int
    costs: tuple[EdgeCandidate, ...]   # full candidate list, cost-ascending
    connected_at: int                  # minimal prefix length achieving connectivity

    @property
    def total_cost(self) -> float:
        by_pair = {c.pair: c for c in self.costs}
        return float(sum(by_pair[p].cost for p in self.selected))


def sort_candidates(candidates) -> tuple[EdgeCandidate, ...]:
    """Cost-ascending order with deterministic (u, v) lexicographic tie-break."""
    return tuple(sorted(candidates, key=lambda c: (c.cost, c.u, c.v)))


def _checked_reps(reps) -> tuple:
    """The (basis, coeffs) pairs as 2-D float arrays, each checked for finite
    entries and for shapes that agree with node 0."""
    out = []
    for node, (b, s) in enumerate(reps):
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
                             f"node 0 has {out[0][0].shape[0]}")
        if out and s.shape[1] != out[0][1].shape[1]:
            raise ValueError(f"node {node}: {s.shape[1]} snapshots, "
                             f"node 0 has {out[0][1].shape[1]}")
        out.append((b, s))
    return tuple(out)


def _score_aligned(reps, source) -> list[EdgeCandidate]:
    """Aligned costs of all pairs without forming a map.

    With D_u = Q_u R_u (reduced QR) the cross product is
    X_u X_v^T = Q_u (B_u B_v^T) Q_v^T with B_u = R_u S_u, so its singular
    values are those of the k_u x k_v block B_u B_v^T, k_u = min(d, d_u).
    Blocks are zero-padded to one size, which leaves the singular values
    unchanged, and decomposed in batches of at most EDGE_CHUNK pairs (u, v)
    with one u, each batch from one matrix product; no Gram matrix of all
    nodes is formed. Norms, the degenerate test and the rank rule are those
    of ``procrustes_align``.
    """
    d = reps[0][0].shape[0]
    norms = np.array([np.sum(X * X) for X in (b @ s for b, s in reps)])
    k = np.array([min(b.shape) for b, _ in reps])
    kmax = max(1, int(k.max()))
    B = np.zeros((len(reps), kmax, reps[0][1].shape[1]))
    for node, (b, s) in enumerate(reps):
        if k[node]:  # a node with an empty support keeps a zero block
            B[node, :k[node]] = np.linalg.qr(b, mode="r") @ s
    rows = B.reshape(-1, B.shape[2])
    V = len(reps)
    buf = np.empty((min(EDGE_CHUNK, V - 1), kmax, kmax))
    out: list[EdgeCandidate] = []
    for u in range(V - 1):
        for lo in range(u + 1, V, EDGE_CHUNK):
            vs = np.arange(lo, min(V, lo + EDGE_CHUNK))
            # block j is B_v B_u^T, the transpose of B_u B_v^T, with the same
            # singular values and Frobenius norm
            blocks = buf[:vs.size]
            np.matmul(rows[lo * kmax:(vs[-1] + 1) * kmax], B[u].T,
                      out=blocks.reshape(-1, kmax))
            pair_norms = norms[u] + norms[vs]
            fro = np.sqrt(np.einsum("pij,pij->p", blocks, blocks))
            degenerate = fro <= DEGENERATE_TOL * np.maximum(1.0, pair_norms)
            sigma = np.zeros((vs.size, d))
            sigma[:, :kmax] = np.linalg.svd(blocks, compute_uv=False)
            sigma[(np.arange(d) >= np.minimum(k[u], k[vs])[:, None]) | degenerate[:, None]] = 0.0
            cost = np.where(degenerate, pair_norms,
                            np.maximum(0.0, pair_norms - 2.0 * np.sum(sigma, axis=1)))
            rank = np.count_nonzero(sigma > RANK_RTOL * sigma[:, :1], axis=1)
            out.extend(
                EdgeCandidate(u=u, v=v, cost=c, singular_values=tuple(sig), rank=r,
                              degenerate=g, source=source)
                for v, c, sig, r, g in zip(vs.tolist(), cost.tolist(), sigma.tolist(),
                                           rank.tolist(), degenerate.tolist())
            )
    return out


def _score_baseline(reps, source) -> list[EdgeCandidate]:
    """Plain distances ||X_u - X_v||_F^2, each X_u = D_u S_u formed once;
    equal bit for bit to ``unaligned_distance``."""
    X = [b @ s for b, s in reps]
    out: list[EdgeCandidate] = []
    for u, v in combinations(range(len(X)), 2):
        diff = X[u] - X[v]
        out.append(EdgeCandidate(u=u, v=v, cost=float(np.sum(diff * diff)),
                                 singular_values=(), rank=0, source=source))
    return out


def enumerate_candidates(reps, mode: str = "aligned") -> list[EdgeCandidate]:
    """Score every node pair; no restriction map is formed here.

    ``reps`` holds one (local_basis, compact_coeffs) pair per node. Aligned
    mode scores the optimal-map cost from QR-reduced Gram blocks (see
    ``_score_aligned``); baseline mode keeps identity maps and scores the
    plain distance between the denoised signals. Every candidate shares one
    ``(mode, reps)`` tuple, from which ``build_sheaf`` solves the maps of
    the edges that are kept. Non-finite entries and shapes that disagree
    with node 0 raise ``ValueError`` naming the node.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reps = _checked_reps(reps)
    if len(reps) < 2:
        raise ValueError("need at least two nodes to enumerate edges")
    source = (mode, reps)
    if mode == "aligned":
        return _score_aligned(reps, source)
    return _score_baseline(reps, source)


def min_edges_for_connectivity(candidates) -> int:
    """Smallest k such that the k cheapest candidate edges connect the graph."""
    ordered = sort_candidates(candidates)
    node_count = max(max(c.u, c.v) for c in ordered) + 1
    if node_count == 1:
        return 0
    uf = _UnionFind(node_count)
    for k, cand in enumerate(ordered, start=1):
        uf.union(cand.u, cand.v)
        if uf.components == 1:
            return k
    raise ValueError("candidate set does not connect the graph")


def select_topology(candidates, E0: int) -> EdgeSelection:
    """Keep the E0 cheapest candidate edges (exact for the separable objective)."""
    ordered = sort_candidates(candidates)
    if not (0 <= E0 <= len(ordered)):
        raise ValueError(f"E0 = {E0} outside [0, {len(ordered)}]")
    connected_at = min_edges_for_connectivity(ordered)
    return EdgeSelection(
        selected=tuple(c.pair for c in ordered[:E0]),
        E0=E0,
        costs=ordered,
        connected_at=connected_at,
    )


def build_sheaf(selection: EdgeSelection) -> Sheaf:
    """Assemble the learned sheaf from the winning candidates.

    Maps are solved here, for the selected edges only: aligned candidates
    get F from ``procrustes_align`` on the representations they were scored
    from, baseline candidates the identity. F sits on the candidate's u side
    (the tail under the min-first orientation); the head side of the map
    stack is the identity. Every node gets the full ambient dimension as its
    stalk.
    """
    pool = selection.costs
    if not pool:
        return make_sheaf(1, 1, [], np.empty((0, 2, 1, 1)))
    if any(c.source is None for c in pool):
        raise ValueError("candidates carry no node representations; "
                         "score them with enumerate_candidates")
    by_pair = {c.pair: c for c in pool}
    chosen = [by_pair[p] for p in selection.selected]
    d = pool[0].source[1][0][0].shape[0]
    node_count = max(max(c.u, c.v) for c in pool) + 1
    maps = np.empty((len(chosen), 2, d, d))
    maps[:, 1] = np.eye(d)
    for e, c in enumerate(chosen):
        mode, reps = c.source
        if mode == "aligned":
            maps[e, 0] = procrustes_align(*reps[c.u], *reps[c.v])[0]
        else:
            maps[e, 0] = np.eye(d)
    return make_sheaf(node_count, d, [c.pair for c in chosen], maps)
