"""Global topology selection: score every candidate edge, sort by local
alignment cost, take the cheapest E0 (or the minimum needed for connectivity),
and assemble the learned sheaf, solving restriction maps for the kept edges
only. Both steps take the alignment rules from ``align``'s batched kernel.

The combinatorial objective sum_e a_e * cost_e with ||a||_0 = E0 is separable,
so the sorted-prefix greedy is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .align import EdgeCandidate, _edge_rule, _procrustes
from .align import procrustes_align, unaligned_distance  # noqa: F401  (the one-pair references)
from .core import EDGE_CHUNK, Sheaf, make_sheaf

MODES = ("aligned", "baseline")


@dataclass(frozen=True, eq=False)
class Candidates:
    """Every scored node pair, one array per field, sorted once when built by
    (cost, u, v): the order in which selection keeps edges. ``sigma`` is
    (P, d) in aligned mode and (P, 0) in baseline mode. ``build_sheaf``
    solves maps from ``mode`` and ``reps``. Iterating or indexing yields
    ``EdgeCandidate`` rows."""

    u: np.ndarray
    v: np.ndarray
    cost: np.ndarray
    rank: np.ndarray
    degenerate: np.ndarray
    sigma: np.ndarray
    mode: str | None = None
    reps: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        order = np.lexsort((self.v, self.u, self.cost))
        for name in ("u", "v", "cost", "rank", "degenerate", "sigma"):
            column = np.asarray(getattr(self, name))[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.cost.size

    def _rows(self, pick):
        """The rows at ``pick``, a slice or a list of indices, one at a time."""
        return map(EdgeCandidate, self.u[pick].tolist(), self.v[pick].tolist(),
                   self.cost[pick].tolist(), map(tuple, self.sigma[pick].tolist()),
                   self.rank[pick].tolist(), self.degenerate[pick].tolist())

    def __iter__(self):
        return self._rows(slice(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        return next(self._rows([range(len(self))[index]]))  # range checks the index

    @cached_property
    def connected_at(self) -> int:
        """Smallest k such that the k cheapest pairs connect every node."""
        component = np.arange(max(self.u.max(), self.v.max()) + 1)
        merges = 0
        for k, (a, b) in enumerate(zip(self.u.tolist(), self.v.tolist()), start=1):
            if component[a] != component[b]:
                component[component == component[b]] = component[a]
                merges += 1
                if merges == component.size - 1:
                    return k
        raise ValueError("candidate set does not connect the graph")

    @cached_property
    def tv_prefix(self) -> np.ndarray:
        """tv_prefix[k] = total cost of the k cheapest pairs, summed in order."""
        return np.concatenate([[0.0], np.cumsum(self.cost)])


@dataclass(frozen=True)
class EdgeSelection:
    """Greedy selection result: the cheapest E0 rows of a candidate table."""

    candidates: Candidates
    E0: int

    @cached_property
    def selected(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.candidates.u[:self.E0].tolist(),
                         self.candidates.v[:self.E0].tolist()))

    @property
    def connected_at(self) -> int:
        return self.candidates.connected_at

    @property
    def total_cost(self) -> float:
        return float(self.candidates.tv_prefix[self.E0])


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


def _score_aligned(reps) -> Candidates:
    """Aligned costs of all pairs without forming a map.

    With D_u = Q_u R_u (reduced QR) the cross product is
    X_u X_v^T = Q_u (B_u B_v^T) Q_v^T with B_u = R_u S_u, so its singular
    values are those of the k_u x k_v block B_u B_v^T, k_u = min(d, d_u).
    Blocks are zero-padded to one size, which leaves the singular values
    unchanged, and decomposed in batches of at most EDGE_CHUNK pairs (u, v)
    with one u, each batch from one matrix product; no Gram matrix of all
    nodes is formed. Cost, rank and the degenerate flag come from
    ``align._edge_rule``, as in ``procrustes_align``.
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
    chunks = []
    for u in range(V - 1):
        for lo in range(u + 1, V, EDGE_CHUNK):
            vs = np.arange(lo, min(V, lo + EDGE_CHUNK))
            # block j is B_v B_u^T, the transpose of B_u B_v^T, with the same
            # singular values and Frobenius norm
            blocks = buf[:vs.size]
            np.matmul(rows[lo * kmax:(vs[-1] + 1) * kmax], B[u].T,
                      out=blocks.reshape(-1, kmax))
            sigma = np.zeros((vs.size, d))
            sigma[:, :kmax] = np.linalg.svd(blocks, compute_uv=False)
            sigma[np.arange(d) >= np.minimum(k[u], k[vs])[:, None]] = 0.0
            chunks.append((*_edge_rule(blocks, sigma, norms[u] + norms[vs]), sigma))
    # the chunks hold the pairs in np.triu_indices order
    return Candidates(*np.triu_indices(V, 1), *map(np.concatenate, zip(*chunks)),
                      "aligned", reps)


def _score_baseline(reps) -> Candidates:
    """Plain distances ||X_u - X_v||_F^2, each X_u = D_u S_u formed once;
    equal bit for bit to ``unaligned_distance``."""
    X = [b @ s for b, s in reps]
    u_of, v_of = np.triu_indices(len(X), 1)
    cost = [np.sum(diff * diff) for diff in
            (X[u] - X[v] for u, v in zip(u_of.tolist(), v_of.tolist()))]
    P = u_of.size
    return Candidates(u_of, v_of, cost, np.zeros(P, np.intp), np.zeros(P, bool),
                      np.zeros((P, 0)), "baseline", reps)


def enumerate_candidates(reps, mode: str = "aligned") -> Candidates:
    """Score every node pair; no restriction map is formed here.

    ``reps`` holds one (local_basis, compact_coeffs) pair per node. Aligned
    mode scores the optimal-map cost from QR-reduced Gram blocks (see
    ``_score_aligned``); baseline mode keeps identity maps and scores the
    plain distance between the denoised signals. The ``Candidates`` table
    keeps ``mode`` and ``reps``, from which ``build_sheaf`` solves the maps
    of the edges that are kept. Non-finite entries and shapes that disagree
    with node 0 raise ``ValueError`` naming the node.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reps = _checked_reps(reps)
    if len(reps) < 2:
        raise ValueError("need at least two nodes to enumerate edges")
    if mode == "aligned":
        return _score_aligned(reps)
    return _score_baseline(reps)


def min_edges_for_connectivity(candidates: Candidates) -> int:
    """Smallest k such that the k cheapest candidate edges connect the graph."""
    return candidates.connected_at


def select_topology(candidates: Candidates, E0: int) -> EdgeSelection:
    """Keep the E0 cheapest candidate edges (exact for the separable objective)."""
    if not (0 <= E0 <= len(candidates)):
        raise ValueError(f"E0 = {E0} outside [0, {len(candidates)}]")
    candidates.connected_at  # computed once per table; raises when disconnected
    return EdgeSelection(candidates, E0)


def build_sheaf(selection: EdgeSelection) -> Sheaf:
    """Assemble the learned sheaf from the winning candidates.

    Maps are solved here, for the selected edges only. Aligned candidates
    get F from the batched kernel ``align._procrustes``, EDGE_CHUNK edges
    per call, on the representations they were scored from: each
    X_u = D_u S_u is formed once, and every F equals ``procrustes_align``'s
    bit for bit. Baseline candidates get the identity. F sits on the
    candidate's u side (the tail under the min-first orientation); the head
    side of the map stack is the identity. Every node gets the full ambient
    dimension as its stalk.
    """
    table = selection.candidates
    if table.reps is None:
        raise ValueError("candidates carry no node representations; "
                         "score them with enumerate_candidates")
    reps = table.reps
    d = reps[0][0].shape[0]
    maps = np.empty((selection.E0, 2, d, d))
    maps[:] = np.eye(d)
    if table.mode == "aligned":
        X = np.stack([b @ s for b, s in reps])
        sq = np.array([np.sum(x * x) for x in X])
        u, v = table.u[:selection.E0], table.v[:selection.E0]
        for lo in range(0, selection.E0, EDGE_CHUNK):
            us, vs = u[lo:lo + EDGE_CHUNK], v[lo:lo + EDGE_CHUNK]
            maps[lo:lo + EDGE_CHUNK, 0] = _procrustes(X[us] @ X[vs].transpose(0, 2, 1),
                                                      sq[us] + sq[vs])[0]
    return make_sheaf(len(reps), d, selection.selected, maps)
