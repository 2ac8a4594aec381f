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

from .align import EdgeCandidate, _checked_reps, _compact, _edge_rule, _operands, _procrustes
# re-exported: perfbench's timing sites and perfbench/selftest.py wrap these names here
from .align import procrustes_align, unaligned_distance  # noqa: F401
from .core import Sheaf, _runs, make_sheaf
from .synth import _integer

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


def _score_aligned(reps) -> Candidates:
    """Aligned costs of all pairs without forming a map.

    With D_u = Q_u R_u (reduced QR) the cross product is
    X_u X_v^T = Q_u (B_u B_v^T) Q_v^T with B_u = R_u S_u, so its singular
    values are those of the k_u x k_v block B_u B_v^T, k_u = min(d, d_u).
    The B_u come from ``align._compact``, as ``build_sheaf``'s do, padded
    with zeros to one size, which leaves the singular values unchanged. The
    pairs are walked in ``core._runs`` keyed by tail: each run, one u with
    consecutive heads v, is decomposed from one matrix product, and no Gram
    matrix of all nodes is formed. Cost, rank and the degenerate flag come
    from ``align._edge_rule``, as in ``procrustes_align``.
    """
    d = reps[0][0].shape[0]
    _, B, k, norms = _compact(reps, bases=False)
    kmax = B.shape[1]
    u_of, v_of = np.triu_indices(len(reps), 1)
    chunks = []
    for run in _runs(u_of):
        u, vs = u_of[run[0]], v_of[run]
        # a run's heads are consecutive, so B[vs] is a slice; block j is B_v B_u^T,
        # with the singular values and Frobenius norm of its transpose B_u B_v^T
        blocks = (B[vs[0]:vs[-1] + 1].reshape(-1, B.shape[2]) @ B[u].T).reshape(-1, kmax, kmax)
        sigma = np.zeros((run.size, d))
        sigma[:, :kmax] = np.linalg.svd(blocks, compute_uv=False)
        sigma[np.arange(d) >= np.minimum(k[u], k[vs])[:, None]] = 0.0
        chunks.append((*_edge_rule(blocks, sigma, norms[u] + norms[vs]), sigma))
    return Candidates(u_of, v_of, *map(np.concatenate, zip(*chunks)), "aligned", reps)


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
        raise ValueError(f"need at least two nodes, found {len(reps)}")
    if mode == "aligned":
        return _score_aligned(reps)
    return _score_baseline(reps)


def min_edges_for_connectivity(candidates: Candidates) -> int:
    """Smallest k such that the k cheapest candidate edges connect the graph."""
    return candidates.connected_at


def select_topology(candidates: Candidates, E0: int) -> EdgeSelection:
    """Keep the E0 cheapest candidate edges (exact for the separable objective)."""
    E0 = _integer("E0", E0)
    if not (0 <= E0 <= len(candidates)):
        raise ValueError(f"E0 = {E0} outside [0, {len(candidates)}]")
    candidates.connected_at  # computed once per table; raises when disconnected
    return EdgeSelection(candidates, E0)


def build_sheaf(selection: EdgeSelection) -> Sheaf:
    """Assemble the learned sheaf from the winning candidates.

    Maps are solved here, for the selected edges only. Aligned candidates
    get F from the batched kernel ``align._procrustes``, from the nodes'
    compact forms: each basis is QR-reduced once (D_u = Q_u R_u,
    B_u = R_u S_u), and an edge is solved from its small block B_u B_v^T of
    size max(1, k_u, k_v), in the runs of ``core._runs`` keyed by that size
    (at most EDGE_CHUNK edges each); no d x d cross product is formed. F is
    the Procrustes map U -> V on the data's range and the direct rotation
    of its complement (the optimal map closest to I), so it is I outside
    the two nodes' bases. ``align._operands`` gathers a run's blocks as it
    does ``procrustes_align``'s one pair, so every F equals that function's
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
    # the identity heads, and the baseline tails; the kernel writes aligned tails
    maps[:, 1 if table.mode == "aligned" else 0:] = np.eye(d)
    if table.mode == "aligned":
        forms = _compact(reps, bases=True)
        u, v, k = table.u[:selection.E0], table.v[:selection.E0], forms[2]
        for run in _runs(np.maximum(1, np.maximum(k[u], k[v]))):
            maps[run, 0] = _procrustes(*_operands(forms, u[run], v[run]))[0]
    return make_sheaf(len(reps), d, selection.selected, maps)
