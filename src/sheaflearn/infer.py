"""Global topology selection: enumerate every candidate edge, sort by local
alignment cost, take the cheapest E0 (or the minimum needed for connectivity),
and assemble the learned sheaf.

The combinatorial objective sum_e a_e * cost_e with ||a||_0 = E0 is separable,
so the sorted-prefix greedy is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .align import EdgeCandidate, procrustes_align, unaligned_distance
from .core import Sheaf, make_sheaf

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


def enumerate_candidates(reps, mode: str = "aligned") -> list[EdgeCandidate]:
    """Solve the local problem on every node pair.

    ``reps`` holds one (local_basis, compact_coeffs) pair per node. Aligned
    mode optimizes the restriction map per edge; baseline mode keeps identity
    maps and scores the plain distance between the denoised signals.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reps = [(np.atleast_2d(np.asarray(b, float)), np.atleast_2d(np.asarray(s, float))) for b, s in reps]
    if len(reps) < 2:
        raise ValueError("need at least two nodes to enumerate edges")
    d = reps[0][0].shape[0]
    out: list[EdgeCandidate] = []
    for u, v in combinations(range(len(reps)), 2):
        bu, su = reps[u]
        bv, sv = reps[v]
        if mode == "aligned":
            out.append(procrustes_align(bu, su, bv, sv, u=u, v=v))
        else:
            cost = unaligned_distance(bu, su, bv, sv)
            out.append(EdgeCandidate(
                u=u, v=v, map_u=np.eye(d),
                cost=cost, singular_values=(), rank=0,
            ))
    return out


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

    The optimized map sits on the candidate's u side (the tail under the
    min-first orientation); the head side of the map stack is the identity.
    Every node gets the full ambient dimension as its stalk.
    """
    pool = selection.costs
    by_pair = {c.pair: c for c in pool}
    chosen = [by_pair[p] for p in selection.selected]
    d = pool[0].map_u.shape[0] if pool else 1
    node_count = (max(max(c.u, c.v) for c in pool) + 1) if pool else 1
    maps = np.empty((len(chosen), 2, d, d))
    for e, c in enumerate(chosen):
        maps[e, 0] = c.map_u
    maps[:, 1] = np.eye(d)
    return make_sheaf(node_count, d, [c.pair for c in chosen], maps)
