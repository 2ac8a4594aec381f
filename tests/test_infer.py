from itertools import combinations

import numpy as np
import pytest

from sheaflearn import (
    Cochain0,
    assemble_laplacian,
    build_sheaf,
    enumerate_candidates,
    min_edges_for_connectivity,
    select_topology,
    total_variation,
)
from sheaflearn.align import EdgeCandidate
from sheaflearn.infer import sort_candidates
from conftest import random_orthonormal


def random_reps(rng, node_count, d, n=8):
    return [(np.eye(d), rng.standard_normal((d, n))) for _ in range(node_count)]


def fake_candidates(costs_by_pair, d=1):
    return [
        EdgeCandidate(u=u, v=v, map_u=np.eye(d),
                      cost=c, singular_values=(), rank=0)
        for (u, v), c in costs_by_pair.items()
    ]


def connected_by_bfs(node_count, edges):
    adj = {u: set() for u in range(node_count)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == node_count


class TestEnumerate:
    def test_candidate_counts(self, rng):
        assert len(enumerate_candidates(random_reps(rng, 4, 2))) == 6
        assert len(enumerate_candidates(random_reps(rng, 16, 2))) == 120

    def test_baseline_dominates_aligned(self, rng):
        reps = random_reps(rng, 5, 3)
        aligned = {c.pair: c.cost for c in enumerate_candidates(reps, mode="aligned")}
        baseline = {c.pair: c.cost for c in enumerate_candidates(reps, mode="baseline")}
        for pair in aligned:
            assert aligned[pair] <= baseline[pair] + 1e-9

    def test_too_few_nodes(self, rng):
        with pytest.raises(ValueError):
            enumerate_candidates(random_reps(rng, 1, 2))

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            enumerate_candidates(random_reps(rng, 3, 2), mode="bogus")


class TestSelectTopology:
    def test_empty_and_complete(self, rng):
        cands = enumerate_candidates(random_reps(rng, 4, 2))
        assert select_topology(cands, 0).selected == ()
        assert len(select_topology(cands, 6).selected) == 6

    def test_out_of_range(self, rng):
        cands = enumerate_candidates(random_reps(rng, 3, 2))
        with pytest.raises(ValueError):
            select_topology(cands, 4)
        with pytest.raises(ValueError):
            select_topology(cands, -1)

    def test_matches_exhaustive_search(self, rng):
        # the separable objective makes the greedy prefix exact
        for _ in range(5):
            pairs = list(combinations(range(5), 2))
            cands = fake_candidates({p: float(c) for p, c in
                                     zip(pairs, rng.standard_normal(len(pairs)) ** 2)})
            by_pair = {c.pair: c.cost for c in cands}
            for e0 in range(len(pairs) + 1):
                greedy = select_topology(cands, e0).total_cost
                brute = min(sum(by_pair[p] for p in subset) if subset else 0.0
                            for subset in combinations(pairs, e0))
                assert abs(greedy - brute) <= 1e-12

    def test_tie_break_lexicographic(self):
        cands = fake_candidates({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        sel = select_topology(cands, 2)
        assert sel.selected == ((0, 1), (0, 2))

    def test_determinism(self, rng):
        reps = random_reps(rng, 6, 2)
        cands = enumerate_candidates(reps)
        a = select_topology(cands, 7)
        b = select_topology(enumerate_candidates(reps), 7)
        assert a.selected == b.selected
        assert a.connected_at == b.connected_at


class TestConnectivity:
    def test_two_nodes(self):
        cands = fake_candidates({(0, 1): 3.0})
        assert min_edges_for_connectivity(cands) == 1

    def test_two_cheap_cliques(self):
        # both triangles internal first; the bridge edge is mandatory
        costs = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0,
                 (3, 4): 1.5, (3, 5): 2.5, (4, 5): 3.5,
                 (0, 3): 10.0, (0, 4): 11.0, (0, 5): 12.0,
                 (1, 3): 13.0, (1, 4): 14.0, (1, 5): 15.0,
                 (2, 3): 16.0, (2, 4): 17.0, (2, 5): 18.0}
        cands = fake_candidates(costs)
        k = min_edges_for_connectivity(cands)
        ordered = sort_candidates(cands)
        assert ordered[k - 1].pair == (0, 3)
        assert connected_by_bfs(6, [c.pair for c in ordered[:k]])
        assert not connected_by_bfs(6, [c.pair for c in ordered[:k - 1]])

    def test_minimality_against_bfs(self, rng):
        for _ in range(10):
            cands = enumerate_candidates(random_reps(rng, 6, 2))
            k = min_edges_for_connectivity(cands)
            ordered = sort_candidates(cands)
            assert connected_by_bfs(6, [c.pair for c in ordered[:k]])
            assert not connected_by_bfs(6, [c.pair for c in ordered[:k - 1]])


class TestBuildSheaf:
    def test_baseline_maps_are_identity(self, rng):
        reps = random_reps(rng, 4, 3)
        cands = enumerate_candidates(reps, mode="baseline")
        sheaf = build_sheaf(select_topology(cands, 3))
        for e in range(sheaf.edge_count):
            assert np.array_equal(sheaf.maps[e, 0], np.eye(3))
            assert np.array_equal(sheaf.maps[e, 1], np.eye(3))

    def test_rotated_pair_yields_zero_tv(self, rng):
        Q = random_orthonormal(rng, 3)
        Xv = rng.standard_normal((3, 6))
        reps = [(np.eye(3), Q @ Xv), (np.eye(3), Xv)]
        cands = enumerate_candidates(reps, mode="aligned")
        sheaf = build_sheaf(select_topology(cands, 1))
        L = assemble_laplacian(sheaf)
        x = Cochain0((Q @ Xv, Xv))
        assert total_variation(L, x) <= 1e-9

    def test_tv_equals_selected_cost_sum(self, rng):
        # cross-module consistency: quadratic form vs accumulated edge costs
        reps = random_reps(rng, 6, 3)
        cands = enumerate_candidates(reps, mode="aligned")
        for e0 in (0, 4, 9, 15):
            sel = select_topology(cands, e0)
            sheaf = build_sheaf(sel)
            L = assemble_laplacian(sheaf)
            x = Cochain0(tuple(b @ s for b, s in reps))
            tv = total_variation(L, x)
            assert abs(tv - sel.total_cost) <= 1e-9 * max(1.0, tv)

    def test_aligned_tv_dominated_by_baseline(self, rng):
        reps = random_reps(rng, 5, 2)
        al = sort_candidates(enumerate_candidates(reps, mode="aligned"))
        ba = sort_candidates(enumerate_candidates(reps, mode="baseline"))
        for e0 in range(len(al) + 1):
            tv_al = sum(c.cost for c in al[:e0])
            tv_ba = sum(c.cost for c in ba[:e0])
            assert tv_al <= tv_ba + 1e-9
