from itertools import combinations

import numpy as np
import pytest

from sheaflearn import (
    Candidates,
    Cochain0,
    assemble_laplacian,
    build_sheaf,
    enumerate_candidates,
    min_edges_for_connectivity,
    select_topology,
    total_variation,
)
import sheaflearn.align as align
import sheaflearn.infer as infer
from sheaflearn.infer import MODES
from sheaflearn.align import EdgeCandidate, procrustes_align, unaligned_distance
from conftest import candidate_table, random_orthonormal


def random_reps(rng, node_count, d, n=8):
    return [(np.eye(d), rng.standard_normal((d, n))) for _ in range(node_count)]


def mixed_reps(rng, d=6, n=9):
    """19 nodes (171 pairs) with orthonormal, overcomplete non-orthonormal
    (d_u > d), rank-deficient and full-width bases, and one all-zero
    coefficient node (node 4)."""
    widths = [2, 9, 6, 3, 5, 11, 1, 4, 7, 6, 2, 8, 3, 10, 5, 6, 1, 4, 12]
    reps = []
    for node, du in enumerate(widths):
        kind = node % 3
        if kind == 0 and du <= d:
            D = random_orthonormal(rng, d)[:, :du]
        elif kind == 2 and du > 1:
            D = rng.standard_normal((d, 1)) @ rng.standard_normal((1, du))
        else:
            D = rng.standard_normal((d, du))
        S = np.zeros((du, n)) if node == 4 else rng.standard_normal((du, n))
        reps.append((D, S))
    return reps


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
            by_pair = {p: float(c) for p, c in zip(pairs, rng.standard_normal(len(pairs)) ** 2)}
            cands = candidate_table(by_pair)
            for e0 in range(len(pairs) + 1):
                greedy = select_topology(cands, e0).total_cost
                brute = min(sum(by_pair[p] for p in subset) if subset else 0.0
                            for subset in combinations(pairs, e0))
                assert abs(greedy - brute) <= 1e-12

    def test_tie_break_lexicographic(self):
        cands = candidate_table({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        sel = select_topology(cands, 2)
        assert sel.selected == ((0, 1), (0, 2))

    def test_determinism(self, rng):
        reps = random_reps(rng, 6, 2)
        cands = enumerate_candidates(reps)
        a = select_topology(cands, 7)
        b = select_topology(enumerate_candidates(reps), 7)
        assert a.selected == b.selected
        assert a.connected_at == b.connected_at


class TestCandidateTable:
    def test_equal_costs_break_ties_by_u_then_v(self, rng):
        # rows given out of order, with ties in cost and in u
        table = candidate_table({(2, 3): 1.0, (1, 3): 0.5, (0, 3): 1.0, (1, 2): 1.0,
                                 (0, 2): 0.5, (0, 1): 2.0})
        assert [c.pair for c in table] == [(0, 2), (1, 3), (0, 3), (1, 2), (2, 3), (0, 1)]
        # many ties: the table's order is Python's sort by (cost, u, v)
        pairs = list(combinations(range(9), 2))
        rows = [(float(c), u, v) for (u, v), c in zip(pairs, rng.integers(0, 3, len(pairs)))]
        table = candidate_table({rows[i][1:]: rows[i][0] for i in rng.permutation(len(rows))})
        assert [(c.cost, c.u, c.v) for c in table] == sorted(rows)

    def test_scored_tables_in_python_sort_order(self, rng):
        for mode in MODES:
            rows = list(enumerate_candidates(mixed_reps(rng), mode))
            assert rows == sorted(rows, key=lambda c: (c.cost, c.u, c.v))

    def test_total_cost_is_the_sequential_sum(self, rng):
        cands = enumerate_candidates(mixed_reps(rng))
        assert cands.tv_prefix.shape == (len(cands) + 1,)
        running = 0.0
        for e0 in range(len(cands) + 1):
            total = select_topology(cands, e0).total_cost
            assert total == cands.tv_prefix[e0] == running  # bit for bit
            if e0 < len(cands):
                running += float(cands.cost[e0])

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_equal_the_arrays(self, rng, mode):
        reps = mixed_reps(rng)
        cands = enumerate_candidates(reps, mode)
        rows = list(cands)
        assert len(rows) == len(cands) == len(reps) * (len(reps) - 1) // 2
        assert cands.sigma.shape == (len(cands), 6 if mode == "aligned" else 0)
        for p, c in enumerate(rows):
            assert isinstance(c, EdgeCandidate)
            assert type(c.u) is type(c.v) is type(c.rank) is int
            assert (c.u, c.v, c.rank, c.degenerate) == \
                (cands.u[p], cands.v[p], cands.rank[p], cands.degenerate[p])
            assert c.cost == cands.cost[p]
            assert c.singular_values == tuple(cands.sigma[p])
        assert (cands[0], cands[-1], cands[1:]) == (rows[0], rows[-1], rows[1:])
        assert not cands.cost.flags.writeable

    @pytest.mark.parametrize("index", [0, 5, -1, -171, slice(1, None), slice(3, 9, 2),
                                       slice(None, None, -1), slice(200, 300)])
    def test_indexing_builds_only_the_rows_asked_for(self, rng, monkeypatch, index):
        cands = enumerate_candidates(mixed_reps(rng), "aligned")
        rows = list(cands)
        built = []
        monkeypatch.setattr(infer, "EdgeCandidate",
                            lambda *row: built.append(row) or EdgeCandidate(*row))
        assert cands[index] == rows[index]
        assert len(built) == (len(rows[index]) if isinstance(index, slice) else 1)

    @pytest.mark.parametrize("index", [171, -172])
    def test_index_out_of_range(self, rng, index):
        cands = enumerate_candidates(mixed_reps(rng), "baseline")
        with pytest.raises(IndexError):
            cands[index]

    def test_sorted_once_and_connectivity_found_once(self, rng, monkeypatch):
        sorts, unions = [], []
        lexsort, connected_at = np.lexsort, Candidates.connected_at.func

        def counted_lexsort(keys):
            sorts.append(keys)
            return lexsort(keys)

        def counted_connected_at(table):
            unions.append(table)
            return connected_at(table)

        monkeypatch.setattr(np, "lexsort", counted_lexsort)
        monkeypatch.setattr(Candidates.connected_at, "func", counted_connected_at)
        reps = random_reps(rng, 6, 3)
        cands = enumerate_candidates(reps)
        assert (len(sorts), len(unions)) == (1, 0)
        k = min_edges_for_connectivity(cands)
        for e0 in (0, k, len(cands)):
            selection = select_topology(cands, e0)
            assert selection.connected_at == k
            build_sheaf(selection)
        assert (len(sorts), len(unions)) == (1, 1)
        assert min_edges_for_connectivity(enumerate_candidates(reps)) == k
        assert (len(sorts), len(unions)) == (2, 2)

    def test_selected_pairs_are_python_ints(self, rng):
        selected = select_topology(enumerate_candidates(random_reps(rng, 5, 2)), 4).selected
        assert isinstance(selected, tuple) and len(selected) == 4
        assert all(type(u) is type(v) is int for u, v in selected)

    def test_disconnected_table_rejected(self):
        with pytest.raises(ValueError, match="does not connect"):
            select_topology(candidate_table({(0, 1): 1.0, (2, 3): 1.0}), 1)


class TestConnectivity:
    def test_two_nodes(self):
        cands = candidate_table({(0, 1): 3.0})
        assert min_edges_for_connectivity(cands) == 1

    def test_two_cheap_cliques(self):
        # both triangles internal first; the bridge edge is mandatory
        costs = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0,
                 (3, 4): 1.5, (3, 5): 2.5, (4, 5): 3.5,
                 (0, 3): 10.0, (0, 4): 11.0, (0, 5): 12.0,
                 (1, 3): 13.0, (1, 4): 14.0, (1, 5): 15.0,
                 (2, 3): 16.0, (2, 4): 17.0, (2, 5): 18.0}
        cands = candidate_table(costs)
        k = min_edges_for_connectivity(cands)
        ordered = list(cands)
        assert ordered[k - 1].pair == (0, 3)
        assert connected_by_bfs(6, [c.pair for c in ordered[:k]])
        assert not connected_by_bfs(6, [c.pair for c in ordered[:k - 1]])

    def test_minimality_against_bfs(self, rng):
        for _ in range(10):
            cands = enumerate_candidates(random_reps(rng, 6, 2))
            k = min_edges_for_connectivity(cands)
            ordered = list(cands)
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
        al = enumerate_candidates(reps, mode="aligned")
        ba = enumerate_candidates(reps, mode="baseline")
        for e0 in range(len(al) + 1):
            tv_al = sum(al.cost[:e0].tolist())
            tv_ba = sum(ba.cost[:e0].tolist())
            assert tv_al <= tv_ba + 1e-9


class TestScoringMatchesProcrustes:
    """The batched Gram-block scores against one full Procrustes solve per pair."""

    def assert_matches(self, cands, reps):
        d = reps[0][0].shape[0]
        assert sorted(c.pair for c in cands) == list(combinations(range(len(reps)), 2))
        for c in cands:
            (Du, Su), (Dv, Sv) = reps[c.u], reps[c.v]
            _, ref = procrustes_align(Du, Su, Dv, Sv)
            norms = np.sum((Du @ Su) ** 2) + np.sum((Dv @ Sv) ** 2)
            assert abs(c.cost - ref.cost) <= 1e-12 * max(1.0, norms)
            assert (c.rank, c.degenerate) == (ref.rank, ref.degenerate)
            assert len(c.singular_values) == d
            m = min(d, Du.shape[1], Dv.shape[1])
            sigma, ref_sigma = np.array(c.singular_values), np.array(ref.singular_values)
            assert np.all(np.abs(sigma[:m] - ref_sigma[:m]) <= 1e-12 * ref_sigma[0])
            assert np.all(sigma[m:] == 0.0)

    def test_mixed_bases(self, rng):
        reps = mixed_reps(rng)
        cands = enumerate_candidates(reps)
        self.assert_matches(cands, reps)
        assert any(c.degenerate for c in cands)
        assert all(c.degenerate == (4 in c.pair) for c in cands)

    def test_rows_split_into_several_slices(self, rng, monkeypatch):
        # rows of up to 18 pairs cut into slices of 4, one of them partial
        monkeypatch.setattr(infer, "EDGE_CHUNK", 4)
        reps = mixed_reps(rng)
        self.assert_matches(enumerate_candidates(reps), reps)

    def test_empty_support_node_is_degenerate(self, rng):
        reps = random_reps(rng, 4, 3)
        reps[1] = (np.zeros((3, 0)), np.zeros((0, 8)))
        cands = enumerate_candidates(reps)
        self.assert_matches(cands, reps)
        assert sorted(c.pair for c in cands if c.degenerate) == [(0, 1), (1, 2), (1, 3)]

    def test_symmetric_in_u_and_v(self, rng):
        reps = mixed_reps(rng)
        forward = {c.pair: c for c in enumerate_candidates(reps)}
        V = len(reps)
        backward = enumerate_candidates(reps[::-1])
        for c in backward:
            f = forward[(V - 1 - c.v, V - 1 - c.u)]
            assert abs(c.cost - f.cost) <= 1e-12 * max(1.0, f.cost, c.cost)
            assert np.allclose(c.singular_values, f.singular_values,
                               rtol=0.0, atol=1e-12 * max(f.singular_values[0], 1e-300))

    def test_invariant_under_common_rotation(self, rng):
        reps = mixed_reps(rng)
        Q = random_orthonormal(rng, reps[0][0].shape[0])
        plain = enumerate_candidates(reps)
        turned = {c.pair: c for c in enumerate_candidates([(Q @ D, S) for D, S in reps])}
        for a in plain:
            b = turned[a.pair]
            norms = np.sum((reps[a.u][0] @ reps[a.u][1]) ** 2) + \
                np.sum((reps[a.v][0] @ reps[a.v][1]) ** 2)
            assert abs(a.cost - b.cost) <= 1e-12 * max(1.0, norms)
            assert (a.rank, a.degenerate) == (b.rank, b.degenerate)


class TestMapsForChosenEdgesOnly:
    def counting(self, monkeypatch):
        """Count the pairs the batched Procrustes kernel solves, through
        either module's binding of it."""
        solved = []
        original = align._procrustes

        def counted(A, norms):
            solved.append(len(A))
            return original(A, norms)

        monkeypatch.setattr(align, "_procrustes", counted)
        monkeypatch.setattr(infer, "_procrustes", counted)
        return solved

    def test_maps_solved_only_for_selected_edges(self, rng, monkeypatch):
        solved = self.counting(monkeypatch)
        reps = mixed_reps(rng)
        cands = enumerate_candidates(reps)
        assert sum(solved) == 0
        selection = select_topology(cands, 40)
        sheaf = build_sheaf(selection)
        assert sum(solved) == 40
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            F, _ = procrustes_align(*reps[u], *reps[v])
            assert np.array_equal(sheaf.maps[e, 0], F)
            assert np.array_equal(sheaf.maps[e, 1], np.eye(6))

    def test_baseline_solves_no_map(self, rng, monkeypatch):
        solved = self.counting(monkeypatch)
        build_sheaf(select_topology(enumerate_candidates(mixed_reps(rng), "baseline"), 30))
        assert sum(solved) == 0

    @pytest.mark.parametrize("E0", [13, 21])
    def test_maps_solved_in_slices_equal_one_pair_solves(self, rng, monkeypatch, E0):
        # slices of 4 with a partial last one; E0 = 21 keeps every pair,
        # including the 11 degenerate ones of the empty-support node 2 and
        # of node 5, whose tiny cross products are not exactly zero
        monkeypatch.setattr(infer, "EDGE_CHUNK", 4)
        reps = random_reps(rng, 7, 5)
        reps[2] = (np.zeros((5, 0)), np.zeros((0, 8)))
        reps[5] = (reps[5][0], 1e-16 * reps[5][1])
        cands = enumerate_candidates(reps)
        sheaf = build_sheaf(select_topology(cands, E0))
        assert sheaf.edge_count == E0
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            F, ref = procrustes_align(*reps[u], *reps[v])
            assert np.array_equal(sheaf.maps[e, 0], F)
            assert ref.degenerate == cands.degenerate[e] == bool({2, 5} & {u, v})
            if ref.degenerate:
                assert np.array_equal(sheaf.maps[e, 0], np.eye(5))
        assert 0 < cands.degenerate[:E0].sum() <= 11 == cands.degenerate.sum()

    def test_baseline_costs_equal_unaligned_distance(self, rng):
        reps = mixed_reps(rng)
        for c in enumerate_candidates(reps, mode="baseline"):
            assert c.cost == unaligned_distance(*reps[c.u], *reps[c.v])

    def test_candidates_without_source_rejected(self):
        with pytest.raises(ValueError, match="representations"):
            build_sheaf(select_topology(candidate_table({(0, 1): 1.0}), 1))


class TestInputValidation:
    @pytest.mark.parametrize("mode", ["aligned", "baseline"])
    def test_non_finite_coefficients_name_the_node(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[2][1][1, 3] = np.nan
        with pytest.raises(ValueError, match="node 2"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", ["aligned", "baseline"])
    def test_non_finite_basis_names_the_node(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[1] = (np.full((3, 3), np.inf), reps[1][1])
        with pytest.raises(ValueError, match="node 1"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", ["aligned", "baseline"])
    def test_ambient_dimension_mismatch(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[3] = (np.eye(4), rng.standard_normal((4, 8)))
        with pytest.raises(ValueError, match="node 3"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", ["aligned", "baseline"])
    def test_snapshot_count_mismatch(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[2] = (np.eye(3), rng.standard_normal((3, 9)))
        with pytest.raises(ValueError, match="node 2"):
            enumerate_candidates(reps, mode=mode)
