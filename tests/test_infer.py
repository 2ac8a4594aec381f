from itertools import combinations

import numpy as np
import pytest

from sheaflearn import (
    Candidates,
    Cochain0,
    DenoiseConfig,
    SynthConfig,
    assemble_laplacian,
    build_sheaf,
    coboundary_apply,
    code_dataset,
    enumerate_candidates,
    generate_dataset,
    global_section_dim,
    make_sheaf,
    min_edges_for_connectivity,
    select_topology,
    total_variation,
)
import sheaflearn.align as align
import sheaflearn.core
import sheaflearn.infer as infer
from sheaflearn.infer import MODES
from sheaflearn.align import EdgeCandidate, procrustes_align, unaligned_distance
from sheaflearn.serialize import load_sheaf, matrix_to_csv, save_sheaf
from conftest import assert_runs, candidate_table, random_orthonormal


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


def record_runs(monkeypatch, chunk):
    """Cut ``core._runs`` at ``chunk`` edges and record every run that
    ``align``'s batched map solve takes from it, in call order."""
    runs = []
    splitter = align._runs

    def recorded(keys):
        cut = splitter(keys)
        runs.extend(cut)
        return cut

    monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", chunk)
    monkeypatch.setattr(align, "_runs", recorded)
    return runs


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

    def test_non_integer_e0_rejected(self, rng):
        cands = enumerate_candidates(random_reps(rng, 4, 2))
        with pytest.raises(TypeError, match=r"^E0 must be an integer, got 2\.5$"):
            select_topology(cands, 2.5)
        with pytest.raises(TypeError, match="E0 must be an integer"):
            select_topology(cands, np.float64(3.0))
        selection = select_topology(cands, np.int64(3))
        assert selection.E0 == 3 and type(selection.E0) is int
        assert selection.total_cost == float(np.sum(cands.cost[:3]))

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

    def test_baseline_maps_are_one_broadcast_identity(self, rng, tmp_path):
        # the broadcast stack against its contiguous twin: every reader of
        # sheaf.maps gives the same bits
        V, d = 7, 4
        reps = random_reps(rng, V, d)
        sheaf = build_sheaf(select_topology(enumerate_candidates(reps, "baseline"), 12))
        assert sheaf.maps.strides[:2] == (0, 0)
        twin = make_sheaf(V, d, sheaf.edges, np.ascontiguousarray(sheaf.maps))
        assert twin.maps.flags.c_contiguous and np.array_equal(twin.edges, sheaf.edges)
        x = Cochain0(tuple(b @ s for b, s in reps))
        L, L_twin = assemble_laplacian(sheaf), assemble_laplacian(twin)
        assert repr(total_variation(L, x)) == repr(total_variation(L_twin, x))
        for b, c in zip(coboundary_apply(sheaf, x), coboundary_apply(twin, x), strict=True):
            assert np.array_equal(b, c)
        assert global_section_dim(L) == global_section_dim(L_twin) == d
        assert np.array_equal(L.matrix, L_twin.matrix)
        B = L.incidence
        assert np.max(np.abs(L.matrix - B @ B.T)) <= 1e-12 * np.linalg.norm(L.matrix)
        for name, it in (("broadcast", sheaf), ("twin", twin)):
            save_sheaf(it, tmp_path / f"{name}.json")
            for e in range(it.edge_count):
                matrix_to_csv(it.maps[e, 0], tmp_path / f"{name}_{e}_tail.csv")
                matrix_to_csv(it.maps[e, 1], tmp_path / f"{name}_{e}_head.csv")
        for path in tmp_path.glob("twin*"):
            assert (tmp_path / path.name.replace("twin", "broadcast")).read_bytes() \
                == path.read_bytes(), path.name

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

    @pytest.mark.parametrize("mode", MODES)
    def test_make_sheaf_gets_an_integer_edge_array(self, rng, monkeypatch, mode):
        # build_sheaf hands its edges straight to Sheaf
        handed = []
        Sheaf = infer.Sheaf

        def spy(node_count, ambient_dim, edges, maps):
            handed.append(edges)
            return Sheaf(node_count, ambient_dim, edges, maps)

        monkeypatch.setattr(infer, "Sheaf", spy)
        selection = select_topology(enumerate_candidates(random_reps(rng, 5, 3), mode), 4)
        sheaf = build_sheaf(selection)
        (edges,) = handed
        assert isinstance(edges, np.ndarray) and edges.dtype == np.intp
        assert edges.tolist() == [list(pair) for pair in selection.selected]
        assert np.array_equal(sheaf.edges, edges)


class TestScoringMatchesProcrustes:
    """The batched Gram-block scores against one full SVD of the d x d cross
    product A = X_u X_v^T per pair, taken here with numpy."""

    def assert_matches(self, cands, reps):
        d = reps[0][0].shape[0]
        assert sorted(c.pair for c in cands) == list(combinations(range(len(reps)), 2))
        for c in cands:
            (Du, Su), (Dv, Sv) = reps[c.u], reps[c.v]
            X_u, X_v = Du @ Su, Dv @ Sv
            A = X_u @ X_v.T
            norms = np.sum(X_u ** 2) + np.sum(X_v ** 2)
            degenerate = np.linalg.norm(A) <= align.DEGENERATE_TOL * norms
            ref_sigma = np.zeros(d) if degenerate else np.linalg.svd(A, compute_uv=False)
            ref_cost = max(0.0, norms - 2.0 * np.sum(ref_sigma))
            ref_rank = int(np.sum(ref_sigma > align.RANK_RTOL * ref_sigma[0]))
            assert abs(c.cost - ref_cost) <= 1e-12 * max(1.0, norms)
            assert (c.rank, c.degenerate) == (ref_rank, degenerate)
            assert len(c.singular_values) == d
            m = min(d, Du.shape[1], Dv.shape[1])
            sigma = np.array(c.singular_values)
            assert np.all(np.abs(sigma[:m] - ref_sigma[:m]) <= 1e-12 * ref_sigma[0])
            assert np.all(sigma[m:] == 0.0)

    def test_mixed_bases(self, rng):
        reps = mixed_reps(rng)
        cands = enumerate_candidates(reps)
        self.assert_matches(cands, reps)
        assert any(c.degenerate for c in cands)
        assert all(c.degenerate == (4 in c.pair) for c in cands)

    def test_table_and_maps_do_not_depend_on_edge_chunk(self, monkeypatch):
        # the learn config at V = 64 (d = 64, N = 512): tail 0 has 63 heads,
        # so scoring in runs cut at EDGE_CHUNK pairs would move the last bits
        # of the costs and singular values; each tail is scored whole
        dataset = generate_dataset(SynthConfig(node_count=64, ambient_dim=64, snapshots=512,
                                               dims=("uniform", 8, 32), seed=1))
        reps = [(c.local_basis, c.compact_coeffs)
                for c in code_dataset(dataset, DenoiseConfig(alpha=4.0))]
        fields = ("u", "v", "cost", "rank", "degenerate", "sigma")
        results = []
        for chunk in (128, 32, 4):
            monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", chunk)
            cands = enumerate_candidates(reps)
            sheaf = build_sheaf(select_topology(cands, cands.connected_at))
            results.append(([getattr(cands, name) for name in fields], sheaf.maps))
        (columns, maps), *others = results
        assert len(columns[0]) == 2016 and len(maps) > 1000
        for other_columns, other_maps in others:
            for name, a, b in zip(fields, columns, other_columns):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert maps.tobytes() == other_maps.tobytes()

    @pytest.fixture(scope="class")
    def learn_v16(self):
        """The learn config at V = 16 (d = 64, N = 512, seed 1, alpha = 4): its
        node representations and their candidate table."""
        dataset = generate_dataset(SynthConfig(node_count=16, ambient_dim=64, snapshots=512,
                                               dims=("uniform", 8, 32), seed=1))
        reps = [(c.local_basis, c.compact_coeffs)
                for c in code_dataset(dataset, DenoiseConfig(alpha=4.0))]
        return reps, enumerate_candidates(reps)

    @pytest.mark.parametrize("c", [1e-8, 1e-10, 1e-12, 1e-60, 1e60])
    def test_degenerate_test_is_relative(self, learn_v16, c):
        # an absolute floor on ||X_u||^2 + ||X_v||^2 called all 120 pairs
        # degenerate at c = 1e-10; the relative test keeps the costs at c^2
        # times the unscaled costs, and so the table's order
        reps, plain = learn_v16
        scaled = enumerate_candidates([(b, c * s) for b, s in reps])
        assert len(plain) == 120 and not plain.degenerate.any()
        assert not scaled.degenerate.any()
        assert (scaled.u.tolist(), scaled.v.tolist()) == (plain.u.tolist(), plain.v.tolist())
        expected = c ** 2 * plain.cost
        assert np.all(np.abs(scaled.cost - expected) <= 8.3e-16 * expected)
        zero = enumerate_candidates([(b, 0.0 * s) for b, s in reps])
        assert zero.degenerate.all() and not zero.cost.any()

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
        """Count the pairs the batched Procrustes kernel solves."""
        solved = []
        original = align._procrustes

        def counted(M, Q_u, Q_v, norms):
            solved.append(len(M))
            return original(M, Q_u, Q_v, norms)

        monkeypatch.setattr(align, "_procrustes", counted)
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
        # runs cut at 4 edges (every pair has block size 5); E0 = 21 keeps
        # every pair, including the 11 degenerate ones of the empty-support
        # node 2 and of node 5, whose tiny cross products are not exactly zero
        reps = random_reps(rng, 7, 5)
        reps[2] = (np.zeros((5, 0)), np.zeros((0, 8)))
        reps[5] = (reps[5][0], 1e-16 * reps[5][1])
        cands = enumerate_candidates(reps)
        # installed after scoring, so only build_sheaf's runs are recorded
        runs = record_runs(monkeypatch, 4)
        sheaf = build_sheaf(select_topology(cands, E0))
        assert sheaf.edge_count == E0
        k = np.array([min(D.shape) for D, _ in reps])
        assert_runs(runs, np.maximum(1, k[sheaf.edges].max(axis=1)), 4)
        assert any(run.size == 4 for run in runs)
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            F, ref = procrustes_align(*reps[u], *reps[v])
            assert np.array_equal(sheaf.maps[e, 0], F)
            assert ref.degenerate == cands.degenerate[e] == bool({2, 5} & {u, v})
            if ref.degenerate:
                assert np.array_equal(sheaf.maps[e, 0], np.eye(5))
        assert 0 < cands.degenerate[:E0].sum() <= 11 == cands.degenerate.sum()

    def test_one_kernel_call_per_chunk_of_a_block_size(self, rng, monkeypatch):
        # every pair of mixed_reps, in 6 block sizes of 1 to 126 pairs: one
        # batch per EDGE_CHUNK-sized piece of each size, whatever the tails
        solved = self.counting(monkeypatch)
        reps = mixed_reps(rng)
        cands = enumerate_candidates(reps)
        sheaf = build_sheaf(select_topology(cands, len(cands)))
        k = np.array([min(D.shape) for D, _ in reps])
        counts = np.bincount(np.maximum(1, k[sheaf.edges].max(axis=1)))
        chunk = sheaflearn.core.EDGE_CHUNK
        assert np.count_nonzero(counts) >= 3 and counts.max() > chunk
        pieces = [min(chunk, n - lo) for n in counts.tolist() for lo in range(0, n, chunk)]
        assert sorted(solved) == sorted(pieces)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_edges_kept(self, rng, tmp_path, mode):
        reps = mixed_reps(rng)
        V, d = len(reps), reps[0][0].shape[0]
        sheaf = build_sheaf(select_topology(enumerate_candidates(reps, mode), 0))
        assert sheaf.edges.shape == (0, 2) and sheaf.maps.shape == (0, 2, d, d)
        save_sheaf(sheaf, tmp_path / "sheaf.json")
        loaded = load_sheaf(tmp_path / "sheaf.json")
        assert np.array_equal(loaded.edges, sheaf.edges)
        assert np.array_equal(loaded.maps, sheaf.maps)
        L = assemble_laplacian(loaded)
        assert global_section_dim(L) == V * d
        assert total_variation(L, rng.standard_normal((V * d, 3))) == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_every_support_empty(self, mode):
        # every basis is d x 0, so the compact blocks are clamped to one zero row
        V, d = 3, 4
        reps = [(np.zeros((d, 0)), np.zeros((0, 8))) for _ in range(V)]
        cands = enumerate_candidates(reps, mode)
        assert len(cands) == 3 and np.all(cands.cost == 0.0)
        if mode == "aligned":
            assert np.all(cands.degenerate) and np.all(cands.rank == 0)
            assert np.all(cands.sigma == 0.0) and cands.sigma.shape == (3, d)
        sheaf = build_sheaf(select_topology(cands, len(cands)))
        assert np.array_equal(sheaf.maps, np.broadcast_to(np.eye(d), (3, 2, d, d)))
        assert global_section_dim(assemble_laplacian(sheaf)) == d

    def test_baseline_costs_equal_unaligned_distance(self, rng):
        reps = mixed_reps(rng)
        for c in enumerate_candidates(reps, mode="baseline"):
            assert c.cost == unaligned_distance(*reps[c.u], *reps[c.v])

    def test_candidates_without_source_rejected(self):
        with pytest.raises(ValueError, match="representations"):
            build_sheaf(select_topology(candidate_table({(0, 1): 1.0}), 1))


def kernel_rig(rng, name):
    """The node representations the map tests run on: ``mixed_reps``; the
    identity bases of ``random_reps`` with an empty-support node (2) and a
    node scaled by 1e-16 (5); and identity-column bases on random supports,
    the shape of a denoised dataset."""
    if name == "mixed":
        return mixed_reps(rng)
    if name == "random":
        reps = random_reps(rng, 7, 5)
        reps[2] = (np.zeros((5, 0)), np.zeros((0, 8)))
        reps[5] = (reps[5][0], 1e-16 * reps[5][1])
        return reps
    d = 12
    supports = [np.sort(rng.choice(d, size=int(rng.integers(1, 7)), replace=False))
                for _ in range(9)]
    return [(np.eye(d)[:, sup], rng.standard_normal((sup.size, 10))) for sup in supports]


def complement(basis, rtol=1e-10):
    """An orthonormal basis of the orthogonal complement of span(basis)."""
    W, s, _ = np.linalg.svd(basis)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return W[:, rank:]


class TestMinimalRotationMaps:
    """Every kept edge's map, against oracles computed here from X_u = D_u S_u
    and A = X_u X_v^T with numpy alone."""

    RIGS = ["mixed", "random", "supports"]

    def learned(self, rng, rig):
        reps = kernel_rig(rng, rig)
        cands = enumerate_candidates(reps)
        sheaf = build_sheaf(select_topology(cands, len(cands)))
        X = [D @ S for D, S in reps]
        return reps, cands, sheaf, X

    @pytest.mark.parametrize("rig", RIGS)
    def test_residual_equals_cost(self, rng, rig):
        _, cands, sheaf, X = self.learned(rng, rig)
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            residual = np.sum((sheaf.maps[e, 0] @ X[u] - X[v]) ** 2)
            norms = np.sum(X[u] ** 2) + np.sum(X[v] ** 2)
            assert abs(residual - cands.cost[e]) <= 1e-9 * max(1.0, norms)

    @pytest.mark.parametrize("rig", RIGS)
    def test_trace_equals_nuclear_norm(self, rng, rig):
        _, _, sheaf, X = self.learned(rng, rig)
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            A = X[u] @ X[v].T
            expected = np.sum(np.linalg.svd(A, compute_uv=False))
            assert abs(np.trace(sheaf.maps[e, 0] @ A) - expected) <= 1e-9 * max(1.0, expected)

    @pytest.mark.parametrize("rig", RIGS)
    def test_identity_off_the_bases(self, rng, rig):
        reps, _, sheaf, _ = self.learned(rng, rig)
        d = reps[0][0].shape[0]
        off = 0
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            N = complement(np.hstack([reps[u][0], reps[v][0]]))
            assert np.max(np.abs(sheaf.maps[e, 0] @ N - N), initial=0.0) <= 1e-12
            off += N.shape[1]
        assert off > 0 or rig == "random"  # identity bases span everything
        if rig == "supports":  # F - I is exactly zero outside supp(u) + supp(v)
            for e, (u, v) in enumerate(sheaf.edges.tolist()):
                rows = np.flatnonzero(~np.any(np.hstack([reps[u][0], reps[v][0]]), axis=1))
                F = sheaf.maps[e, 0]
                assert np.array_equal(F[rows], np.eye(d)[rows])
                assert np.array_equal(F[:, rows], np.eye(d)[:, rows])

    @pytest.mark.parametrize("rig", RIGS)
    def test_any_valid_svd_gives_an_optimal_closest_map(self, rng, rig, monkeypatch):
        # An SVD may return any orthonormal basis of a repeated singular
        # value's subspace, and for the value 0 the left and right bases
        # independently. Turn every such basis at random: the maps may then
        # differ where a principal angle is exactly 90 degrees (the closest
        # map is not unique there), but each must stay orthogonal, optimal
        # and as close to I as the plain solve's.
        reps = kernel_rig(rng, rig)
        cands = enumerate_candidates(reps)
        plain = build_sheaf(select_topology(cands, len(cands)))
        svd = np.linalg.svd

        def turned_svd(a):
            U, s, Vt = svd(a)
            for p in range(len(s)):
                cuts = np.flatnonzero(np.diff(s[p]) < -1e-13 * s[p, 0]) + 1
                for group in np.split(np.arange(s.shape[1]), cuts):
                    R = random_orthonormal(rng, group.size)
                    U[p][:, group] = U[p][:, group] @ R
                    if s[p, group[0]] > 1e-13 * s[p, 0]:
                        Vt[p][group] = R.T @ Vt[p][group]
                    else:
                        Vt[p][group] = random_orthonormal(rng, group.size) @ Vt[p][group]
            return U, s, Vt

        monkeypatch.setattr(np.linalg, "svd", turned_svd)
        turned = build_sheaf(select_topology(cands, len(cands)))
        d = plain.ambient_dim
        X = [D @ S for D, S in reps]
        for e, (u, v) in enumerate(plain.edges.tolist()):
            F, G = plain.maps[e, 0], turned.maps[e, 0]
            assert np.max(np.abs(G.T @ G - np.eye(d))) <= 1e-12
            norms = np.sum(X[u] ** 2) + np.sum(X[v] ** 2)
            assert abs(np.sum((G @ X[u] - X[v]) ** 2) - np.sum((F @ X[u] - X[v]) ** 2)) \
                <= 1e-9 * max(1.0, norms)
            assert abs(np.linalg.norm(G - np.eye(d)) - np.linalg.norm(F - np.eye(d))) <= 1e-12

    @pytest.mark.parametrize("rig", RIGS)
    def test_closest_to_identity_among_optimal_maps(self, rng, rig):
        # F' = (P_V + G P_V⊥) F keeps F on the data's range; G rotates the
        # complement of the range's image V, at random or by a small angle
        _, _, sheaf, X = self.learned(rng, rig)
        d = sheaf.ambient_dim
        for e, (u, v) in enumerate(sheaf.edges.tolist()):
            F = sheaf.maps[e, 0]
            _, s, Vt = np.linalg.svd(X[u] @ X[v].T)
            r = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0 else 0
            V, N = Vt[:r].T, Vt[r:].T
            distance = np.linalg.norm(F - np.eye(d))
            for scale in (None, 1e-3, 0.1):
                m = d - r
                if scale is None:
                    G = random_orthonormal(rng, m)
                else:
                    K = scale * rng.standard_normal((m, m))
                    G = np.linalg.solve(np.eye(m) + (K - K.T), np.eye(m) - (K - K.T))
                turned = (V @ V.T + N @ G @ N.T) @ F
                assert distance <= np.linalg.norm(turned - np.eye(d)) + 1e-12


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
    def test_basis_columns_must_match_coefficient_rows(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[1] = (np.eye(3), rng.standard_normal((2, 8)))
        with pytest.raises(ValueError,
                           match="node 1: basis has 3 columns but coefficients have 2 rows"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", ["aligned", "baseline"])
    def test_snapshot_count_mismatch(self, rng, mode):
        reps = random_reps(rng, 4, 3)
        reps[2] = (np.eye(3), rng.standard_normal((3, 9)))
        with pytest.raises(ValueError, match="node 2"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_basis_without_rows_names_the_node(self, rng, mode):
        # a header-only basis CSV reads as 0 x k: no ambient dimension to map in
        reps = [(np.zeros((0, 2)), rng.standard_normal((2, 8))) for _ in range(3)]
        with pytest.raises(ValueError, match="node 0: basis has no rows"):
            enumerate_candidates(reps, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_coefficients_without_snapshots_name_the_node(self, mode):
        # an empty header over one empty line reads as a 1 x 0 coefficient CSV
        reps = [(np.eye(3)[:, :1], np.zeros((1, 0))) for _ in range(3)]
        with pytest.raises(ValueError, match="^node 0: coefficients have no snapshots$"):
            enumerate_candidates(reps, mode=mode)
