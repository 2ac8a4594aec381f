import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import sheaflearn.core
from sheaflearn import (
    Cochain0,
    DenoiseConfig,
    Dictionary,
    Sheaf,
    SheafStructureError,
    SynthConfig,
    assemble_incidence,
    assemble_laplacian,
    build_sheaf,
    coboundary_apply,
    code_dataset,
    constant_sheaf,
    enumerate_candidates,
    generate_dataset,
    global_section_dim,
    make_sheaf,
    select_topology,
    total_variation,
)
from conftest import assert_runs, random_edges, random_orthonormal, random_sheaf


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def oriented_sheaf(rng, node_count, dim, edge_count):
    """Random sheaf built with Sheaf(...) directly, bypassing make_sheaf's
    min -> max orientation: each edge is flipped to tail > head at random,
    the first one always."""
    base = random_sheaf(rng, node_count, dim, edge_count)
    flip = rng.random(base.edge_count) < 0.5
    flip[:1] = True
    edges, maps = base.edges.copy(), base.maps.copy()
    edges[flip] = edges[flip, ::-1]
    maps[flip] = maps[flip, ::-1]
    return Sheaf(base.node_count, base.ambient_dim, edges, maps)


def larger_sheaves(rng):
    """Random sheaves up to V = 24 and d = 8, densities up to every pair
    (so past one total_variation chunk of edges), in both constructions."""
    out = [random_sheaf(rng, 24, 8, 24 * 23 // 2), oriented_sheaf(rng, 24, 8, 24 * 23 // 2)]
    for _ in range(20):
        n, d = int(rng.integers(2, 25)), int(rng.integers(1, 9))
        e = int(rng.integers(1, n * (n - 1) // 2 + 1))
        out.append(random_sheaf(rng, n, d, e))
        out.append(oriented_sheaf(rng, n, d, e))
    return out


def dense_section_count(L, tol=1e-8):
    """dim ker L from the dense eigensolve: eigenvalues below tol * lambda_max,
    every dimension for the zero operator."""
    eigvals = np.linalg.eigvalsh(L.matrix)
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if lam_max <= 0.0:
        return L.dim
    return int(np.count_nonzero(eigvals < tol * lam_max))


def planted_sheaf(rng, node_count, dim, edges, shared):
    """Sheaf with F_{e,u} = R_e diag(I_shared, P_{e,u}) Q_u^T for random
    orthonormal R_e, P_{e,u}, Q_u: x_u = Q_u [a; 0] is a section for every
    a in R^shared, so each component with a cycle has h0 = shared (generic P)
    and each tree component h0 = dim. shared = dim is the gauge-planted case."""
    Q = [random_orthonormal(rng, dim) for _ in range(node_count)]

    def side(u, R):
        P = np.eye(dim)
        if shared < dim:
            P[shared:, shared:] = random_orthonormal(rng, dim - shared)
        return R @ P @ Q[u].T

    maps = []
    for u, v in edges:
        R = random_orthonormal(rng, dim)
        maps.append((side(u, R), side(v, R)))
    return make_sheaf(node_count, dim, edges, maps)


def random_forest(rng, node_count, tree_count):
    """Edges of a random forest: in a random node order, each node after the
    first ``tree_count`` joins an earlier one with probability 0.8, so there
    are at least ``tree_count`` trees, isolated nodes counted."""
    order = rng.permutation(node_count)
    edges = []
    for i in range(tree_count, node_count):
        if rng.random() < 0.8:
            j = int(order[rng.integers(0, i)])
            edges.append((min(j, int(order[i])), max(j, int(order[i]))))
    return edges


def learned_candidates():
    """Aligned candidates of a small learned dataset (V = 8, d = 16)."""
    data = generate_dataset(SynthConfig(node_count=8, ambient_dim=16, dims=("uniform", 2, 6),
                                        snapshots=64, seed=0))
    codes = code_dataset(data, DenoiseConfig(alpha=4.0))
    return enumerate_candidates([(c.local_basis, c.compact_coeffs) for c in codes])


def per_edge_blocks(sheaf, X):
    """F_tail x_tail - F_head x_head, one edge at a time, for the node
    blocks of a (V*d) x N signal."""
    d = sheaf.ambient_dim
    xb = X.reshape(sheaf.node_count, d, -1)
    return [sheaf.maps[e, 0] @ xb[t] - sheaf.maps[e, 1] @ xb[h]
            for e, (t, h) in enumerate(sheaf.edges.tolist())]


def graph_laplacian(node_count, edges):
    L = np.zeros((node_count, node_count), dtype=int)
    for u, v in edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    return L


class TestIncidence:
    def test_single_edge_scalar(self):
        sh = constant_sheaf(2, [(0, 1)], dim=1)
        B = assemble_incidence(sh)
        assert np.array_equal(B, np.array([[-1.0], [1.0]]))

    def test_empty_edge_set(self):
        sh = make_sheaf(3, 2, [], [])
        B = assemble_incidence(sh)
        assert B.shape == (6, 0)

    def test_path_constant_sheaf_is_kron(self):
        sh = constant_sheaf(3, [(0, 1), (1, 2)], dim=2)
        B = assemble_incidence(sh)
        B_graph = np.array([[-1, 0], [1, -1], [0, 1]], dtype=float)
        assert np.array_equal(B, np.kron(B_graph, np.eye(2)))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(SheafStructureError):
            make_sheaf(2, 3, [(0, 1)], [(np.eye(2), np.eye(2))])

    def test_constant_sheaf_takes_any_iterable_of_pairs(self):
        pairs = [(0, 1), (2, 1), (1, 3)]
        sheaves = [constant_sheaf(4, edges, dim=2)
                   for edges in ((pair for pair in pairs), pairs, np.array(pairs))]
        for sh in sheaves:
            assert sh.edges.tolist() == [[0, 1], [1, 2], [1, 3]]
            assert np.array_equal(sh.maps, np.broadcast_to(np.eye(2), (3, 2, 2, 2)))


class TestBroadcastMaps:
    """A stack of one identity broadcast to (E, 2, d, d) is stored as given."""

    def test_constant_sheaf_stores_one_identity(self, rng):
        # 2000 edges at d = 32 would take a 33 MB stack; a third are given
        # max -> min, which make_sheaf orients without copying the maps
        V, d, N = 200, 32, 3
        edges = [(v, u) if rng.random() < 1 / 3 else (u, v)
                 for u, v in random_edges(rng, V, 2000)]
        tracemalloc.start()
        try:
            sh = constant_sheaf(V, edges, dim=d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert sh.maps.strides[:2] == (0, 0)
        X = rng.standard_normal((V * d, N))
        Xb = X.reshape(V, d, N)
        expected = float(np.sum((Xb[sh.edges[:, 0]] - Xb[sh.edges[:, 1]]) ** 2))
        tv = total_variation(assemble_laplacian(sh), X)
        assert abs(tv - expected) <= 1e-12 * expected

    def test_make_sheaf_orients_a_broadcast_stack(self, rng):
        edges = [(0, 1), (3, 1), (2, 0), (2, 3)]
        maps = np.broadcast_to(np.eye(3), (4, 2, 3, 3))
        sh = make_sheaf(4, 3, edges, maps)
        assert sh.edges.tolist() == [[0, 1], [1, 3], [0, 2], [2, 3]]
        assert np.array_equal(sh.maps, maps)
        assert sh.maps.strides[:2] == (0, 0)
        # a stack whose sides differ is still swapped with its edge
        F = rotation(0.3)
        one_side = np.broadcast_to(np.stack((F, np.eye(2))), (2, 2, 2, 2))
        sh = make_sheaf(3, 2, [(1, 0), (1, 2)], one_side)
        assert np.array_equal(sh.maps[0], [np.eye(2), F])
        assert np.array_equal(sh.maps[1], [F, np.eye(2)])

    def test_float64_stack_kept_in_place(self):
        # signed permutations, exact in float32 too
        P = np.eye(3)[[2, 0, 1]] * [1, -1, 1]
        maps = np.stack([np.stack((P, np.eye(3))), np.stack((P.T, P))])
        strided = np.empty((2, 2, 3, 6))[..., ::2]
        strided[...] = maps
        for given in (maps, strided):
            sh = Sheaf(3, 3, np.array([[0, 1], [1, 2]]), given)
            assert np.shares_memory(sh.maps, given) and sh.maps.strides == given.strides
            assert given.flags.writeable and not sh.maps.flags.writeable
        for copied in (maps.astype(np.float32), maps.tolist()):
            sh = Sheaf(3, 3, np.array([[0, 1], [1, 2]]), copied)
            assert sh.maps.dtype == np.float64 and not np.shares_memory(sh.maps, copied)


class TestLaplacian:
    def test_constant_sheaf_equals_graph_laplacian(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sh = random_sheaf(rng, n, 1, int(rng.integers(1, n * (n - 1) // 2 + 1)))
            const = constant_sheaf(n, sh.edges, dim=1)
            L = assemble_laplacian(const)
            assert np.array_equal(L.matrix, graph_laplacian(n, sh.edges).astype(float))

    def test_single_edge_rotation_blocks(self):
        F = rotation(np.pi / 2)
        sh = make_sheaf(2, 2, [(0, 1)], [(F, np.eye(2))])
        L = assemble_laplacian(sh).matrix
        assert np.allclose(L[:2, :2], np.eye(2))
        assert np.allclose(L[2:, 2:], np.eye(2))
        assert np.allclose(L[:2, 2:], -F.T)

    def test_random_sheaf_psd(self, rng):
        # dense symmetric eigensolve oracle
        sh = random_sheaf(rng, 5, 3, 6)
        L = assemble_laplacian(sh)
        eigvals = np.linalg.eigvalsh(L.matrix)
        assert eigvals[0] >= -1e-9 * max(eigvals[-1], 1.0)

    def test_factorization_and_symmetry(self, rng):
        # B B^T from the loop-built incidence is the oracle for the block scatter
        sheaves = [random_sheaf(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), 4)
                   for _ in range(20)]
        for sh in sheaves + larger_sheaves(rng):
            L = assemble_laplacian(sh)
            scale = np.linalg.norm(L.matrix)
            assert np.max(np.abs(L.matrix - L.incidence @ L.incidence.T)) <= 1e-12 * max(scale, 1.0)
            assert np.allclose(L.matrix, L.matrix.T, atol=1e-12 * max(scale, 1.0))

    def test_edgeless_sheaf_is_zero(self, rng):
        sh = make_sheaf(3, 2, [], [])
        L = assemble_laplacian(sh)
        assert np.array_equal(L.matrix, np.zeros((6, 6)))
        assert total_variation(L, rng.standard_normal((6, 4))) == 0.0
        assert coboundary_apply(sh, Cochain0(tuple(np.ones((2, 4)) for _ in range(3)))) == []

    def test_orientation_invariance(self, rng):
        edges = [(0, 1), (1, 2), (0, 3)]
        maps = [(random_orthonormal(rng, 2), random_orthonormal(rng, 2)) for _ in edges]
        L1 = assemble_laplacian(make_sheaf(4, 2, edges, maps)).matrix
        flipped = [(v, u) for u, v in edges]
        swapped = [(fv, fu) for fu, fv in maps]
        L2 = assemble_laplacian(make_sheaf(4, 2, flipped, swapped)).matrix
        assert np.max(np.abs(L1 - L2)) <= 1e-12 * max(np.linalg.norm(L1), 1.0)


class TestStructureValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(SheafStructureError):
            make_sheaf(2, 1, [(0, 0)], [(np.eye(1), np.eye(1))])

    def test_duplicate_pair_rejected(self):
        eye = np.eye(1)
        with pytest.raises(SheafStructureError):
            make_sheaf(2, 1, [(0, 1), (1, 0)], [(eye, eye), (eye, eye)])

    def test_non_orthonormal_map_rejected(self):
        with pytest.raises(SheafStructureError):
            make_sheaf(2, 2, [(0, 1)], [(2 * np.eye(2), np.eye(2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_rejected(self, bad):
        with pytest.raises(SheafStructureError, match="non-finite"):
            make_sheaf(2, 2, [(0, 1)], [(np.full((2, 2), bad), np.eye(2))])
        one_entry = np.eye(2)
        one_entry[1, 0] = bad
        with pytest.raises(SheafStructureError, match="non-finite"):
            make_sheaf(2, 2, [(0, 1)], [(np.eye(2), one_entry)])


@pytest.mark.parametrize("scale, accepted", [(1 + 4e-11, True), (1 + 1e-9, False)])
def test_maps_and_dictionaries_share_the_orthonormality_test(scale, accepted):
    # max |A^T A - I| = scale^2 - 1: 8e-11 inside ORTHO_TOL = 1e-9, 2e-9 outside
    A = scale * rotation(0.3)
    try:
        make_sheaf(2, 2, [(0, 1)], [(A, np.eye(2))])
        map_accepted = True
    except ValueError:
        map_accepted = False
    assert [map_accepted, Dictionary(A).orthonormal] == [accepted, accepted]


def test_sheaf_is_its_graph_and_maps():
    # no per-node dimension and no section-count threshold to set
    edges, maps = np.array([(0, 1)]), np.broadcast_to(np.eye(2), (1, 2, 2, 2))
    assert [f.name for f in dataclasses.fields(Sheaf)] == ["node_count", "ambient_dim",
                                                           "edges", "maps"]
    with pytest.raises(TypeError, match="per_node_dim"):
        make_sheaf(2, 2, edges, maps, per_node_dim=(2, 2))
    with pytest.raises(TypeError, match="positional"):
        Sheaf(2, 2, (2, 2), edges, maps)
    with pytest.raises(TypeError, match="tol"):
        global_section_dim(assemble_laplacian(make_sheaf(2, 2, edges, maps)), tol=1e-8)


def tiny_dataset():
    return generate_dataset(SynthConfig(node_count=3, ambient_dim=4, dims=2, snapshots=8,
                                        seed=0))


@pytest.mark.parametrize("build", [
    lambda: Cochain0([np.eye(2), np.eye(2)]),
    lambda: Dictionary(np.eye(3)),
    lambda: code_dataset(tiny_dataset(), DenoiseConfig())[0],
    lambda: tiny_dataset().nodes[0],
    tiny_dataset,
], ids=["Cochain0", "Dictionary", "SparseCode", "NodeData", "Dataset"])
def test_array_holders_compare_by_identity(build):
    # two objects built from equal arrays: == answers without comparing the
    # arrays, and every object equals itself and hashes
    a, b = build(), build()
    assert (a == b) is False and (a != b) is True
    assert a == a and hash(a) == hash(a)


class TestArrayValidation:
    """Sheaf(...) built straight from an edge array and a map stack."""

    @staticmethod
    def arrays(node_count, dim):
        edges = np.array([(u, v) for u in range(node_count) for v in range(u + 1, node_count)])
        maps = np.broadcast_to(np.eye(dim), (len(edges), 2, dim, dim)).copy()
        return edges, maps

    def build(self, node_count, dim, edges, maps):
        return Sheaf(node_count, dim, edges, maps)

    def test_valid_arrays_stored_read_only(self):
        edges, maps = self.arrays(4, 3)
        sh = self.build(4, 3, edges, maps)
        assert sh.edges.shape == (6, 2) and sh.maps.shape == (6, 2, 3, 3)
        assert not sh.edges.flags.writeable and not sh.maps.flags.writeable
        assert maps.flags.writeable  # the caller's array is left alone

    def test_length_mismatch(self):
        edges, maps = self.arrays(4, 3)
        with pytest.raises(SheafStructureError, match="one map pair"):
            self.build(4, 3, edges, maps[:-1])
        with pytest.raises(SheafStructureError, match="one map pair"):
            self.build(4, 3, edges[:-1], maps)

    def test_non_square_map(self):
        edges, _ = self.arrays(3, 2)
        with pytest.raises(SheafStructureError, match="square"):
            self.build(3, 2, edges, np.zeros((3, 2, 2, 3)))

    def test_wrong_map_shape(self):
        edges, maps = self.arrays(3, 2)
        with pytest.raises(SheafStructureError, match="expected"):
            self.build(3, 3, edges, maps)
        with pytest.raises(SheafStructureError, match="expected"):
            self.build(3, 2, edges, maps[:, :1])
        with pytest.raises(SheafStructureError, match="expected"):
            self.build(3, 2, edges[:, :1], maps)

    @pytest.mark.parametrize("edges", [[0, 1, 1, 2], [(0, 1, 2)]])
    def test_edges_that_are_not_pairs_rejected(self, edges):
        maps = self.arrays(3, 1)[1][:2]
        match = re.escape(f"edges have shape {np.shape(edges)}, expected (E, 2)")
        with pytest.raises(SheafStructureError, match=match):
            make_sheaf(3, 1, edges, maps)
        with pytest.raises(SheafStructureError, match=match):
            self.build(3, 1, edges, maps)

    def test_non_positive_node_count_rejected(self):
        with pytest.raises(SheafStructureError, match="node_count and ambient_dim must be positive"):
            Sheaf(0, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2, 2)))

    @pytest.mark.parametrize("edge", [(0, 1.5), (0.0, 1.0), (0, None), (0, "1"), (0, True)])
    def test_non_integer_node_index_rejected(self, edge):
        maps = self.arrays(3, 1)[1][:2]
        edges = [(1, 2), edge]
        match = re.escape(f"edge 1 is {edge!r}: node indices must be integers")
        with pytest.raises(SheafStructureError, match=match):
            make_sheaf(3, 1, edges, maps)
        with pytest.raises(SheafStructureError, match=match):
            self.build(3, 1, edges, maps)

    @pytest.mark.parametrize("edges, bad", [([(0, 1), (2,)], 1), ([(0, 1, 2), (1, 2)], 0),
                                            ([(0, 1), (1, [2, 0])], 1)])
    def test_ragged_edges_named(self, edges, bad):
        maps = self.arrays(3, 1)[1][:2]
        match = re.escape(f"edge {bad} is {edges[bad]!r}, expected a (tail, head) pair")
        with pytest.raises(SheafStructureError, match=match):
            make_sheaf(3, 1, edges, maps)
        with pytest.raises(SheafStructureError, match=match):
            self.build(3, 1, edges, maps)

    @pytest.mark.parametrize("sizes, name", [((3.0, 1), "node_count"),
                                             ((3, 1.0), "ambient_dim")])
    def test_non_integer_sizes_rejected(self, sizes, name):
        node_count, dim = sizes
        maps = self.arrays(3, 1)[1][:1]
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            make_sheaf(node_count, dim, [(0, 1)], maps)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            Sheaf(node_count, dim, [(0, 1)], maps)

    def test_sizes_stored_as_int(self):
        maps = self.arrays(3, 1)[1][:1]
        sh = make_sheaf(np.int64(3), np.int64(1), [(0, 1)], maps)
        assert all(type(k) is int for k in (sh.node_count, sh.ambient_dim))

    def test_ragged_pairs(self):
        with pytest.raises(SheafStructureError, match="shape"):
            make_sheaf(2, 2, [(0, 1)], [(np.eye(2), np.eye(3))])

    @pytest.mark.parametrize("bad_edge", [(0, 4), (-1, 2), (5, 1)])
    def test_out_of_range_node(self, bad_edge):
        edges, maps = self.arrays(4, 2)
        edges[3] = bad_edge
        with pytest.raises(SheafStructureError, match="edge 3 references an unknown node"):
            self.build(4, 2, edges, maps)

    def test_self_loop_and_duplicate(self):
        edges, maps = self.arrays(4, 2)
        edges[2] = (3, 3)
        with pytest.raises(SheafStructureError, match="edge 2 is a self-loop"):
            self.build(4, 2, edges, maps)
        edges[2] = (1, 0)
        with pytest.raises(SheafStructureError, match=r"\(0, 1\) appears more than once"):
            self.build(4, 2, edges, maps)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", ["scaled", "nan", "inf", "tilted"])
    def test_bad_map_past_first_chunk_named(self, rng, side, bad):
        # the complete graph on 24 nodes has 276 edges: edge 200's maps,
        # 400 and 401 in the check's order, lie past its first EDGE_CHUNK batch
        edges, _ = self.arrays(24, 3)
        assert len(edges) == 276
        maps = np.stack([random_orthonormal(rng, 3) for _ in range(2 * 276)]).reshape(276, 2, 3, 3)
        self.build(24, 3, edges, maps)
        F = maps[200, side]
        if bad == "scaled":
            F *= 1 + 1e-6
        elif bad == "tilted":
            F[0, 1] += 1e-8  # error 1e-8 > ORTHO_TOL = 1e-9
        else:
            F[1, 2] = np.nan if bad == "nan" else np.inf
        what = "is not orthonormal" if bad in ("scaled", "tilted") else "has non-finite entries"
        node = edges[200, side]
        with pytest.raises(SheafStructureError,
                           match=f"map at node {node} on edge 200 {what}"):
            self.build(24, 3, edges, maps)

    @pytest.mark.parametrize("bad", ["scaled", "nan", "tilted"])
    def test_bad_tail_among_identity_heads_named(self, rng, bad):
        # every head is bit for bit I, so the check skips it and tests the
        # tails only: edge 200's tail is past the first EDGE_CHUNK of them
        edges, maps = self.arrays(24, 3)
        maps[:, 0] = [random_orthonormal(rng, 3) for _ in range(len(edges))]
        assert sheaflearn.core.EDGE_CHUNK < 200
        self.build(24, 3, edges, maps)
        F = maps[200, 0]
        if bad == "scaled":
            F *= 1 + 1e-6
        elif bad == "tilted":
            F[0, 1] += 1e-8
        else:
            F[1, 2] = np.nan
        what = "is not orthonormal" if bad != "nan" else "has non-finite entries"
        with pytest.raises(SheafStructureError,
                           match=f"map at node {edges[200, 0]} on edge 200 {what}"):
            self.build(24, 3, edges, maps)

    def test_only_exact_identities_skip_the_check(self, rng):
        # a head one entry of 1e-8 away from I is not skipped, and fails
        edges, maps = self.arrays(24, 3)
        maps[:, 0] = [random_orthonormal(rng, 3) for _ in range(len(edges))]
        maps[200, 1, 2, 0] = 1e-8
        with pytest.raises(SheafStructureError,
                           match=f"map at node {edges[200, 1]} on edge 200 is not orthonormal"):
            self.build(24, 3, edges, maps)

    def test_float32_maps_named_in_the_message(self, rng):
        # float32 moves a random QR map by about 1e-7, far above ORTHO_TOL
        edges, maps = self.arrays(4, 3)
        maps[:, 0] = [random_orthonormal(rng, 3) for _ in range(len(edges))]
        self.build(4, 3, edges, maps)
        with pytest.raises(SheafStructureError,
                           match=r"map at node 0 on edge 0 is not orthonormal: the maps were "
                                 r"given as float32, whose rounding \(1\.2e-07\) exceeds "
                                 r"ORTHO_TOL = 1e-09$"):
            self.build(4, 3, edges, maps.astype(np.float32))
        # signed permutations are exact in float32, so they still pass
        maps[:, 0] = np.eye(3)[[2, 0, 1]] * [1, -1, 1]
        sh = self.build(4, 3, edges, maps.astype(np.float32))
        assert sh.maps.dtype == np.float64 and np.array_equal(sh.maps, maps)

    @pytest.mark.parametrize("edge", [(0, 1), (1, 0)])
    def test_make_sheaf_names_float32_maps_as_sheaf_does(self, rng, edge):
        # a map pair given as a list of float32 arrays, swapped with its edge or not
        Q, I32 = random_orthonormal(rng, 4).astype(np.float32), np.eye(4, dtype=np.float32)
        node = edge[0]  # Q belongs to the first node of the pair as given
        with pytest.raises(SheafStructureError,
                           match=rf"map at node {node} on edge 0 is not orthonormal: the maps "
                                 r"were given as float32, whose rounding \(1\.2e-07\) exceeds "
                                 r"ORTHO_TOL = 1e-09$"):
            make_sheaf(2, 4, [edge], [(Q, I32)])
        sh = make_sheaf(2, 4, [edge], [(I32[[1, 0, 3, 2]], I32)])
        assert sh.maps.dtype == np.float64

    def test_make_sheaf_orients_min_to_max(self, rng):
        F, G = random_orthonormal(rng, 2), random_orthonormal(rng, 2)
        sh = make_sheaf(3, 2, [(0, 1), (2, 1)], [(np.eye(2), np.eye(2)), (F, G)])
        assert sh.edges.tolist() == [[0, 1], [1, 2]]
        assert np.array_equal(sh.maps[1, 0], G) and np.array_equal(sh.maps[1, 1], F)


class TestCoboundary:
    def test_global_section_maps_to_zero(self):
        sh = constant_sheaf(2, [(0, 1)], dim=2)
        x = Cochain0((np.ones((2, 3)), np.ones((2, 3))))
        blocks = coboundary_apply(sh, x)
        assert np.allclose(blocks[0], 0.0)

    def test_path_differences(self):
        sh = constant_sheaf(4, [(0, 1), (1, 2), (2, 3)], dim=1)
        x = Cochain0(tuple(np.array([[float(u)]]) for u in range(4)))
        blocks = coboundary_apply(sh, x)
        for b in blocks:
            assert abs(abs(b[0, 0]) - 1.0) < 1e-15

    def test_kernel_vectors_annihilated(self, rng):
        # kernel basis from the dense eigensolve (Hodge: H0 = ker L)
        sh = random_sheaf(rng, 4, 2, 3)
        L = assemble_laplacian(sh)
        eigvals, eigvecs = np.linalg.eigh(L.matrix)
        kernel = eigvecs[:, eigvals < 1e-10 * eigvals[-1]]
        if kernel.shape[1] == 0:
            pytest.skip("no kernel for this draw")
        d = sh.ambient_dim
        x = Cochain0(tuple(kernel[u * d:(u + 1) * d, :] for u in range(sh.node_count)))
        for b in coboundary_apply(sh, x):
            assert np.linalg.norm(b) <= 1e-8

    def test_shape_mismatch(self):
        sh = constant_sheaf(2, [(0, 1)], dim=2)
        with pytest.raises(SheafStructureError):
            coboundary_apply(sh, Cochain0((np.ones((3, 1)), np.ones((3, 1)))))


class TestTotalVariation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        L = assemble_laplacian(constant_sheaf(2, [(0, 1)], dim=2))
        with pytest.raises(SheafStructureError, match="non-finite"):
            total_variation(L, np.full((4, 3), bad))
        X = np.ones((4, 3))
        X[2, 1] = bad
        with pytest.raises(SheafStructureError, match="non-finite"):
            total_variation(L, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cochain_rejected(self, bad):
        with pytest.raises(SheafStructureError, match="non-finite"):
            Cochain0((np.array([[bad]]),))
        with pytest.raises(SheafStructureError, match="non-finite"):
            Cochain0((np.ones((2, 2)), np.array([[1.0, bad], [0.0, 0.0]])))

    def test_vector_is_one_snapshot(self):
        sh = constant_sheaf(3, [(0, 1), (1, 2)], dim=2)
        L = assemble_laplacian(sh)
        x = np.arange(6.0)
        assert total_variation(L, x) == total_variation(L, x[:, None]) == x @ L.matrix @ x == 16.0
        blocks = coboundary_apply(sh, x)
        assert [b.tolist() for b in blocks] == [[[-2.0], [-2.0]], [[-2.0], [-2.0]]]
        for wrong in (np.arange(5.0), np.arange(7.0), np.arange(6.0).reshape(1, 6),
                      np.arange(12.0).reshape(6, 1, 2)):
            with pytest.raises(SheafStructureError):
                total_variation(L, wrong)
            with pytest.raises(SheafStructureError):
                coboundary_apply(sh, wrong)
        x[3] = np.nan
        with pytest.raises(SheafStructureError, match="non-finite"):
            coboundary_apply(sh, x)

    def test_cochain_must_fit_the_sheaf(self):
        sh = constant_sheaf(3, [(0, 1), (1, 2)], dim=2)
        L = assemble_laplacian(sh)
        for blocks in ([np.ones((2, 1))] * 2, [np.ones((2, 1))] * 4,
                       [np.ones((2, 1)), np.ones((3, 1)), np.ones((1, 1))]):
            with pytest.raises(SheafStructureError, match="do not fit"):
                total_variation(L, Cochain0(tuple(blocks)))
            with pytest.raises(SheafStructureError, match="do not fit"):
                coboundary_apply(sh, Cochain0(tuple(blocks)))

    def test_cochain_needs_blocks_of_one_snapshot_count(self):
        with pytest.raises(SheafStructureError, match="at least one block"):
            Cochain0(())
        with pytest.raises(SheafStructureError, match="share the snapshot count"):
            Cochain0((np.ones((2, 3)), np.ones((2, 4))))

    def test_global_section_zero(self):
        sh = constant_sheaf(3, [(0, 1), (1, 2)], dim=1)
        L = assemble_laplacian(sh)
        x = np.ones((3, 4))
        assert total_variation(L, x) <= 1e-9

    def test_hand_computed_single_edge(self):
        sh = constant_sheaf(2, [(0, 1)], dim=1)
        L = assemble_laplacian(sh)
        assert abs(total_variation(L, np.array([[0.0], [1.0]])) - 1.0) < 1e-12

    def test_matches_edge_sum_oracle(self, rng):
        # independent per-edge Frobenius sum, straight from the maps
        for _ in range(100):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            sh = random_sheaf(rng, n, d, int(rng.integers(1, n * (n - 1) // 2 + 1)))
            L = assemble_laplacian(sh)
            X = rng.standard_normal((n * d, 5))
            blocks = [X[u * d:(u + 1) * d] for u in range(n)]
            oracle = sum(
                np.sum((sh.maps[e, 0] @ blocks[u] - sh.maps[e, 1] @ blocks[v]) ** 2)
                for e, (u, v) in enumerate(sh.edges)
            )
            tv = total_variation(L, X)
            assert abs(tv - oracle) <= 1e-9 * max(1.0, oracle)
            assert tv >= 0.0

    def test_edgewise_matches_incidence(self, rng):
        # dense B^T X oracle for the chunked edge-wise sum and the coboundary
        for sh in larger_sheaves(rng):
            L = assemble_laplacian(sh)
            X = rng.standard_normal((L.dim, int(rng.integers(1, 7))))
            BtX = L.incidence.T @ X
            oracle = np.sum(BtX ** 2)
            assert abs(total_variation(L, X) - oracle) <= 1e-12 * oracle
            d = sh.ambient_dim
            x = Cochain0(tuple(X[u * d:(u + 1) * d] for u in range(sh.node_count)))
            cob = np.concatenate(coboundary_apply(sh, x))
            assert np.max(np.abs(cob + BtX)) <= 1e-12 * max(np.max(np.abs(BtX)), 1.0)


class TestTailRuns:
    """The run kernel behind coboundary_apply, total_variation and
    global_section_dim: one product per tail run, equal bit for bit to the
    per-edge products."""

    @staticmethod
    def interleaved_sheaf(rng):
        """Every pair of 9 nodes in a random (cost-like) order, so the tails
        interleave; heads alternate between I and a random map."""
        edges = random_edges(rng, 9, 36)
        order = rng.permutation(len(edges))
        edges = [edges[i] for i in order]
        maps = [(random_orthonormal(rng, 4), np.eye(4) if i % 2 else random_orthonormal(rng, 4))
                for i in range(len(edges))]
        return make_sheaf(9, 4, edges, maps)

    @staticmethod
    def mixed_head_run(rng):
        """One tail with seven edges whose heads mix I and random maps."""
        maps = [(random_orthonormal(rng, 3), np.eye(3) if h in (2, 3, 6) else
                 random_orthonormal(rng, 3)) for h in range(1, 8)]
        return make_sheaf(8, 3, [(0, h) for h in range(1, 8)], maps)

    @staticmethod
    def mixed_heads_at_learn_dimension(rng):
        """d = 64, the learned sheaves' dimension: 10 nodes and 30 edges whose
        heads mix I and random maps within each tail's run."""
        edges = random_edges(rng, 10, 30)
        maps = [(random_orthonormal(rng, 64), random_orthonormal(rng, 64) if i % 3 else np.eye(64))
                for i in range(len(edges))]
        return make_sheaf(10, 64, edges, maps)

    def cases(self, rng):
        learned = build_sheaf(select_topology(learned_candidates(), 20))
        return {
            "interleaved tails in cost order": self.interleaved_sheaf(rng),
            "tail above head": oriented_sheaf(rng, 10, 3, 30),
            "mixed identity and non-identity heads": self.mixed_head_run(rng),
            "mixed heads at d = 64": self.mixed_heads_at_learn_dimension(rng),
            "learned": learned,
            "edgeless": make_sheaf(4, 3, [], []),
        }

    @pytest.mark.parametrize("chunk", [128, 3])
    @pytest.mark.parametrize("snapshots", [1, 5])
    def test_blocks_equal_per_edge_products(self, rng, monkeypatch, chunk, snapshots):
        # chunk 3 cuts the runs of up to 8 edges into several pieces
        monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", chunk)
        for name, sh in self.cases(rng).items():
            X = rng.standard_normal((sh.node_count * sh.ambient_dim, snapshots))
            blocks, oracle = coboundary_apply(sh, X), per_edge_blocks(sh, X)
            assert len(blocks) == len(oracle) == sh.edge_count, name
            for b, o in zip(blocks, oracle):
                assert np.array_equal(b, o), name
            tv = total_variation(assemble_laplacian(sh), X)
            edge_sum = sum(float(np.vdot(o, o)) for o in oracle)
            assert abs(tv - edge_sum) <= 1e-12 * edge_sum, name

    @pytest.mark.parametrize("chunk", [128, 3])
    def test_blocks_outlive_the_run_buffer(self, rng, monkeypatch, chunk):
        # every run is written into one reused buffer: the returned blocks
        # still equal the per-edge products and share no memory
        monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", chunk)
        for name, sh in self.cases(rng).items():
            X = rng.standard_normal((sh.node_count * sh.ambient_dim, 3))
            blocks = coboundary_apply(sh, X)
            for b, o in zip(blocks, per_edge_blocks(sh, X)):
                assert np.array_equal(b, o), name
            for i, b in enumerate(blocks):
                assert not any(np.shares_memory(b, c) for c in blocks[i + 1:]), name

    @pytest.mark.parametrize("snapshots", [1, 5])
    def test_cochain_equals_its_array(self, rng, snapshots):
        # a Cochain0's blocks are read in place, with the array's bits
        for name, sh in self.cases(rng).items():
            d = sh.ambient_dim
            X = rng.standard_normal((sh.node_count * d, snapshots))
            x = Cochain0(tuple(X[u * d:(u + 1) * d] for u in range(sh.node_count)))
            L = assemble_laplacian(sh)
            assert repr(total_variation(L, x)) == repr(total_variation(L, X)), name
            for b, c in zip(coboundary_apply(sh, x), coboundary_apply(sh, X)):
                assert np.array_equal(b, c), name

    def test_total_variation_holds_one_run_at_a_time(self, rng):
        # each tail is in at most 4 edges, so one run's blocks are a twelfth
        # of the (V, d, N) signal: the traced peak stays below half of it
        V, d, N = 48, 16, 256
        edges = [(u, u + j) for u in range(V) for j in range(1, 5) if u + j < V]
        maps = [(random_orthonormal(rng, d), np.eye(d) if e % 2 else random_orthonormal(rng, d))
                for e in range(len(edges))]
        L = assemble_laplacian(make_sheaf(V, d, edges, maps))
        x = Cochain0(tuple(rng.standard_normal((d, N)) for _ in range(V)))
        tracemalloc.start()
        try:
            total_variation(L, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < V * d * N * 8 / 2

    def test_runs_cover_every_edge_once(self, rng, monkeypatch):
        monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", 4)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            sh = oriented_sheaf(rng, n, 1, int(rng.integers(1, n * (n - 1) // 2 + 1)))
            tails = sh.edges[:, 0]
            runs = sheaflearn.core._runs(tails)
            assert_runs(runs, tails, 4)
            # one run per tail unless the chunk cuts it
            counts = np.bincount(tails)
            assert len(runs) == int(np.sum(-(-counts // 4)))
        assert sheaflearn.core._runs(np.zeros(0, np.intp)) == []


class TestGlobalSectionDim:
    def test_connected_constant_sheaf(self):
        sh = constant_sheaf(4, [(0, 1), (1, 2), (2, 3)], dim=1)
        assert global_section_dim(assemble_laplacian(sh)) == 1

    def test_components_counted(self):
        sh = constant_sheaf(5, [(0, 1), (2, 3)], dim=1)  # 3 components
        assert global_section_dim(assemble_laplacian(sh)) == 3

    def test_half_turn_edge_matches_eigensolve(self):
        F = rotation(np.pi)  # = -I
        sh = make_sheaf(2, 2, [(0, 1)], [(F, np.eye(2))])
        L = assemble_laplacian(sh)
        eigvals = np.linalg.eigvalsh(L.matrix)
        oracle = int(np.count_nonzero(eigvals < 1e-8 * eigvals[-1]))
        assert global_section_dim(L) == oracle

    def test_edgeless_sheaf(self):
        sh = make_sheaf(3, 2, [], [])
        assert global_section_dim(assemble_laplacian(sh)) == 6

    def assert_matches_eigensolve(self, sh, expected=None):
        L = assemble_laplacian(sh)
        count = global_section_dim(L)
        assert "matrix" not in vars(L)
        assert count == dense_section_count(L)
        if expected is not None:
            assert count == expected

    def test_random_maps_match_eigensolve(self, rng):
        for _ in range(60):
            n, d = int(rng.integers(1, 14)), int(rng.integers(1, 6))
            e = int(rng.integers(0, n * (n - 1) // 2 + 1))
            self.assert_matches_eigensolve(random_sheaf(rng, n, d, e))

    def test_planted_sections_match_eigensolve(self, rng):
        for shared_of in (lambda d: d, lambda d: int(rng.integers(0, d + 1))):
            for _ in range(40):
                n, d = int(rng.integers(1, 14)), int(rng.integers(1, 6))
                edges = random_edges(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
                self.assert_matches_eigensolve(planted_sheaf(rng, n, d, edges, shared_of(d)))

    def test_planted_cycle_counts(self, rng):
        # a 5-cycle with a chord: one component with cycles
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        # (shared = 3 is left out: its 1-dimensional complement is a sign
        # sheaf, which has a section whenever every cycle's sign product is +1)
        for shared in (0, 1, 2, 4):
            self.assert_matches_eigensolve(planted_sheaf(rng, 5, 4, edges, shared), shared)
        # gauge-planted on two cyclic components plus an isolated node
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        self.assert_matches_eigensolve(planted_sheaf(rng, 8, 3, edges, 3), 3 * 3)

    def test_count_is_independent_of_the_tree(self, rng):
        # the walk follows edge-index order, so permuting the edges (maps
        # along) changes its tree; the transported frames change with it,
        # the count must not
        def bfs_tree(node_count, edges):
            adjacency = [[] for _ in range(node_count)]
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
            seen, tree = set(), set()
            for root in range(node_count):
                if root in seen:
                    continue
                seen.add(root)
                queue = [root]
                for p in queue:
                    for c in adjacency[p]:
                        if c not in seen:
                            seen.add(c)
                            tree.add((min(p, c), max(p, c)))
                            queue.append(c)
            return frozenset(tree)

        cycle_chord = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        two_cycles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        cases = [(planted_sheaf(rng, 5, 4, cycle_chord, shared), shared)
                 for shared in (0, 1, 2, 4)]
        cases.append((planted_sheaf(rng, 8, 3, two_cycles, 3), 3 * 3))
        for sh, expected in cases:
            trees = set()
            for _ in range(8):
                perm = rng.permutation(sh.edge_count)
                edges = sh.edges[perm]
                trees.add(bfs_tree(sh.node_count, edges.tolist()))
                self.assert_matches_eigensolve(
                    make_sheaf(sh.node_count, sh.ambient_dim, edges, sh.maps[perm]), expected)
            assert len(trees) > 1

    def test_deep_walk_on_a_long_cycle(self, rng):
        # a 300-node cycle: the walk reaches depth 150 from the root, and
        # the gauge-planted section must survive 150 transport steps
        n = 300
        edges = [(u, u + 1) for u in range(n - 1)] + [(0, n - 1)]
        self.assert_matches_eigensolve(planted_sheaf(rng, n, 3, edges, 3), 3)

    def test_forests_and_isolated_nodes(self, rng):
        for _ in range(30):
            n, d = int(rng.integers(1, 14)), int(rng.integers(1, 6))
            edges = random_forest(rng, n, int(rng.integers(1, n + 1)))
            maps = [(random_orthonormal(rng, d), random_orthonormal(rng, d)) for _ in edges]
            # a forest has V - E components and no cycle edges: each contributes d
            self.assert_matches_eigensolve(make_sheaf(n, d, edges, maps), d * (n - len(edges)))
        self.assert_matches_eigensolve(make_sheaf(1, 3, [], []), 3)
        self.assert_matches_eigensolve(make_sheaf(4, 2, [], []), 8)

    def test_nearly_orthonormal_maps_match_eigensolve(self, rng):
        # every map moved to max |F^T F - I| = 1e-10, inside ORTHO_TOL, so a
        # tree edge's constraint is about 1e-10 rather than rounding noise
        def perturbed(sh):
            N = rng.standard_normal(sh.maps.shape)
            err = np.abs(sh.maps.swapaxes(-1, -2) @ N + N.swapaxes(-1, -2) @ sh.maps)
            maps = sh.maps + 1e-10 / err.max(axis=(-1, -2), keepdims=True) * N
            out = make_sheaf(sh.node_count, sh.ambient_dim, sh.edges, maps)
            gram_err = np.abs(maps.swapaxes(-1, -2) @ maps - np.eye(sh.ambient_dim))
            assert np.all(np.abs(gram_err.max(axis=(-1, -2)) - 1e-10) <= 1e-11)
            return out

        for _ in range(30):
            n, d = int(rng.integers(2, 14)), int(rng.integers(1, 6))
            edges = random_forest(rng, n, int(rng.integers(1, n + 1)))
            maps = [(random_orthonormal(rng, d), random_orthonormal(rng, d)) for _ in edges]
            self.assert_matches_eigensolve(perturbed(make_sheaf(n, d, edges, maps)),
                                           d * (n - len(edges)))
            edges = random_edges(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
            self.assert_matches_eigensolve(
                perturbed(planted_sheaf(rng, n, d, edges, int(rng.integers(0, d + 1)))))
        # planted cycles: a 5-cycle with a chord, then two gauge-planted
        # cyclic components, a path and an isolated node
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        for shared in (0, 1, 2, 4):
            self.assert_matches_eigensolve(perturbed(planted_sheaf(rng, 5, 4, edges, shared)),
                                           shared)
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8)]
        self.assert_matches_eigensolve(perturbed(planted_sheaf(rng, 10, 3, edges, 3)), 4 * 3)

    def test_every_edge_constrains_through_the_coboundary_kernel(self, rng, monkeypatch):
        # every edge reaches the run kernel exactly once, in runs that share
        # a tail and are at most the (patched) chunk long
        runs = []
        splitter = sheaflearn.core._runs

        def recorded(tails):
            runs.extend(splitter(tails))
            return runs

        monkeypatch.setattr(sheaflearn.core, "_runs", recorded)
        monkeypatch.setattr(sheaflearn.core, "EDGE_CHUNK", 5)
        complete = random_sheaf(rng, 24, 3, 276)  # tail t has 23 - t edges
        forest = make_sheaf(5, 3, [(0, 1), (1, 2)], [(np.eye(3), np.eye(3))] * 2)
        # sum over k = 1..23 of ceil(k / 5) runs for the complete graph
        for sheaf, count in ((complete, 65), (forest, 2), (oriented_sheaf(rng, 12, 2, 40), None)):
            runs.clear()
            global_section_dim(assemble_laplacian(sheaf))
            assert_runs(runs, sheaf.edges[:, 0], 5)
            assert count is None or len(runs) == count

    def test_scalar_stalks(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 14))
            edges = random_edges(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
            signs = [(np.array([[rng.choice([-1.0, 1.0])]]), np.eye(1)) for _ in edges]
            self.assert_matches_eigensolve(make_sheaf(n, 1, edges, signs))
            self.assert_matches_eigensolve(constant_sheaf(n, edges, dim=1))

    def test_tail_above_head_orientation(self, rng):
        for _ in range(30):
            n, d = int(rng.integers(2, 14)), int(rng.integers(1, 6))
            e = int(rng.integers(1, n * (n - 1) // 2 + 1))
            sh = oriented_sheaf(rng, n, d, e)
            assert any(u > v for u, v in sh.edges)
            self.assert_matches_eigensolve(sh)

    def test_learned_sheaf_matches_eigensolve(self):
        cands = learned_candidates()
        for e0 in (7, 12, len(cands)):
            self.assert_matches_eigensolve(build_sheaf(select_topology(cands, e0)))


class TestLazyDense:
    def test_learn_path_never_builds_dense_laplacian(self, rng):
        sh = random_sheaf(rng, 9, 4, 20)
        L = assemble_laplacian(sh)
        total_variation(L, rng.standard_normal((L.dim, 3)))
        global_section_dim(L)
        assert "matrix" not in vars(L)
        assert L.dim == 9 * 4

    def test_matrix_built_once_on_read(self, rng):
        L = assemble_laplacian(random_sheaf(rng, 5, 3, 6))
        assert L.matrix is L.matrix
        assert "matrix" in vars(L)
