import numpy as np
import pytest

from sheaflearn import (
    Cochain0,
    DenoiseConfig,
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
from conftest import random_edges, random_orthonormal, random_sheaf


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
    return Sheaf(base.node_count, base.ambient_dim, base.per_node_dim, edges, maps)


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


class TestArrayValidation:
    """Sheaf(...) built straight from an edge array and a map stack."""

    @staticmethod
    def arrays(node_count, dim):
        edges = np.array([(u, v) for u in range(node_count) for v in range(u + 1, node_count)])
        maps = np.broadcast_to(np.eye(dim), (len(edges), 2, dim, dim)).copy()
        return edges, maps

    def build(self, node_count, dim, edges, maps):
        return Sheaf(node_count, dim, (dim,) * node_count, edges, maps)

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
        # the complete graph on 24 nodes has 276 edges: edge 200 is in the
        # second EDGE_CHUNK slice of the batched check
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

    def test_forests_and_isolated_nodes(self, rng):
        for _ in range(30):
            n, d = int(rng.integers(1, 14)), int(rng.integers(1, 6))
            edges = random_forest(rng, n, int(rng.integers(1, n + 1)))
            maps = [(random_orthonormal(rng, d), random_orthonormal(rng, d)) for _ in edges]
            # a forest has V - E components and no cycle edges: each contributes d
            self.assert_matches_eigensolve(make_sheaf(n, d, edges, maps), d * (n - len(edges)))
        self.assert_matches_eigensolve(make_sheaf(1, 3, [], []), 3)
        self.assert_matches_eigensolve(make_sheaf(4, 2, [], []), 8)

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
        data = generate_dataset(SynthConfig(node_count=8, ambient_dim=16, dims=("uniform", 2, 6),
                                            snapshots=64, seed=0))
        codes = code_dataset(data, DenoiseConfig(alpha=4.0))
        cands = enumerate_candidates([(c.local_basis, c.compact_coeffs) for c in codes])
        for e0 in (7, 12, len(cands)):
            self.assert_matches_eigensolve(build_sheaf(select_topology(cands, e0)))

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, np.nan])
    def test_tol_outside_unit_interval_rejected(self, tol):
        L = assemble_laplacian(constant_sheaf(3, [(0, 1), (1, 2), (0, 2)], dim=2))
        with pytest.raises(ValueError, match="tol"):
            global_section_dim(L, tol=tol)


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
