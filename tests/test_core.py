import numpy as np
import pytest

from sheaflearn import (
    Cochain0,
    RestrictionMap,
    Sheaf,
    SheafStructureError,
    assemble_incidence,
    assemble_laplacian,
    coboundary_apply,
    constant_sheaf,
    global_section_dim,
    make_sheaf,
    total_variation,
)
from conftest import random_orthonormal, random_sheaf


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
    edges, maps = [], []
    for e, ((u, v), (fu, fv)) in enumerate(zip(base.edges, base.maps)):
        if flip[e]:
            u, v, fu, fv = v, u, fv, fu
        edges.append((u, v))
        maps.append((RestrictionMap(fu.matrix, u, e), RestrictionMap(fv.matrix, v, e)))
    return Sheaf(base.stalks, tuple(edges), tuple(maps))


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
                np.sum((fu.matrix @ blocks[u] - fv.matrix @ blocks[v]) ** 2)
                for (u, v), (fu, fv) in zip(sh.edges, sh.maps)
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
