import numpy as np
import pytest

from sheaflearn import (
    aligned_distance,
    cross_covariance,
    procrustes_align,
    unaligned_distance,
)
from conftest import random_orthonormal


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestCrossCovariance:
    def test_single_snapshot_outer_product(self):
        e1 = np.array([[1.0], [0.0]])
        C = cross_covariance(e1, e1)
        assert np.array_equal(C, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_independent_streams_concentrate(self, rng):
        n = 10_000
        C = cross_covariance(rng.standard_normal((3, n)), rng.standard_normal((4, n)))
        assert np.max(np.abs(C)) <= 5.0 / np.sqrt(n)

    def test_linear_dependence(self, rng):
        S = rng.standard_normal((3, 20))
        C = cross_covariance(S, 2.5 * S)
        assert np.allclose(C, 2.5 * S @ S.T / 20)
        assert np.linalg.matrix_rank(C) <= 3

    def test_snapshot_mismatch(self, rng):
        with pytest.raises(ValueError):
            cross_covariance(rng.standard_normal((2, 5)), rng.standard_normal((2, 6)))


class TestProcrustes:
    def test_identical_data_cost_zero(self, rng):
        D = random_orthonormal(rng, 4)[:, :2]
        S = rng.standard_normal((2, 10))
        F, cand = procrustes_align(D, S, D, S)
        assert cand.cost <= 1e-9
        assert np.max(np.abs(F @ (D @ S) - D @ S)) <= 1e-8

    def test_planar_rotation_recovered(self, rng):
        theta = 0.7
        Xv = rng.standard_normal((2, 12))
        Xu = rotation(theta) @ Xv
        F, cand = procrustes_align(np.eye(2), Xu, np.eye(2), Xv)
        assert cand.cost <= 1e-9
        assert np.max(np.abs(F - rotation(-theta))) <= 1e-9

    def test_matches_angle_grid_oracle(self, rng):
        # brute force over rotations and reflections in O(2)
        theta = np.linspace(0, 2 * np.pi, 10 ** 5, endpoint=False)
        c, s = np.cos(theta), np.sin(theta)
        for _ in range(5):
            Xu = rng.standard_normal((2, 8))
            Xv = rng.standard_normal((2, 8))
            _, cand = procrustes_align(np.eye(2), Xu, np.eye(2), Xv)
            A = Xu @ Xv.T
            t_rot = c * (A[0, 0] + A[1, 1]) + s * (A[1, 0] - A[0, 1])
            t_ref = c * (A[0, 0] - A[1, 1]) + s * (A[0, 1] + A[1, 0])
            brute = np.sum(Xu * Xu) + np.sum(Xv * Xv) - 2 * max(t_rot.max(), t_ref.max())
            assert abs(cand.cost - brute) <= 1e-6

    def test_beats_random_orthogonal_maps(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            Xu = rng.standard_normal((d, 9))
            Xv = rng.standard_normal((d, 9))
            F, _ = procrustes_align(np.eye(d), Xu, np.eye(d), Xv)
            achieved = np.sum((F @ Xu - Xv) ** 2)
            for _ in range(100):
                Q = random_orthonormal(rng, d)
                assert achieved <= np.sum((Q @ Xu - Xv) ** 2) + 1e-9

    def test_trace_identity(self, rng):
        d = 4
        Du = random_orthonormal(rng, d)[:, :3]
        Dv = random_orthonormal(rng, d)[:, :2]
        Su = rng.standard_normal((3, 15))
        Sv = rng.standard_normal((2, 15))
        F, _ = procrustes_align(Du, Su, Dv, Sv)
        A = Du @ Su @ Sv.T @ Dv.T
        achieved = np.trace(F @ A)
        expected = np.sum(np.linalg.svd(A, compute_uv=False))
        assert abs(achieved - expected) <= 1e-9 * max(1.0, expected)

    def test_map_is_orthogonal(self, rng):
        d = 5
        F, _ = procrustes_align(np.eye(d), rng.standard_normal((d, 7)),
                                np.eye(d), rng.standard_normal((d, 7)))
        assert np.max(np.abs(F.T @ F - np.eye(d))) <= 1e-10

    def test_cost_formula(self, rng):
        d = 3
        Xu = rng.standard_normal((d, 6))
        Xv = rng.standard_normal((d, 6))
        _, cand = procrustes_align(np.eye(d), Xu, np.eye(d), Xv)
        expected = np.sum(Xu * Xu) + np.sum(Xv * Xv) - 2 * sum(cand.singular_values)
        assert abs(cand.cost - expected) <= 1e-9 * max(1.0, expected)
        assert list(cand.singular_values) == sorted(cand.singular_values, reverse=True)

    def test_degenerate_zero_cross_term(self, rng):
        Xv = rng.standard_normal((2, 3))
        F, cand = procrustes_align(np.eye(2), np.zeros((2, 3)), np.eye(2), Xv)
        assert cand.degenerate
        assert np.array_equal(F, np.eye(2))
        assert abs(cand.cost - np.sum(Xv * Xv)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            procrustes_align(np.eye(2), rng.standard_normal((2, 5)),
                             np.eye(3), rng.standard_normal((3, 5)))

    def test_snapshot_mismatch(self, rng):
        with pytest.raises(ValueError, match="node 1: 6 snapshots, node 0 has 5"):
            procrustes_align(np.eye(2), rng.standard_normal((2, 5)),
                             np.eye(2), rng.standard_normal((2, 6)))

    @pytest.mark.parametrize("case, match", [
        ("nan coefficient", "node 8: non-finite entries in its coefficients"),
        ("basis wider than coefficients", "node 3: basis has 3 columns but coefficients have 2 rows"),
        ("inf basis entry", "node 8: non-finite entries in its basis"),
    ])
    def test_bad_input_names_the_node(self, rng, case, match):
        D_u, S_u = np.eye(3), rng.standard_normal((3, 5))
        D_v, S_v = np.eye(3), rng.standard_normal((3, 5))
        if case == "nan coefficient":
            S_v[1, 2] = np.nan
        elif case == "basis wider than coefficients":
            S_u = S_u[:2]
        else:
            D_v[0, 1] = np.inf
        with pytest.raises(ValueError, match=match):
            procrustes_align(D_u, S_u, D_v, S_v, u=3, v=8)


class TestUnalignedDistance:
    @pytest.mark.parametrize("S_u, S_v, match", [
        (np.ones((3, 1)), np.zeros((3, 5)), "node 1: 5 snapshots, node 0 has 1"),
        (np.ones((3, 5)), np.array([[0.0] * 5, [0.0, np.nan, 0.0, 0.0, 0.0], [0.0] * 5]),
         "node 1: non-finite entries in its coefficients"),
    ], ids=["1 against 5 snapshots", "nan coefficient"])
    def test_bad_input_names_the_node(self, S_u, S_v, match):
        with pytest.raises(ValueError, match=match):
            unaligned_distance(np.eye(3), S_u, np.eye(3), S_v)


class TestAlignedDistance:
    def test_identical_zero(self, rng):
        X = rng.standard_normal((3, 8))
        assert aligned_distance(np.eye(3), X, np.eye(3), X) <= 1e-9

    def test_symmetry(self, rng):
        for _ in range(10):
            Xu = rng.standard_normal((4, 9))
            Xv = rng.standard_normal((4, 9))
            duv = aligned_distance(np.eye(4), Xu, np.eye(4), Xv)
            dvu = aligned_distance(np.eye(4), Xv, np.eye(4), Xu)
            assert abs(duv - dvu) <= 1e-9 * max(1.0, duv)

    def test_uncorrelated_streams(self):
        Xu = np.array([[1.0, 1.0], [0.0, 0.0]])
        Xv = np.zeros((2, 2))
        d = aligned_distance(np.eye(2), Xu, np.eye(2), Xv)
        assert abs(d - np.sum(Xu * Xu)) <= 1e-12

    def test_dictionary_invariance(self, rng):
        # with orthonormal square bases the cost depends only on (S_u, S_v)
        Su = rng.standard_normal((4, 20))
        Sv = rng.standard_normal((4, 20))
        costs = [
            aligned_distance(random_orthonormal(rng, 4), Su,
                             random_orthonormal(rng, 4), Sv)
            for _ in range(20)
        ]
        assert max(costs) - min(costs) <= 1e-8 * max(1.0, max(costs))

    def test_never_exceeds_unaligned(self, rng):
        for _ in range(20):
            Xu = rng.standard_normal((3, 7))
            Xv = rng.standard_normal((3, 7))
            assert aligned_distance(np.eye(3), Xu, np.eye(3), Xv) <= \
                unaligned_distance(np.eye(3), Xu, np.eye(3), Xv) + 1e-9
