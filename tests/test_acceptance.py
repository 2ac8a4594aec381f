"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    Dictionary,
    SweepSpec,
    assemble_laplacian,
    block_sparse_code,
    constant_sheaf,
    procrustes_align,
    run_cluster_experiment,
    run_tv_sweep,
    select_topology,
    total_variation,
)
from sheaflearn.cli import main as cli_main
from conftest import candidate_table, random_orthonormal, random_sheaf


@contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        print(f"\n[acceptance {n}] FAIL - {desc}")
        raise
    print(f"\n[acceptance {n}] PASS - {desc}")


def random_instance(rng):
    d = int(rng.integers(2, 9))
    n = int(rng.integers(4, 65))
    return rng.standard_normal((d, n)), rng.standard_normal((d, n)), d


def test_criterion_1_procrustes_optimality():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    with criterion(1, "aligned cost beats 100 random orthogonal maps, 200 instances"):
        for _ in range(200):
            Xu, Xv, d = random_instance(rng)
            F, _ = procrustes_align(np.eye(d), Xu, np.eye(d), Xv)
            achieved = float(np.sum((F @ Xu - Xv) ** 2))
            Q, _ = np.linalg.qr(rng.standard_normal((100, d, d)))
            rivals = np.sum((Q @ Xu - Xv) ** 2, axis=(1, 2))
            assert achieved <= rivals.min() + 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_trace_identity():
    rng = np.random.default_rng(1002)
    with criterion(2, "achieved trace equals the singular value sum, 200 instances"):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            du, dv = int(rng.integers(1, d + 1)), int(rng.integers(1, d + 1))
            n = int(rng.integers(4, 65))
            Du = random_orthonormal(rng, d)[:, :du]
            Dv = random_orthonormal(rng, d)[:, :dv]
            Su = rng.standard_normal((du, n))
            Sv = rng.standard_normal((dv, n))
            F, _ = procrustes_align(Du, Su, Dv, Sv)
            A = Du @ Su @ Sv.T @ Dv.T
            sigma_sum = float(np.sum(np.linalg.svd(A, compute_uv=False)))
            achieved = float(np.trace(F @ A))
            assert abs(achieved - sigma_sum) <= 1e-9 * max(1.0, sigma_sum)


def test_criterion_3_angle_grid_oracle():
    rng = np.random.default_rng(1003)
    theta = np.linspace(0.0, 2.0 * np.pi, 10 ** 6, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    with criterion(3, "2x2 aligned cost matches a 1e6-point O(2) scan, 50 instances"):
        for _ in range(50):
            Xu = rng.standard_normal((2, int(rng.integers(3, 17))))
            Xv = rng.standard_normal((2, Xu.shape[1]))
            _, cand = procrustes_align(np.eye(2), Xu, np.eye(2), Xv)
            A = Xu @ Xv.T
            t_rot = c * (A[0, 0] + A[1, 1]) + s * (A[1, 0] - A[0, 1])
            t_ref = c * (A[0, 0] - A[1, 1]) + s * (A[0, 1] + A[1, 0])
            brute = float(np.sum(Xu * Xu) + np.sum(Xv * Xv)
                          - 2.0 * max(t_rot.max(), t_ref.max()))
            assert abs(cand.cost - brute) <= 1e-6


def test_criterion_4_laplacian_algebra():
    rng = np.random.default_rng(1004)
    with criterion(4, "Laplacian factorization, PSD, constant-sheaf and TV identities"):
        for _ in range(100):
            v = int(rng.integers(2, 13))
            d = int(rng.integers(1, 7))
            e = int(rng.integers(1, v * (v - 1) // 2 + 1))
            sheaf = random_sheaf(rng, v, d, e)
            L = assemble_laplacian(sheaf)
            scale = max(np.linalg.norm(L.matrix), 1.0)
            assert np.max(np.abs(L.matrix - L.incidence @ L.incidence.T)) <= 1e-12 * scale
            eigvals = np.linalg.eigvalsh(L.matrix)
            assert eigvals[0] >= -1e-9 * max(eigvals[-1], 1.0)

            # constant sheaf on the same topology == combinatorial Laplacian
            Lc = assemble_laplacian(constant_sheaf(v, sheaf.edges, dim=1)).matrix
            expect = np.zeros((v, v))
            for u, w in sheaf.edges:
                expect[u, u] += 1
                expect[w, w] += 1
                expect[u, w] -= 1
                expect[w, u] -= 1
            assert np.array_equal(Lc, expect)

            # TV quadratic form == per-edge Frobenius sum
            X = rng.standard_normal((v * d, 4))
            blocks = [X[u * d:(u + 1) * d] for u in range(v)]
            edge_sum = sum(
                float(np.sum((sheaf.maps[e, 0] @ blocks[u] - sheaf.maps[e, 1] @ blocks[w]) ** 2))
                for e, (u, w) in enumerate(sheaf.edges)
            )
            assert abs(total_variation(L, X) - edge_sum) <= 1e-9 * max(1.0, edge_sum)


def test_criterion_5_greedy_exactness():
    with criterion(5, "sorted-prefix selection matches exhaustive subset search, V <= 6"):
        seed = 0
        for v in range(2, 7):
            for _ in range(10):
                rng = np.random.default_rng(2000 + seed)
                seed += 1
                pairs = list(combinations(range(v), 2))
                by_pair = dict(zip(pairs, (rng.random(len(pairs)) * 10).tolist()))
                cands = candidate_table(by_pair)
                for e0 in range(len(pairs) + 1):
                    greedy = select_topology(cands, e0).total_cost
                    brute = min(
                        (sum(by_pair[p] for p in sub) for sub in combinations(pairs, e0)),
                        default=0.0,
                    ) if e0 else 0.0
                    assert abs(greedy - brute) <= 1e-12


def test_criterion_6_tv_sweep_reproduction():
    with criterion(6, "aligned TV curve below baseline at every default sweep point"):
        t0 = time.perf_counter()
        report = run_tv_sweep(SweepSpec(seed=2024))
        elapsed = time.perf_counter() - t0
        tv = {(r.mode, r.alpha, r.snr_db, r.e0): r.total_variation for r in report.rows}
        points = {k[1:] for k in tv}
        assert points, "empty sweep"
        for key in points:
            assert tv[("aligned", *key)] <= tv[("baseline", *key)] + 1e-9
        e0_max = max(k[2] for k in points)
        assert e0_max == 120  # complete graph on 16 nodes
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_7_cluster_reproduction():
    with criterion(7, "aligned intra-cluster fraction beats baseline on >= 18/20 seeds"):
        wins = 0
        for seed in range(20):
            report, _, _ = run_cluster_experiment(seed)
            rows = {r.mode: r for r in report.rows}
            if rows["aligned"].intra_cluster_fraction > rows["baseline"].intra_cluster_fraction:
                wins += 1
            assert 40 <= rows["aligned"].connect_min <= 80
        assert wins >= 18, f"aligned won only {wins}/20 seeds"


def denoise_problems():
    """Criterion 8's 20 random l2,1 problems, each with its ISTA code, then
    the generator they were drawn from."""
    rng = np.random.default_rng(1008)
    problems = []
    for _ in range(20):
        d = int(rng.integers(3, 6))
        k = int(rng.integers(3, 7))
        n = int(rng.integers(3, 8))
        alpha = float(rng.uniform(0.1, 1.5))
        D = Dictionary(rng.standard_normal((d, k)))
        X = rng.standard_normal((d, n))
        code = block_sparse_code(
            X, D, DenoiseConfig(alpha=alpha, rel_tol=1e-14, max_iters=200_000))
        problems.append((X, D, alpha, code))
    return problems, rng


def test_criterion_8_denoiser_descent_and_least_squares():
    # the checks of criterion 8 that need no convex solver
    problems, rng = denoise_problems()
    with criterion(8, "ISTA descends monotonically; alpha = 0 is exact least squares"):
        for _, _, _, code in problems:
            trace = np.array(code.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] + 1e-12)

        # alpha = 0 with a complete orthonormal dictionary is exact least squares
        Q = random_orthonormal(rng, 6)
        X = rng.standard_normal((6, 9))
        code = block_sparse_code(X, Dictionary(Q, orthonormal=True),
                                 DenoiseConfig(alpha=0.0))
        assert np.max(np.abs(code.coefficients - Q.T @ X)) <= 1e-9


def test_criterion_8_denoiser_optimality():
    cvxpy = pytest.importorskip("cvxpy")
    problems, _ = denoise_problems()
    with criterion(8, "l2,1 objective matches a high-precision convex oracle"):
        for X, D, alpha, code in problems:
            k, n = D.atoms.shape[1], X.shape[1]
            S = cvxpy.Variable((k, n))
            problem = cvxpy.Problem(cvxpy.Minimize(
                cvxpy.sum_squares(X - D.atoms @ S)
                + alpha * cvxpy.sum(cvxpy.norm(S, axis=1))))
            problem.solve(solver=cvxpy.CLARABEL)
            assert abs(code.objective - problem.value) <= 1e-6 * max(1.0, abs(problem.value))


def test_criterion_9_cli_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "node_count": 5, "ambient_dim": 8, "dims": 3, "snapshots": 16,
        "rho": 0.5, "snr_db": 20.0, "seed": 9,
    }))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "alpha_grid": [0.5], "snr_grid": [20.0], "e0_grid": [0, 3, 6],
        "seed": 9, "node_count": 5, "ambient_dim": 8, "dims": 3, "snapshots": 16,
    }))
    cluster_cfg = tmp_path / "cluster.json"
    cluster_cfg.write_text(json.dumps({"snapshots": 64}))

    def dir_bytes(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    with criterion(9, "every CLI subcommand is byte-identical across reruns"):
        for tag in ("a", "b"):
            base = tmp_path / tag
            assert cli_main(["generate", "--config", str(gen_cfg),
                             "--out", str(base / "data")]) == 0
            assert cli_main(["denoise", "--data", str(base / "data"),
                             "--out", str(base / "codes")]) == 0
            assert cli_main(["infer", "--data", str(base / "codes"),
                             "--out", str(base / "inferred")]) == 0
            assert cli_main(["sweep", "--config", str(sweep_cfg),
                             "--out", str(base / "sweep")]) == 0
            assert cli_main(["cluster", "--config", str(cluster_cfg), "--seed", "9",
                             "--out", str(base / "cluster")]) == 0
            assert cli_main(["export", "--sheaf", str(base / "inferred" / "sheaf.json"),
                             "--out", str(base / "export"),
                             "--formats", "graphml,dot,csv"]) == 0
        for sub in ("data", "codes", "inferred", "sweep", "cluster", "export"):
            assert dir_bytes(tmp_path / "a" / sub) == dir_bytes(tmp_path / "b" / sub), sub
