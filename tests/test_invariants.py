"""The paper's invariances as oracles of the whole scoring and selection
path: what the learned topology may and may not depend on.

Each rig codes a small seeded dataset the way the pipeline does
(``generate_dataset``, then ``code_dataset``), transforms the nodes'
compact forms (local basis, coefficients) and scores both versions.
"""

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    SynthConfig,
    assemble_laplacian,
    build_sheaf,
    code_dataset,
    enumerate_candidates,
    generate_dataset,
    global_section_dim,
    select_topology,
    total_variation,
)
from sheaflearn.infer import MODES
from conftest import random_orthonormal

SEEDS = (0, 1, 7)


def coded_reps(seed, node_count=10, d=12):
    """The (local basis, compact coefficients) of every node of a seeded
    dataset, coded as the pipeline codes it."""
    dataset = generate_dataset(SynthConfig(node_count=node_count, ambient_dim=d,
                                           dims=("uniform", 3, 6), snapshots=64, seed=seed))
    return [(c.local_basis, c.compact_coeffs) for c in code_dataset(dataset, DenoiseConfig())]


def costs_by_pair(cands):
    return dict(zip(zip(cands.u.tolist(), cands.v.tolist()), cands.cost.tolist()))


def learned(cands, e0):
    """TV of the node signals X_u = D_u S_u on the sheaf learned at E0, and
    its h0."""
    lap = assemble_laplacian(build_sheaf(select_topology(cands, e0)))
    signals = np.concatenate([b @ s for b, s in cands.reps])
    return total_variation(lap, signals), global_section_dim(lap)


@pytest.mark.parametrize("seed", SEEDS)
def test_per_node_rotations_leave_aligned_scores_unchanged(seed):
    # X_u -> R_u X_u with an independent orthogonal R_u per node: the
    # aligned cost sees only the singular values of X_u X_v^T
    reps = coded_reps(seed)
    rng = np.random.default_rng(seed)
    rotated = [(random_orthonormal(rng, b.shape[0]) @ b, s) for b, s in reps]
    before, after = (enumerate_candidates(r, mode="aligned") for r in (reps, rotated))
    scale = max(1.0, before.cost.max())
    assert np.max(np.abs(after.cost - before.cost)) <= 1e-12 * scale
    assert np.array_equal(after.u, before.u) and np.array_equal(after.v, before.v)
    assert after.connected_at == before.connected_at
    for e0 in (before.connected_at, before.connected_at + 5):
        (tv_before, h0_before), (tv_after, h0_after) = learned(before, e0), learned(after, e0)
        assert abs(tv_after - tv_before) <= 1e-12 * max(1.0, tv_before)
        assert h0_after == h0_before
    # the plain distance is not invariant: the baseline scores move
    plain = [costs_by_pair(enumerate_candidates(r, mode="baseline")) for r in (reps, rotated)]
    assert max(abs(plain[0][p] - plain[1][p]) for p in plain[0]) > 1e-3 * scale


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_relabeling_the_nodes_relabels_the_selection(seed, mode):
    reps = coded_reps(seed)
    perm = np.random.default_rng(seed).permutation(len(reps))  # new node i is old perm[i]
    before = enumerate_candidates(reps, mode=mode)
    after = enumerate_candidates([reps[i] for i in perm], mode=mode)
    assert after.connected_at == before.connected_at
    e0 = before.connected_at + 5
    relabeled = [tuple(sorted((int(perm[a]), int(perm[b]))))
                 for a, b in select_topology(after, e0).selected]
    assert relabeled == list(select_topology(before, e0).selected)
    old = costs_by_pair(before)
    for (a, b), cost in costs_by_pair(after).items():
        expect = old[tuple(sorted((int(perm[a]), int(perm[b]))))]
        assert abs(cost - expect) <= 1e-12 * max(1.0, expect)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_doubling_the_signals_quadruples_the_costs(seed, mode):
    reps = coded_reps(seed)
    before = enumerate_candidates(reps, mode=mode)
    after = enumerate_candidates([(b, 2.0 * s) for b, s in reps], mode=mode)
    assert np.array_equal(after.u, before.u) and np.array_equal(after.v, before.v)
    assert np.max(np.abs(after.cost - 4.0 * before.cost)) <= 1e-12 * max(1.0, 4.0 * before.cost.max())


@pytest.mark.parametrize("seed", SEEDS)
def test_a_rotated_copy_is_the_cheapest_pair(seed):
    # X_v = R X_u: the aligned cost ||X_u||^2 + ||X_v||^2 - 2 sum(sigma)
    # cancels to rounding, is clamped at 0 and keeps this pair first
    reps = coded_reps(seed)
    rng = np.random.default_rng(seed)
    u, v = 2, 6
    b, s = reps[u]
    reps[v] = (random_orthonormal(rng, b.shape[0]) @ b, s)
    cands = enumerate_candidates(reps, mode="aligned")
    x = b @ s
    scale = 2.0 * float(np.sum(x * x))
    cost = costs_by_pair(cands)[(u, v)]
    assert 0.0 <= cost <= 1e-12 * scale
    assert (int(cands.u[0]), int(cands.v[0])) == (u, v)
    assert select_topology(cands, 1).selected == ((u, v),)
