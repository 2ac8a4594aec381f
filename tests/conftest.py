import json
from pathlib import Path

import numpy as np
import pytest

from sheaflearn import Candidates, make_sheaf


def random_orthonormal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def random_edges(rng, node_count, edge_count):
    """``edge_count`` distinct node pairs (u < v), sorted, at most every pair."""
    pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
    idx = rng.choice(len(pairs), size=min(edge_count, len(pairs)), replace=False)
    return [pairs[i] for i in sorted(idx)]


def random_sheaf(rng, node_count, dim, edge_count):
    """Random topology with random orthonormal maps on both sides."""
    edges = random_edges(rng, node_count, edge_count)
    maps = [(random_orthonormal(rng, dim), random_orthonormal(rng, dim)) for _ in edges]
    return make_sheaf(node_count, dim, edges, maps)


def assert_runs(runs, keys, chunk):
    """``runs`` cover every index of ``keys`` exactly once, each shares one
    key and is at most ``chunk`` long."""
    assert np.array_equal(np.sort(np.concatenate(runs)), np.arange(len(keys)))
    for run in runs:
        assert 1 <= run.size <= chunk
        assert np.all(keys[run] == keys[run[0]])


def candidate_table(costs_by_pair):
    """A baseline-shaped table built straight from (u, v, cost) arrays, with
    no node representations."""
    u, v = np.array(list(costs_by_pair), dtype=np.intp).reshape(-1, 2).T
    P = u.size
    return Candidates(u, v, list(costs_by_pair.values()), np.zeros(P, np.intp),
                      np.zeros(P, bool), np.zeros((P, 0)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# --------------------------------------------------- reference writers
# The straightforward writers the fast ones in sheaflearn.serialize replaced:
# one "%.17g" call per float and one json.dumps of the whole sheaf document.
# Tests compare the fast writers' bytes against these.

def sheaf_to_dict(sheaf):
    d = sheaf.ambient_dim
    return {
        "nodes": sheaf.node_count,
        "ambient_dim": d,
        "per_node_dim": [d] * sheaf.node_count,
        "edges": [
            {"tail": u, "head": v, "F_tail": f_tail, "F_head": f_head}
            for (u, v), (f_tail, f_head) in zip(
                sheaf.edges.tolist(), sheaf.maps.reshape(sheaf.edge_count, 2, d * d).tolist()
            )
        ],
    }


def oracle_save_sheaf(sheaf, path):
    Path(path).write_text(json.dumps(sheaf_to_dict(sheaf), indent=2, sort_keys=True) + "\n")


def oracle_matrix_to_csv(matrix, path):
    m = np.atleast_2d(np.asarray(matrix, float))
    lines = [",".join(str(j) for j in range(m.shape[1]))]
    for row in m:
        lines.append(",".join("%.17g" % x for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_candidates_to_csv(candidates, path):
    cands = sorted(candidates, key=lambda c: (c.cost, c.u, c.v))
    width = max((len(c.singular_values) for c in cands), default=0)
    header = ["u", "v", "cost", "rank"] + [f"sigma_{i + 1}" for i in range(width)]
    lines = [",".join(header)]
    for c in cands:
        sig = list(c.singular_values) + [0.0] * (width - len(c.singular_values))
        lines.append(",".join(
            [str(c.u), str(c.v), "%.17g" % c.cost, str(c.rank)] + ["%.17g" % s for s in sig]
        ))
    Path(path).write_text("\n".join(lines) + "\n")
