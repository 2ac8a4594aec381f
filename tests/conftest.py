import numpy as np
import pytest

from sheaflearn import make_sheaf


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
