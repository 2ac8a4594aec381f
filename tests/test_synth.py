import re

import numpy as np
import pytest

import sheaflearn.synth
from sheaflearn import SynthConfig, generate_cluster_scenario, generate_dataset


def test_deterministic_under_seed():
    cfg = SynthConfig(node_count=4, ambient_dim=8, dims=3, snapshots=16, seed=11)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    for na, nb in zip(a.nodes, b.nodes):
        assert np.array_equal(na.observations, nb.observations)
        assert na.support == nb.support


def test_snr_realized_exactly():
    cfg = SynthConfig(node_count=3, ambient_dim=16, dims=4, snapshots=64,
                      snr_db=20.0, seed=2)
    ds = generate_dataset(cfg)
    for node in ds.nodes:
        clean = node.clean_signal
        noise = node.observations - clean
        snr = 10 * np.log10(np.sum(clean ** 2) / np.sum(noise ** 2))
        assert abs(snr - 20.0) <= 0.01


def test_ground_truth_structure():
    cfg = SynthConfig(node_count=5, ambient_dim=12, dims=(2, 3, 4, 5, 6),
                      snapshots=10, seed=3)
    ds = generate_dataset(cfg)
    for node, want in zip(ds.nodes, (2, 3, 4, 5, 6)):
        assert len(node.support) == want
        off = np.delete(node.clean_coeffs, node.support, axis=0)
        assert np.max(np.abs(off)) == 0.0


def test_rho_zero_decorrelates():
    cfg = SynthConfig(node_count=2, ambient_dim=4, dims=4, snapshots=10_000,
                      rho=0.0, snr_db=100.0, seed=5)
    ds = generate_dataset(cfg)
    C = ds.nodes[0].clean_coeffs @ ds.nodes[1].clean_coeffs.T / cfg.snapshots
    assert np.max(np.abs(C)) <= 5.0 / np.sqrt(cfg.snapshots)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_shared_coordinate_correlation(rho):
    # the shared-latent model gives correlation rho^2 on shared coordinates
    cfg = SynthConfig(node_count=2, ambient_dim=6, dims=6, snapshots=100_000,
                      rho=rho, snr_db=100.0, seed=7)
    ds = generate_dataset(cfg)
    a = ds.nodes[0].clean_coeffs
    b = ds.nodes[1].clean_coeffs
    corr = np.mean([
        np.corrcoef(a[i], b[i])[0, 1] for i in range(6)
    ])
    assert abs(corr - rho ** 2) <= 0.02


def test_dims_sampler_spec():
    cfg = SynthConfig(node_count=10, ambient_dim=16, dims=("uniform", 2, 6),
                      snapshots=4, seed=9)
    ds = generate_dataset(cfg)
    for node in ds.nodes:
        assert 2 <= len(node.support) <= 6
    # the list form a JSON config yields (the CLI passes it through as is)
    listed = generate_dataset(SynthConfig(node_count=10, ambient_dim=16, dims=["uniform", 2, 6],
                                          snapshots=4, seed=9))
    assert listed.params == ds.params
    for a, b in zip(ds.nodes, listed.nodes):
        assert a.support == b.support
        assert np.array_equal(a.observations, b.observations)


def test_dims_validation():
    with pytest.raises(ValueError):
        generate_dataset(SynthConfig(node_count=2, ambient_dim=4, dims=5,
                                     snapshots=4, seed=0))
    with pytest.raises(ValueError):
        SynthConfig(rho=1.5)


@pytest.mark.parametrize("kwargs, error", [
    ({"dims": ("uniform", 0, 4)}, ValueError),
    ({"dims": ("uniform", 6, 4)}, ValueError),
    ({"dims": ["uniform", 4, 65]}, ValueError),
    ({"node_count": 3, "dims": [2, 3]}, ValueError),
    ({"seed": -1}, ValueError),
    ({"snr_db": float("nan")}, ValueError),
    ({"snr_db": -float("inf")}, ValueError),
    ({"snapshots": 0}, ValueError),
    ({"node_count": 0}, ValueError),
    ({"snapshots": 64.0}, TypeError),
    ({"dims": ["uniform", 8.5, 12]}, TypeError),
    ({"node_count": 2, "dims": [3.5, 2]}, TypeError),
    ({"rho": "0.5"}, TypeError),
])
def test_config_rejected_when_built(kwargs, error):
    with pytest.raises(error):
        SynthConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"node_count": 3.0}, "node_count must be an integer, got 3.0"),
    ({"ambient_dim": 8.0}, "ambient_dim must be an integer, got 8.0"),
    ({"snapshots": 8.5}, "snapshots must be an integer, got 8.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"dims": 2.5}, "dims must be an integer, got 2.5"),
    ({"dims": "3"}, "dims must be an integer, got '3'"),
    ({"dims": ["uniform", 8.5, 12]}, "dims entry must be an integer, got 8.5"),
    ({"node_count": 2, "dims": [3, 2.0]}, "dims entry must be an integer, got 2.0"),
], ids=["node_count", "ambient_dim", "snapshots", "seed", "dims", "dims text", "dims sampler",
        "dims per node"])
def test_non_integer_count_names_its_field(kwargs, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        SynthConfig(**kwargs)


def test_standard_basis_is_one_shared_array():
    ds = generate_dataset(SynthConfig(node_count=5, ambient_dim=8, dims=3, snapshots=4, seed=1))
    assert all(node.dictionary is ds.nodes[0].dictionary for node in ds.nodes)
    assert np.array_equal(ds.nodes[0].dictionary, np.eye(8))


def test_infinite_snr_adds_no_noise():
    ds = generate_dataset(SynthConfig(node_count=2, ambient_dim=6, dims=3, snapshots=8,
                                      snr_db=float("inf"), seed=4))
    for node in ds.nodes:
        assert np.array_equal(node.observations, node.clean_signal)


class TestClusterScenario:
    def test_shapes_and_labels(self):
        ds = generate_cluster_scenario(0, snapshots=32)
        assert ds.node_count == 16
        assert ds.ambient_dim == 64
        assert all(n.observations.shape == (64, 32) for n in ds.nodes)
        labels = ds.cluster_labels
        assert labels.count(0) == 8 and labels.count(1) == 8
        dims = [len(n.support) for n in ds.nodes]
        assert dims == [10] * 8 + [40] * 8

    def test_deterministic(self):
        a = generate_cluster_scenario(42, snapshots=16)
        b = generate_cluster_scenario(42, snapshots=16)
        for na, nb in zip(a.nodes, b.nodes):
            assert np.array_equal(na.observations, nb.observations)
            assert np.array_equal(na.dictionary, nb.dictionary)

    def test_dictionaries_differ_and_are_orthonormal(self):
        ds = generate_cluster_scenario(1, snapshots=8)
        d0, d1 = ds.nodes[0].dictionary, ds.nodes[1].dictionary
        assert not np.allclose(d0, d1)
        for node in ds.nodes:
            gram = node.dictionary.T @ node.dictionary
            assert np.max(np.abs(gram - np.eye(64))) <= 1e-9

    def test_non_integer_snapshots_named(self):
        with pytest.raises(TypeError, match=r"^snapshots must be an integer, got 8\.5$"):
            generate_cluster_scenario(0, snapshots=8.5)

    @pytest.mark.parametrize("kwargs", [{"rho": 2.0}, {"rho": -1.0}, {"snapshots": 0}])
    def test_inputs_checked_as_in_synth_config(self, kwargs, monkeypatch):
        def no_draw(*args, **_):
            raise AssertionError("drew data for inputs that fail the protocol checks")

        monkeypatch.setattr(sheaflearn.synth, "_generate", no_draw)
        with pytest.raises(ValueError):
            generate_cluster_scenario(0, **kwargs)
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


def _dense_draw(seed, node_count, d, n, rho, snr_db, draw_dims, draw_latent, own_basis):
    """Each node's dense coefficient matrix S and observations, drawn step by
    step as the module docstring describes: the shared stream draws the
    dimensions and the latent rows, node u's stream its basis, support,
    private rows and noise."""
    shared_ss, *node_ss = np.random.SeedSequence(seed).spawn(node_count + 1)
    shared = np.random.default_rng(shared_ss)
    dims = draw_dims(shared)
    latent = draw_latent(shared)
    out = []
    for u in range(node_count):
        rng = np.random.default_rng(node_ss[u])
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0] if own_basis else np.eye(d)
        support = np.sort(rng.choice(d, size=dims[u], replace=False))
        S = np.zeros((d, n))
        S[support, :] = (rho * latent(u, support)
                         + np.sqrt(1.0 - rho ** 2) * rng.standard_normal((dims[u], n)))
        clean = basis @ S
        raw = rng.standard_normal(clean.shape)
        scale = np.sqrt(np.sum(clean * clean)) / (np.sqrt(np.sum(raw * raw))
                                                  * 10.0 ** (snr_db / 20.0))
        out.append((S, clean + scale * raw))
    return out


def test_clean_coeffs_are_the_generators_matrix_bit_for_bit():
    cfg = SynthConfig(node_count=4, ambient_dim=10, dims=("uniform", 2, 5), snapshots=7,
                      rho=0.8, snr_db=15.0, seed=3)
    ds = generate_dataset(cfg)

    def latent(shared):
        rows = shared.standard_normal((10, 7))
        return lambda u, support: rows[support, :]

    want = _dense_draw(3, 4, 10, 7, 0.8, 15.0, lambda shared: shared.integers(2, 6, size=4),
                       latent, own_basis=False)
    for node, (S, X) in zip(ds.nodes, want):
        assert node.clean_coeffs.tobytes() == S.tobytes()
        assert node.observations.tobytes() == X.tobytes()


def test_cluster_clean_coeffs_are_the_generators_matrix_bit_for_bit():
    ds = generate_cluster_scenario(5, snapshots=6)

    def latent(shared):
        rows = [shared.standard_normal((10, 6)), shared.standard_normal((40, 6))]
        return lambda u, support: rows[u // 8]

    want = _dense_draw(5, 16, 64, 6, 0.9, 20.0, lambda shared: [10] * 8 + [40] * 8, latent,
                       own_basis=True)
    for node, (S, X) in zip(ds.nodes, want):
        assert node.clean_coeffs.tobytes() == S.tobytes()
        assert node.observations.tobytes() == X.tobytes()


def test_clean_coefficients_held_by_their_rows():
    ds = generate_dataset(SynthConfig(node_count=3, ambient_dim=12, dims=4, snapshots=9, seed=2))
    for node in ds.nodes:
        K, N = node.dictionary.shape[1], node.observations.shape[1]
        assert len(node.support) < K
        assert node.clean_rows.shape == (4, N)
        # the observations are the one d x N array, and d = K here
        assert [name for name, v in vars(node).items()
                if isinstance(v, np.ndarray) and v.shape == (K, N)] == ["observations"]
        S = node.clean_coeffs
        assert S.shape == (K, N) and S is not node.clean_coeffs  # built on every read
        assert np.array_equal(S[list(node.support)], node.clean_rows)
