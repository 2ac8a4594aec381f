"""Seeded synthetic data generators.

Two protocols are covered: random coordinate subspaces over a shared standard
basis with a tunable shared-latent correlation, and a 16-node two-cluster
scenario where half the nodes live in 10-dimensional and half in 40-dimensional
subspaces of an ambient R^64, each node carrying its own random orthonormal
dictionary.

Every node draws from an independently keyed substream of the root seed, so
generation order cannot change results, and noise is rescaled exactly to the
requested per-node SNR.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of the coordinate-subspace generator.

    ``dims`` is either one int (shared by all nodes), a per-node sequence, or
    the sampler spec ("uniform", lo, hi) drawing each node's dimension
    uniformly in [lo, hi].
    """

    node_count: int = 16
    ambient_dim: int = 64
    dims: object = ("uniform", 8, 32)
    snapshots: int = 512
    rho: float = 0.9
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if (_integer("node_count", self.node_count) < 1
                or _integer("ambient_dim", self.ambient_dim) < 1):
            raise ValueError("node_count and ambient_dim must be positive")
        _check_protocol(self.seed, self.snapshots, self.rho, self.snr_db)
        _resolve_dims(self)


def _integer(name: str, value) -> int:
    """``value`` as an int; a float, a bool or any other non-integer raises
    a TypeError naming the setting ``name``."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool):  # operator.index(True) is 1
            return operator.index(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """``value`` unchanged (a manifest keeps 20, not 20.0); a bool or any
    other non-number raises a TypeError naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def _check_protocol(seed: int, snapshots: int, rho: float, snr_db: float) -> None:
    """Checks the inputs both protocols take (snr_db = +inf adds no noise)."""
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if _integer("snapshots", snapshots) < 1:
        raise ValueError(f"snapshots must be positive, got {snapshots}")
    if not (0.0 <= _real("rho", rho) <= 1.0):
        raise ValueError("rho must lie in [0, 1]")
    if not _real("snr_db", snr_db) > -math.inf:
        raise ValueError("snr_db must be a number above -inf")


def _scatter_rows(rows: np.ndarray, support, atom_count: int) -> np.ndarray:
    """The atom_count x N matrix whose row ``support[i]`` is ``rows[i]``, zero elsewhere."""
    S = np.zeros((atom_count, rows.shape[1]))
    S[list(support)] = rows
    return S


@dataclass(frozen=True, eq=False)
class NodeData:
    """One node's observations together with the generating ground truth.

    The clean coefficients are held by their rows: ``clean_rows`` is the
    (|support|, N) array of the support rows, in ``support`` order, and
    every other row is zero. ``clean_coeffs`` builds the K x N matrix from
    them on every read (it is not cached). ``clean_rows``, and so
    ``clean_coeffs``, is None when a dataset is loaded without them (see
    ``serialize.load_dataset``)."""

    observations: np.ndarray     # d x N, noisy
    dictionary: np.ndarray       # d x K, the known (orthonormal) dictionary
    support: tuple[int, ...]     # atom indices actually used
    clean_rows: np.ndarray | None  # |support| x N, the coefficients' support rows
    cluster: int | None = None

    @property
    def clean_coeffs(self) -> np.ndarray | None:
        """K x N, zero outside the support rows; built on every read."""
        if self.clean_rows is None:
            return None
        return _scatter_rows(self.clean_rows, self.support, self.dictionary.shape[1])

    @property
    def clean_signal(self) -> np.ndarray:
        return self.dictionary @ self.clean_coeffs


@dataclass(frozen=True, eq=False)
class Dataset:
    nodes: tuple[NodeData, ...]
    seed: int
    params: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def ambient_dim(self) -> int:
        return self.nodes[0].observations.shape[0]

    @property
    def cluster_labels(self) -> tuple[int, ...] | None:
        labels = tuple(n.cluster for n in self.nodes)
        return None if any(l is None for l in labels) else labels


def _resolve_dims(cfg: SynthConfig, rng: np.random.Generator | None = None) -> list[int]:
    """Every node's subspace dimension; a sampler spec's, without ``rng``, are its bounds."""
    dims = cfg.dims
    if isinstance(dims, (tuple, list)) and len(dims) == 3 and dims[0] == "uniform":
        lo, hi = _integer("dims entry", dims[1]), _integer("dims entry", dims[2])
        if lo > hi:
            raise ValueError(f"dims sampler range [{lo}, {hi}] is empty")
        out = [lo, hi] if rng is None else [
            int(k) for k in rng.integers(lo, hi + 1, size=cfg.node_count)]
    elif isinstance(dims, (tuple, list, np.ndarray)):
        out = [_integer("dims entry", k) for k in dims]
        if len(out) != cfg.node_count:
            raise ValueError("per-node dims length must equal node_count")
    else:
        out = [_integer("dims", dims)] * cfg.node_count
    if any(not (0 < k <= cfg.ambient_dim) for k in out):
        raise ValueError("every subspace dimension must lie in (0, ambient_dim]")
    return out


def _add_noise(clean: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """White Gaussian noise rescaled so the realized Frobenius SNR is exact."""
    raw = rng.standard_normal(clean.shape)
    # numpy's own sum, not np.linalg.norm: BLAS ddot splits across threads,
    # which would make the observations depend on the BLAS thread count
    clean_norm, raw_norm = np.sqrt(np.sum(clean * clean)), np.sqrt(np.sum(raw * raw))
    if clean_norm == 0.0 or raw_norm == 0.0:
        return clean.copy()
    scale = clean_norm / (raw_norm * 10.0 ** (snr_db / 20.0))
    return clean + scale * raw


def _generate(generator: str, seed: int, node_count: int, d: int, n: int, rho: float,
              snr_db: float, draw_shared, own_basis: bool, labels=None) -> Dataset:
    """The draw of both protocols. ``draw_shared`` takes the shared stream and
    returns the per-node dimensions and ``shared_rows(u, support)``; node u's
    stream draws its basis (QR if ``own_basis``), support, private rows, noise.
    Callers check the protocol's inputs first."""
    shared_ss, *node_ss = np.random.SeedSequence(seed).spawn(node_count + 1)
    dims, shared_rows = draw_shared(np.random.default_rng(shared_ss))
    eye = np.eye(d)  # one array, the dictionary of every node without its own basis
    mix = np.sqrt(max(0.0, 1.0 - rho ** 2))
    nodes = []
    for u in range(node_count):
        rng = np.random.default_rng(node_ss[u])
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0] if own_basis else eye
        support = np.sort(rng.choice(d, size=dims[u], replace=False))
        rows = rho * shared_rows(u, support) + mix * rng.standard_normal((dims[u], n))
        clean = basis @ _scatter_rows(rows, support, d)  # the dense S lives for this product
        nodes.append(NodeData(_add_noise(clean, snr_db, rng), basis, tuple(support.tolist()),
                              rows, None if labels is None else labels[u]))
    return Dataset(tuple(nodes), seed, {
        "generator": generator, "node_count": node_count, "ambient_dim": d,
        "dims": dims, "snapshots": n, "rho": rho, "snr_db": snr_db})


def generate_dataset(cfg: SynthConfig) -> Dataset:
    """Coordinate-subspace data over the standard basis of R^d.

    Node u samples a size-dims[u] coordinate subset; its coefficients are
    S_u = rho * P_u G + sqrt(1 - rho^2) * G_u with G a latent d x N Gaussian
    matrix shared by all nodes, G_u node-private Gaussian rows, and P_u the
    projection onto the sampled coordinates. Coordinates shared by two nodes
    therefore carry correlation rho^2 between their coefficient streams.
    """
    def draw_shared(rng):
        dims = _resolve_dims(cfg, rng)
        latent = rng.standard_normal((cfg.ambient_dim, cfg.snapshots))
        return dims, lambda u, support: latent[support, :]

    return _generate("coordinate_subspaces", cfg.seed, cfg.node_count, cfg.ambient_dim,
                     cfg.snapshots, cfg.rho, cfg.snr_db, draw_shared, own_basis=False)


def generate_cluster_scenario(
    seed: int,
    snapshots: int = 512,
    rho: float = 0.9,
    snr_db: float = 20.0,
) -> Dataset:
    """Two-cluster scenario: 16 nodes in ambient R^64, 8 nodes on
    10-dimensional and 8 on 40-dimensional subspaces.

    Each node owns a random orthonormal dictionary (QR of a Gaussian matrix)
    and uses a random subset of its columns, so local dictionaries genuinely
    differ across nodes. Nodes in the same cluster blend a common per-cluster
    latent into their coefficient rows with weight rho, which makes same-
    dimension nodes correlated while their bases stay unrelated.
    """
    _check_protocol(seed, snapshots, rho, snr_db)
    labels = [0] * 8 + [1] * 8

    def draw_shared(rng):
        latent = [rng.standard_normal((10, snapshots)), rng.standard_normal((40, snapshots))]
        # support row j pairs with latent row j across the whole cluster
        return [10] * 8 + [40] * 8, lambda u, support: latent[labels[u]]

    return _generate("two_cluster_subspaces", seed, 16, 64, snapshots, rho, snr_db,
                     draw_shared, own_basis=True, labels=labels)
