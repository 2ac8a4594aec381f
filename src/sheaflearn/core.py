"""Sheaves on graphs: data model, coboundary/incidence/Laplacian assembly,
and the spectral quantities derived from them.

A sheaf here assigns the ambient space R^d to every node and edge, and one
orthonormal d x d restriction map per (node, edge) incidence. It is stored
as two arrays: the edges as an (E, 2) array of (tail, head) pairs and the
maps as one (E, 2, d, d) stack with maps[e] = (F_tail, F_head), which every
function below reads directly. A float64 stack is stored as it is given,
strides and all, so a broadcast identity (a constant sheaf's, a baseline
``build_sheaf``'s) stays one d x d array. Building a sheaf checks every map's
orthonormality, except a map that is bit for bit the identity, whose
A^T A - I is exactly 0. Total variation and the coboundary read the node
signals in place and are computed one tail run at a time: the edges that
share a tail node, in pieces of at most EDGE_CHUNK, so one matrix product
applies all of a run's tail maps to the tail's signal, written into the one
run buffer of the call; the head maps are applied one edge at a time, and one
that is bit for bit the identity is not applied, since I x = x exactly. The
global section count
dim H^0 = dim ker L takes one breadth-first walk per component,
which finds the component and transports a root value along the walk's tree
in the same pass, then tests that value on every edge through the same
coboundary kernel, one d x d eigenproblem per component: O(E d^3) work where
a dense eigensolve of L costs O((V d)^3). Neither of these forms L.

The dense Laplacian is assembled from its block formula (Hansen & Ghrist
2019) only when ``SheafLaplacian.matrix`` is read: diagonal block u is the
sum of F^T F over the edges at u, and each edge (u, v) adds the off-diagonal
block -F_u^T F_v and its transpose. The (V*d) x (E*d) incidence matrix is
likewise built only when read. At V*d = 4096 and E = 1089 (V = d = 64), L
takes about 134 MB and the incidence would take about 2.2 GB; target scale
is V*d up to a few thousand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .synth import _integer

# Orthonormality tolerance for restriction maps.
ORTHO_TOL = 1e-9

# Relative eigenvalue threshold of ``global_section_dim``: a direction counts
# as a section below SECTION_TOL times the Laplacian's spectral scale.
SECTION_TOL = 1e-8

# The longest run of ``_runs``, which one batched product handles (edges
# sharing a tail node in total_variation, coboundary_apply and
# global_section_dim; kept edges sharing a block size in align's map solve),
# and the maps per batch of the orthonormality check. Bounds their buffers at
# EDGE_CHUNK x d x N (residuals) and EDGE_CHUNK x d x d (Gram matrices, edge
# constraints, maps) values, whatever the edge count: at d = 64 and N = 512
# a run buffer takes 8.4 MB. Coboundary blocks and maps equal the per-edge
# results bit for bit at any bound, and align's pair scoring takes each tail
# whole, not in runs; only the per-run sums of total_variation and
# global_section_dim can move in their last bits with it.
EDGE_CHUNK = 32


class SheafStructureError(ValueError):
    """A sheaf, cochain or map violates a structural invariant."""


def _edge_array(edges) -> np.ndarray:
    """``edges`` as a new (E, 2) integer array. An edge that is not a pair, or
    a node index that is not an integer (a bool is not one), raises
    SheafStructureError naming the first such edge."""
    try:
        raw = np.array(edges)
    except ValueError:  # ragged: the edges do not stack
        for e, edge in enumerate(edges):
            if not (hasattr(edge, "__len__") and len(edge) == 2
                    and all(np.ndim(i) == 0 for i in edge)):
                raise SheafStructureError(
                    f"edge {e} is {edge!r}, expected a (tail, head) pair") from None
        raise SheafStructureError("edges do not form an (E, 2) array") from None
    if raw.size == 0:
        raw = raw.reshape(0, 2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise SheafStructureError(f"edges have shape {raw.shape}, expected (E, 2)")
    # np.array reads a bool among integers as an integer, so only an integer
    # array is taken as it is, and anything else is read entry by entry
    if raw.dtype.kind not in "iu" or not isinstance(edges, np.ndarray):
        for e, edge in enumerate(np.asarray(edges, dtype=object).tolist()):
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       for i in edge):
                raise SheafStructureError(
                    f"edge {e} is {tuple(edge)!r}: node indices must be integers")
    return raw.astype(np.intp, copy=False)


def _orthonormal(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix A of the (n, a, k) ``stack`` has orthonormal
    columns, max |A^T A - I| <= ORTHO_TOL, as an (n,) bool array. A NaN or
    inf entry fails the test. The one orthonormality test: restriction maps
    and orthonormal dictionaries both pass through it."""
    gram = stack.swapaxes(-1, -2) @ stack
    gram -= np.eye(stack.shape[-1])
    return np.abs(gram, out=gram).max(axis=(1, 2)) <= ORTHO_TOL


def _map_stack(maps, edge_count: int, d: int) -> np.ndarray:
    """``maps`` as an (edge_count, 2, d, d) floating array. An array of a
    floating dtype is kept as it is given, dtype, strides and all, so a
    broadcast identity stays one d x d array and ``Sheaf`` can name the dtype
    a map was rounded to; a list or any other dtype is copied to float64."""
    try:
        given = np.asarray(maps)
        maps = given if given.dtype.kind == "f" else np.asarray(maps, dtype=float)
    except ValueError:
        raise SheafStructureError("restriction maps differ in shape") from None
    if maps.size == 0:
        maps = maps.reshape(0, 2, d, d)
    if maps.ndim != 4 or maps.shape[1] != 2:
        raise SheafStructureError(f"maps have shape {maps.shape}, expected (E, 2, d, d)")
    if len(maps) != edge_count:
        raise SheafStructureError("one map pair required per edge")
    if maps.shape[2] != maps.shape[3]:
        raise SheafStructureError("restriction map must be a square matrix")
    if maps.shape[2] != d:
        raise SheafStructureError(
            f"maps have shape {maps.shape[2:]}, expected ({d}, {d})"
        )
    return maps


@dataclass(frozen=True, eq=False)
class Sheaf:
    """A cellular sheaf on a graph, held as two arrays: ``edges``, an (E, 2)
    integer array of oriented pairs (tail, head), and ``maps``, an
    (E, 2, d, d) float array of orthonormal restriction maps with
    ``maps[e] = (F_tail, F_head)``. Both are stored read-only. A float64
    ``maps`` array is stored as it is given, strides and all, so a broadcast
    identity stays one d x d array; ``build_sheaf`` builds its ``Sheaf``
    directly from the stack it fills.

    ``ambient_dim`` d is the stalk dimension of every node and edge. The
    canonical constructors orient edges tail = min(u, v), but any fixed
    orientation is accepted: the assembled Laplacian is orientation-invariant.
    """

    node_count: int
    ambient_dim: int
    edges: np.ndarray
    maps: np.ndarray

    def __post_init__(self):
        V = _integer("node_count", self.node_count)
        d = _integer("ambient_dim", self.ambient_dim)
        if V <= 0 or d <= 0:
            raise SheafStructureError("node_count and ambient_dim must be positive")
        object.__setattr__(self, "node_count", V)
        object.__setattr__(self, "ambient_dim", d)

        edges = _edge_array(self.edges)
        maps = _map_stack(self.maps, len(edges), d)
        given = maps.dtype
        maps = maps.astype(float, copy=False).view()
        seen = set()
        for e, (u, v) in enumerate(edges.tolist()):
            if u == v:
                raise SheafStructureError(f"edge {e} is a self-loop")
            if not (0 <= u < V and 0 <= v < V):
                raise SheafStructureError(f"edge {e} references an unknown node")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise SheafStructureError(f"node pair {key} appears more than once")
            seen.add(key)

        # every map orthonormal, EDGE_CHUNK maps at a time (map 2e + side is
        # maps[e, side]). A map that is bit for bit I has A^T A - I = 0
        # exactly and is not tested. The comparison and the tested maps go
        # into one buffer each, since arrays of a new size per chunk were
        # returned to the system and faulted in again; np.take's default
        # mode would write through a temporary, and the indices are in range.
        flat = maps.reshape(-1, d, d)
        eye = np.eye(d)
        n = min(len(flat), EDGE_CHUNK)
        same, tested = np.empty((n, d, d), bool), np.empty((n, d, d))
        for start in range(0, len(flat), EDGE_CHUNK):
            chunk = flat[start:start + EDGE_CHUNK]
            index = np.flatnonzero(~np.equal(chunk, eye, out=same[:len(chunk)]).all(axis=(1, 2)))
            np.take(chunk, index, axis=0, out=tested[:index.size], mode="clip")
            bad = index[~_orthonormal(tested[:index.size])]
            if bad.size:
                e, side = divmod(int(start + bad[0]), 2)
                if not np.all(np.isfinite(maps[e, side])):
                    what = "has non-finite entries"
                elif given.kind == "f" and np.finfo(given).eps > ORTHO_TOL:
                    what = (f"is not orthonormal: the maps were given as {given}, whose "
                            f"rounding ({np.finfo(given).eps:.1e}) exceeds ORTHO_TOL = "
                            f"{ORTHO_TOL:g}")
                else:
                    what = "is not orthonormal"
                raise SheafStructureError(
                    f"restriction map at node {edges[e, side]} on edge {e} {what}"
                )

        # maps is a view, so a caller's own array stays writeable
        edges.flags.writeable = False
        maps.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "maps", maps)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make_sheaf(node_count: int, ambient_dim: int, edges, maps) -> Sheaf:
    """Build a sheaf with the stalk R^ambient_dim at every node from raw
    matrices, orienting each edge min -> max.

    ``maps`` is a sequence of (F_u, F_v) pairs aligned with ``edges``, or the
    same as an (E, 2, d, d) array; F_u belongs to the first node of the pair
    as given, and the pair is swapped along with the edge whenever the
    orientation is normalized.
    """
    ambient_dim = _integer("ambient_dim", ambient_dim)
    edges = _edge_array(edges)
    maps = _map_stack(maps, len(edges), ambient_dim)
    flip = edges[:, 0] > edges[:, 1]
    if flip.any():
        edges[flip] = edges[flip, ::-1]
        if maps.strides[:2] != (0, 0):  # one map shared by every side needs no swap
            maps = maps.copy()
            maps[flip] = maps[flip, ::-1]
    return Sheaf(node_count, ambient_dim, edges, maps)


def constant_sheaf(node_count: int, edges, dim: int = 1) -> Sheaf:
    """All stalks R^dim, all maps the identity; reduces to the classic graph.
    ``edges`` is any iterable of (u, v) pairs, a generator or an (E, 2)
    array included; it is read once. The maps are one dim x dim identity
    broadcast to the (E, 2, dim, dim) stack, and are stored that way."""
    edges = list(edges)
    return make_sheaf(node_count, dim, edges,
                      np.broadcast_to(np.eye(dim), (len(edges), 2, dim, dim)))


@dataclass(frozen=True, eq=False)
class Cochain0:
    """Node-indexed signal: one (ambient_dim x N) block per node."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise SheafStructureError("cochain needs at least one block")
        n = blocks[0].shape[1]
        if any(b.shape[1] != n for b in blocks):
            raise SheafStructureError("all blocks must share the snapshot count")
        for u, b in enumerate(blocks):
            if not np.all(np.isfinite(b)):
                raise SheafStructureError(f"cochain block {u} has non-finite entries")


@dataclass(frozen=True)
class SheafLaplacian:
    """Sheaf Laplacian of ``sheaf``, with its dense forms built only when read.

    ``matrix`` is the dense symmetric positive semi-definite (V*d) x (V*d)
    Laplacian, assembled from the block formula on first read and cached
    (about 134 MB at V*d = 4096); ``total_variation`` and
    ``global_section_dim`` never read it. ``incidence`` is the (V*d) x (E*d)
    matrix B with matrix = B B^T; it is assembled afresh on every read and
    never kept, since it has E/V times as many entries as L.
    """

    sheaf: Sheaf

    @property
    def dim(self) -> int:
        return self.sheaf.node_count * self.sheaf.ambient_dim

    @cached_property
    def matrix(self) -> np.ndarray:
        return _assemble_dense(self.sheaf)

    @property
    def incidence(self) -> np.ndarray:
        return assemble_incidence(self.sheaf)


def _node_signals(sheaf: Sheaf, x):
    """A ``total_variation`` signal as its V node blocks of shape (d, N),
    read in place: a ``Cochain0``'s own blocks, or an array reshaped to
    (V, d, N). A shape that does not fit, or a non-finite entry, raises
    SheafStructureError."""
    V, d = sheaf.node_count, sheaf.ambient_dim
    if isinstance(x, Cochain0):  # its entries were checked when it was built
        if [b.shape[0] for b in x.blocks] != [d] * V:
            raise SheafStructureError(f"cochain blocks do not fit {V} nodes of dimension {d}")
        return x.blocks
    X = np.asarray(x, float)
    X = X.reshape(-1, 1) if X.ndim < 2 else X
    if X.ndim != 2 or X.shape[0] != V * d:
        raise SheafStructureError(f"signal has shape {np.shape(x)}, Laplacian dim is {V * d}")
    if not np.all(np.isfinite(X)):
        raise SheafStructureError("signal has non-finite entries")
    return X.reshape(V, d, X.shape[1])


def _runs(keys: np.ndarray) -> list[np.ndarray]:
    """Indices grouped by key (a tail node, or a block size): a stable
    argsort of ``keys`` cut where the key changes and into pieces of at most
    EDGE_CHUNK indices, so every index is in exactly one run and every run
    shares one key."""
    order = np.argsort(keys, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(keys[order])) + 1).tolist(), order.size]
    return [order[lo:min(lo + EDGE_CHUNK, hi)]
            for start, hi in zip(bounds[:-1], bounds[1:])
            for lo in range(start, hi, EDGE_CHUNK)]


def _coboundary_runs(sheaf: Sheaf, xb):
    """``(run, blocks)`` for every tail run of ``sheaf``: the run's m edge
    indices and their coboundary blocks F_tail x_tail - F_head x_head, shape
    (m, d, N), of the node signals ``xb`` (V blocks of shape (d, N)).

    The blocks of every run are written into one buffer, sized by the
    longest run, so a yielded ``blocks`` is valid only until the next run is
    asked for. One product applies the run's stacked tail maps to the tail's
    signal. Every head map is then applied in place, one edge at a time, so
    a run gathers no (m, d, N) copy of its head signals: a head map that is
    bit for bit the identity is not applied (I x = x exactly) and its signal
    is subtracted, any other is one F_head x_head product. The blocks equal
    the per-edge products bit for bit."""
    edges, maps, d = sheaf.edges, sheaf.maps, sheaf.ambient_dim
    eye = np.eye(d)
    runs = _runs(edges[:, 0])
    buf = np.empty((max((run.size for run in runs), default=0) * d, xb[0].shape[-1]))
    for run in runs:
        m = run.size
        blocks = np.matmul(maps[run, 0].reshape(m * d, d), xb[edges[run[0], 0]],
                           out=buf[:m * d]).reshape(m, d, -1)
        identity = (maps[run, 1] == eye).all(axis=(1, 2)).tolist()
        for j, (e, head) in enumerate(zip(run.tolist(), edges[run, 1].tolist())):
            blocks[j] -= xb[head] if identity[j] else maps[e, 1] @ xb[head]
        yield run, blocks


def assemble_incidence(sheaf: Sheaf) -> np.ndarray:
    """Assemble the (V*d) x (E*d) block incidence matrix, the transpose of
    the coboundary operator.

    Block (u, e) is -F_{u<e}^T when u is the tail of e, +F_{u<e}^T when u is
    the head, and zero otherwise. The transposes make L = B B^T reproduce the
    block Laplacian exactly: off-diagonal blocks -F_u^T F_v, diagonal blocks
    the sum of F^T F over incident edges.
    """
    d = sheaf.ambient_dim
    B = np.zeros((sheaf.node_count * d, sheaf.edge_count * d))
    for e, (u, v) in enumerate(sheaf.edges.tolist()):
        B[u * d:(u + 1) * d, e * d:(e + 1) * d] = -sheaf.maps[e, 0].T
        B[v * d:(v + 1) * d, e * d:(e + 1) * d] = sheaf.maps[e, 1].T
    return B


def assemble_laplacian(sheaf: Sheaf) -> SheafLaplacian:
    """The Laplacian of ``sheaf``; its dense matrix is built on first read."""
    return SheafLaplacian(sheaf=sheaf)


def _assemble_dense(sheaf: Sheaf) -> np.ndarray:
    """Assemble L from its blocks: diagonal block u is the sum of F^T F over
    the edges at u; edge (u, v) puts -F_u^T F_v at (u, v) and its transpose
    at (v, u). Equals B B^T for B = ``assemble_incidence(sheaf)``."""
    V, d = sheaf.node_count, sheaf.ambient_dim
    edges, maps = sheaf.edges, sheaf.maps
    L = np.zeros((V * d, V * d))
    blocks = L.reshape(V, d, V, d)  # view: blocks[u, :, v, :] is block (u, v)
    maps_t = maps.swapaxes(-1, -2)
    diag = np.zeros((V, d, d))
    np.add.at(diag, edges.ravel(), (maps_t @ maps).reshape(-1, d, d))
    nodes = np.arange(V)
    blocks[nodes, :, nodes, :] = diag
    # The Sheaf invariants (no self-loops, each node pair at most once) make
    # every off-diagonal block the target of exactly one edge.
    neg_cross = -(maps_t[:, 0] @ maps[:, 1])
    tail, head = edges[:, 0], edges[:, 1]
    blocks[tail, :, head, :] = neg_cross
    blocks[head, :, tail, :] = neg_cross.swapaxes(-1, -2)
    return L


def coboundary_apply(sheaf: Sheaf, x) -> list[np.ndarray]:
    """Apply the coboundary edge-wise: block e = F_tail x_tail - F_head x_head.
    ``x`` is any signal ``total_variation`` accepts."""
    xb = _node_signals(sheaf, x)
    out = np.empty((sheaf.edge_count, *xb[0].shape))
    for run, blocks in _coboundary_runs(sheaf, xb):
        out[run] = blocks
    return list(out)


def total_variation(L: SheafLaplacian, x) -> float:
    """Quadratic form tr(X^T L X), summed one tail run at a time as the
    squared edge disagreements ||F_tail x_tail - F_head x_head||^2. ``x`` is a
    ``Cochain0``, a (V*d) x N array, or a length-V*d vector (x^T L x)."""
    sheaf = L.sheaf
    tv = 0.0
    for _, r in _coboundary_runs(sheaf, _node_signals(sheaf, x)):
        tv += float(np.vdot(r, r))
    return tv


def global_section_dim(L: SheafLaplacian) -> int:
    """Dimension of the global section space H^0 = ker L, counted by
    spanning-tree transport without forming or factoring L.

    With orthonormal maps a section is fixed on each connected component by
    its value a at the root: along a tree edge from parent p to child c,
    F_c x_c = F_p x_p forces x_c = T_c a with T_c = F_c^T F_p T_p, T_root = I.
    The tree is the breadth-first one, and a single walk per component both
    finds it and transports: it labels c, counts it toward |c| and fixes T_c
    the first time it reaches c, so no forest is stored or replayed.
    Every edge (u, v) then constrains a through C_e = F_u T_u - F_v T_v, and
    the component contributes dim ker G_c, G_c = sum of C_e^T C_e over its
    edges = T_c^T L T_c (T_c stacks the T_u of its nodes). A tree edge's C_e
    is rounding noise, about d * ORTHO_TOL. This costs O(E d^3) plus one
    d x d eigensolve per component, where the dense eigensolve of L costs
    O((V d)^3).

    Threshold: for a unit a, the tree-extended x (x_u = T_u a) has
    ||x||^2 = |c| and x^T L x = a^T G_c a, so an eigenvalue mu of G_c is
    |c| times the Rayleigh quotient in L of such a vector (and by Cauchy
    interlacing the k-th smallest mu / |c| is at least the k-th smallest
    eigenvalue of L on the component). The dense count takes eigenvalues of
    L below SECTION_TOL * lambda_max(L); here mu / |c| is compared with
    SECTION_TOL * 2 * max(maxdeg, 1), maxdeg over the whole graph. With
    orthonormal maps, diagonal block u of L is deg(u) I, so maxdeg <=
    lambda_max(L) <= 2 maxdeg: the scale is within a factor of two of
    lambda_max(L) and needs no eigensolve. A sheaf without edges has every
    G_c = 0, so h0 = V d.
    """
    sheaf = L.sheaf
    V, d = sheaf.node_count, sheaf.ambient_dim
    edges, maps = sheaf.edges, sheaf.maps
    # One breadth-first walk per component, roots in node order, neighbours
    # in edge-index order: the first time it reaches c, over edge e from p,
    # it labels c and fixes T_c = F_c^T F_p T_p.
    adjacency = [[] for _ in range(V)]
    for e, (u, v) in enumerate(edges.tolist()):
        adjacency[u].append((v, e, 1))  # (neighbour, edge, neighbour's side)
        adjacency[v].append((u, e, 0))
    component = [-1] * V
    sizes = []
    T = np.empty((V, d, d))
    for root in range(V):
        if component[root] >= 0:
            continue
        component[root] = len(sizes)
        T[root] = np.eye(d)
        queue = [root]
        for p in queue:  # the list grows as it is read: first in, first out
            for c, e, side in adjacency[p]:
                if component[c] < 0:
                    component[c] = len(sizes)
                    T[c] = maps[e, side].T @ (maps[e, 1 - side] @ T[p])
                    queue.append(c)
        sizes.append(len(queue))
    sizes = np.array(sizes)

    # A run shares its tail, hence its component: its constraints C_e stack
    # into one (m d) x d matrix whose Gram matrix is their sum of C_e^T C_e.
    G = np.zeros((len(sizes), d, d))
    for run, C in _coboundary_runs(sheaf, T):
        C = C.reshape(-1, d)
        G[component[edges[run[0], 0]]] += C.T @ C

    maxdeg = max(1, *map(len, adjacency))
    mu = np.linalg.eigvalsh(G)
    return int(np.count_nonzero(mu < (SECTION_TOL * 2 * maxdeg) * sizes[:, None]))
