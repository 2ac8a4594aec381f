"""Sheaves on graphs: data model, coboundary/incidence/Laplacian assembly,
and the spectral quantities derived from them.

A sheaf here assigns the ambient space R^d to every node and edge, and one
orthonormal d x d restriction map per (node, edge) incidence. It is stored
as two arrays: the edges as an (E, 2) array of (tail, head) pairs and the
maps as one (E, 2, d, d) stack with maps[e] = (F_tail, F_head), which every
function below reads directly. Total variation and the coboundary are
computed edge by edge from the stack. The global
section count dim H^0 = dim ker L is found by transporting a root value along
a spanning tree of each component and testing it on the remaining (cycle)
edges, one d x d eigenproblem per component: O(E d^3) work where a dense
eigensolve of L costs O((V d)^3). Neither of these forms L.

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

# Orthonormality tolerance for restriction maps.
ORTHO_TOL = 1e-9

# Edges (maps, in the orthonormality check) per batch in Sheaf validation,
# total_variation and global_section_dim: bounds their buffers at
# EDGE_CHUNK x d x N (residuals) and EDGE_CHUNK x d x d (Gram matrices, cycle
# constraints) values, whatever the edge count.
EDGE_CHUNK = 128


class SheafStructureError(ValueError):
    """A sheaf, cochain or map violates a structural invariant."""


def _map_stack(maps, edge_count: int, d: int) -> np.ndarray:
    """``maps`` as a C-contiguous (edge_count, 2, d, d) float array, without a
    copy when it is one already."""
    try:
        maps = np.ascontiguousarray(maps, dtype=float)
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
    ``maps[e] = (F_tail, F_head)``. Both are stored read-only.

    ``ambient_dim`` d is the common stalk dimension used for assembly;
    ``per_node_dim[u]`` in (0, d] is the effective subspace dimension left at
    node u after denoising. The canonical constructors orient edges
    tail = min(u, v), but any fixed orientation is accepted: the assembled
    Laplacian is orientation-invariant.
    """

    node_count: int
    ambient_dim: int
    per_node_dim: tuple[int, ...]
    edges: np.ndarray
    maps: np.ndarray

    def __post_init__(self):
        V, d = self.node_count, self.ambient_dim
        if V <= 0 or d <= 0:
            raise SheafStructureError("node_count and ambient_dim must be positive")
        object.__setattr__(self, "per_node_dim", tuple(self.per_node_dim))
        if len(self.per_node_dim) != V:
            raise SheafStructureError("per_node_dim length must equal node_count")
        for u, du in enumerate(self.per_node_dim):
            if not (0 < du <= d):
                raise SheafStructureError(f"per_node_dim[{u}] = {du} outside (0, {d}]")

        edges = np.array(self.edges, dtype=np.intp)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise SheafStructureError(f"edges have shape {edges.shape}, expected (E, 2)")
        maps = _map_stack(self.maps, len(edges), d).view()
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

        # max |F^T F - I| <= ORTHO_TOL for every map, EDGE_CHUNK maps at a
        # time (map 2e + side is maps[e, side]); a NaN or inf entry fails the
        # comparison too.
        flat = maps.reshape(-1, d, d)
        eye = np.eye(d)
        for start in range(0, len(flat), EDGE_CHUNK):
            chunk = flat[start:start + EDGE_CHUNK]
            gram = chunk.swapaxes(-1, -2) @ chunk
            gram -= eye
            err = np.abs(gram, out=gram).reshape(len(chunk), -1).max(axis=1)
            bad = np.flatnonzero(~(err <= ORTHO_TOL))
            if bad.size:
                e, side = divmod(int(start + bad[0]), 2)
                what = ("has non-finite entries" if not np.all(np.isfinite(maps[e, side]))
                        else "is not orthonormal")
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


def make_sheaf(
    node_count: int,
    ambient_dim: int,
    edges,
    maps,
    per_node_dim=None,
) -> Sheaf:
    """Build a sheaf from raw matrices, orienting each edge min -> max.

    ``maps`` is a sequence of (F_u, F_v) pairs aligned with ``edges``, or the
    same as an (E, 2, d, d) array; F_u belongs to the first node of the pair
    as given, and the pair is swapped along with the edge whenever the
    orientation is normalized.
    """
    if per_node_dim is None:
        per_node_dim = (ambient_dim,) * node_count
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    maps = _map_stack(maps, len(edges), ambient_dim)
    flip = edges[:, 0] > edges[:, 1]
    if flip.any():
        edges[flip] = edges[flip, ::-1]
        maps = maps.copy()
        maps[flip] = maps[flip, ::-1]
    return Sheaf(node_count, ambient_dim, tuple(per_node_dim), edges, maps)


def constant_sheaf(node_count: int, edges, dim: int = 1) -> Sheaf:
    """All stalks R^dim, all maps the identity; reduces to the classic graph."""
    eye = np.eye(dim)
    return make_sheaf(node_count, dim, list(edges), [(eye, eye) for _ in edges])


@dataclass(frozen=True)
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


def _node_signals(sheaf: Sheaf, x) -> np.ndarray:
    """A ``total_variation`` signal as a (V, d, N) stack of node blocks; a
    shape that does not fit, or a non-finite entry, raises SheafStructureError."""
    V, d = sheaf.node_count, sheaf.ambient_dim
    if isinstance(x, Cochain0):  # its entries were checked when it was built
        if [b.shape[0] for b in x.blocks] != [d] * V:
            raise SheafStructureError(f"cochain blocks do not fit {V} nodes of dimension {d}")
        return np.stack(x.blocks)
    X = np.asarray(x, float)
    X = X.reshape(-1, 1) if X.ndim < 2 else X
    if X.ndim != 2 or X.shape[0] != V * d:
        raise SheafStructureError(f"signal has shape {np.shape(x)}, Laplacian dim is {V * d}")
    if not np.all(np.isfinite(X)):
        raise SheafStructureError("signal has non-finite entries")
    return X.reshape(V, d, X.shape[1])


def _edge_residuals(edges: np.ndarray, maps: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Coboundary blocks F_tail x_tail - F_head x_head, shape (E, d, N), of
    the node signals ``xb`` (V, d, N) on the given edges."""
    return maps[:, 0] @ xb[edges[:, 0]] - maps[:, 1] @ xb[edges[:, 1]]


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
    return list(_edge_residuals(sheaf.edges, sheaf.maps, _node_signals(sheaf, x)))


def total_variation(L: SheafLaplacian, x) -> float:
    """Quadratic form tr(X^T L X), summed edge by edge as the squared edge
    disagreements ||F_tail x_tail - F_head x_head||^2. ``x`` is a
    ``Cochain0``, a (V*d) x N array, or a length-V*d vector (x^T L x)."""
    sheaf = L.sheaf
    xb = _node_signals(sheaf, x)
    tv = 0.0
    for start in range(0, sheaf.edge_count, EDGE_CHUNK):
        chunk = slice(start, start + EDGE_CHUNK)
        r = _edge_residuals(sheaf.edges[chunk], sheaf.maps[chunk], xb)
        tv += float(np.vdot(r, r))
    return tv


def _spanning_forest(node_count: int, edges: np.ndarray):
    """Breadth-first spanning forest of the graph on ``node_count`` nodes.

    Returns ``component`` (the component label of each node, labels
    0..K-1 in order of their smallest node, which is the root), ``depth``
    (BFS depth, 0 at the roots), ``parent_edge`` (the tree edge joining
    each non-root node to its parent, -1 at the roots) and ``in_tree``
    (a mask over the edges)."""
    adjacency = [[] for _ in range(node_count)]
    for e, (u, v) in enumerate(edges.tolist()):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    component = np.full(node_count, -1, dtype=np.intp)
    depth = np.zeros(node_count, dtype=np.intp)
    parent_edge = np.full(node_count, -1, dtype=np.intp)
    label = 0
    for root in range(node_count):
        if component[root] >= 0:
            continue
        component[root] = label
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v, e in adjacency[u]:
                    if component[v] < 0:
                        component[v] = label
                        depth[v] = depth[u] + 1
                        parent_edge[v] = e
                        nxt.append(v)
            frontier = nxt
        label += 1
    in_tree = np.zeros(len(edges), dtype=bool)
    in_tree[parent_edge[parent_edge >= 0]] = True
    return component, depth, parent_edge, in_tree


def global_section_dim(L: SheafLaplacian, tol: float = 1e-8) -> int:
    """Dimension of the global section space H^0 = ker L, counted by
    spanning-tree transport without forming or factoring L.

    With orthonormal maps a section is fixed on each connected component by
    its value a at the root: along a tree edge from parent p to child c,
    F_c x_c = F_p x_p forces x_c = T_c a with T_c = F_c^T F_p T_p, T_root = I.
    Only the non-tree (cycle) edges (u, v) then constrain a, through
    C_e = F_u T_u - F_v T_v, and the component contributes
    dim ker G_c, G_c = sum of C_e^T C_e over its cycle edges. A tree
    component or an isolated node contributes d. This costs O(E d^3) plus
    one d x d eigensolve per component with cycles, where the dense
    eigensolve of L costs O((V d)^3).

    Threshold: for a unit a, the tree-extended x (x_u = T_u a) has
    ||x||^2 = |c| and x^T L x = a^T G_c a, so an eigenvalue mu of G_c is
    |c| times the Rayleigh quotient in L of such a vector (and by Cauchy
    interlacing the k-th smallest mu / |c| is at least the k-th smallest
    eigenvalue of L on the component). The dense count takes eigenvalues of
    L below tol * lambda_max(L); here mu / |c| is compared with
    tol * 2 * maxdeg, maxdeg over the whole graph. With orthonormal maps,
    diagonal block u of L is deg(u) I, so maxdeg <= lambda_max(L) <= 2 maxdeg:
    the scale is within a factor of two of lambda_max(L) and needs no
    eigensolve. A sheaf without edges has h0 = V d.

    ``tol`` must lie in (0, 1).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    sheaf = L.sheaf
    V, d = sheaf.node_count, sheaf.ambient_dim
    edges, maps = sheaf.edges, sheaf.maps
    component, depth, parent_edge, in_tree = _spanning_forest(V, edges)
    sizes = np.bincount(component)

    # Transport the identity from each root, one BFS level at a time.
    T = np.empty((V, d, d))
    T[depth == 0] = np.eye(d)
    for level in range(1, int(depth.max()) + 1):
        child = np.flatnonzero(depth == level)
        e = parent_edge[child]
        side = (edges[e, 1] == child).astype(np.intp)  # child's end of e
        parent = edges[e, 1 - side]
        T[child] = maps[e, side].swapaxes(-1, -2) @ (maps[e, 1 - side] @ T[parent])

    cycle = np.flatnonzero(~in_tree)
    G = np.zeros((len(sizes), d, d))
    for start in range(0, len(cycle), EDGE_CHUNK):
        idx = cycle[start:start + EDGE_CHUNK]
        u, v = edges[idx, 0], edges[idx, 1]
        C = maps[idx, 0] @ T[u] - maps[idx, 1] @ T[v]
        np.add.at(G, component[u], C.swapaxes(-1, -2) @ C)

    cyclic = np.flatnonzero(np.bincount(component[edges[cycle, 0]], minlength=len(sizes)))
    h0 = d * (len(sizes) - len(cyclic))
    if len(cyclic):
        maxdeg = int(np.bincount(edges.ravel(), minlength=V).max())
        mu = np.linalg.eigvalsh(G[cyclic])
        h0 += int(np.count_nonzero(mu < (tol * 2 * maxdeg) * sizes[cyclic, None]))
    return h0
