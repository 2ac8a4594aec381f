"""Global topology selection: tabulate every candidate edge sorted by local
alignment cost, take the cheapest E0 (or the minimum needed for connectivity),
and assemble the learned sheaf with restriction maps for the kept edges only.
The pair math, batched scoring and the kept edges' map solve, lives in
``align`` beside its one-pair forms; this module tabulates, selects and
assembles.

The combinatorial objective sum_e a_e * cost_e with ||a||_0 = E0 is separable,
so the sorted-prefix greedy is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .align import EdgeCandidate, _checked_reps, _pair_distances, _score_pairs, _solve_maps
# re-exported: perfbench's timing sites and perfbench/selftest.py wrap these names here
from .align import procrustes_align, unaligned_distance  # noqa: F401
from .core import Sheaf
from .synth import _integer

# the scoring modes, written only here: cli's --mode and SweepSpec.modes read them
MODES = ("aligned", "baseline")


@dataclass(frozen=True, eq=False)
class Candidates:
    """Every scored node pair, one array per field, sorted once when built by
    (cost, u, v): the order in which selection keeps edges. ``sigma`` is
    (P, d) in aligned mode and (P, 0) in baseline mode. ``build_sheaf``
    solves maps from ``mode`` and ``reps``. Iterating or indexing yields
    ``EdgeCandidate`` rows."""

    u: np.ndarray
    v: np.ndarray
    cost: np.ndarray
    rank: np.ndarray
    degenerate: np.ndarray
    sigma: np.ndarray
    mode: str | None = None
    reps: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        order = np.lexsort((self.v, self.u, self.cost))
        for name in ("u", "v", "cost", "rank", "degenerate", "sigma"):
            column = np.asarray(getattr(self, name))[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.cost.size

    def _rows(self, pick):
        """The rows at ``pick``, a slice or a list of indices, one at a time."""
        return map(EdgeCandidate, self.u[pick].tolist(), self.v[pick].tolist(),
                   self.cost[pick].tolist(), map(tuple, self.sigma[pick].tolist()),
                   self.rank[pick].tolist(), self.degenerate[pick].tolist())

    def __iter__(self):
        return self._rows(slice(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        return next(self._rows([range(len(self))[index]]))  # range checks the index

    @cached_property
    def connected_at(self) -> int:
        """Smallest k such that the k cheapest pairs connect every node."""
        component = np.arange(max(self.u.max(), self.v.max()) + 1)
        merges = 0
        for k, (a, b) in enumerate(zip(self.u.tolist(), self.v.tolist()), start=1):
            if component[a] != component[b]:
                component[component == component[b]] = component[a]
                merges += 1
                if merges == component.size - 1:
                    return k
        raise ValueError("candidate set does not connect the graph")

    @cached_property
    def tv_prefix(self) -> np.ndarray:
        """tv_prefix[k] = total cost of the k cheapest pairs, summed in order."""
        return np.concatenate([[0.0], np.cumsum(self.cost)])


@dataclass(frozen=True)
class EdgeSelection:
    """Greedy selection result: the cheapest E0 rows of a candidate table."""

    candidates: Candidates
    E0: int

    @cached_property
    def selected(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.candidates.u[:self.E0].tolist(),
                         self.candidates.v[:self.E0].tolist()))

    @property
    def connected_at(self) -> int:
        return self.candidates.connected_at

    @property
    def total_cost(self) -> float:
        return float(self.candidates.tv_prefix[self.E0])


def enumerate_candidates(reps, mode: str = "aligned") -> Candidates:
    """Score every node pair; no restriction map is formed here.

    ``reps`` holds one (local_basis, compact_coeffs) pair per node. Aligned
    mode scores the optimal-map cost from QR-reduced Gram blocks (see
    ``align._score_pairs``); baseline mode keeps identity maps and scores
    the plain distance between the denoised signals (see
    ``align._pair_distances``). The ``Candidates`` table keeps ``mode`` and
    ``reps``, from which ``build_sheaf`` solves the maps of the edges that
    are kept. Non-finite entries and shapes that disagree with node 0 raise
    ``ValueError`` naming the node.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reps = _checked_reps(reps)
    if len(reps) < 2:
        raise ValueError(f"need at least two nodes, found {len(reps)}")
    score = _score_pairs if mode == "aligned" else _pair_distances
    return Candidates(*score(reps), mode, reps)


def min_edges_for_connectivity(candidates: Candidates) -> int:
    """Smallest k such that the k cheapest candidate edges connect the graph."""
    return candidates.connected_at


def select_topology(candidates: Candidates, E0: int) -> EdgeSelection:
    """Keep the E0 cheapest candidate edges (exact for the separable objective)."""
    E0 = _integer("E0", E0)
    if not (0 <= E0 <= len(candidates)):
        raise ValueError(f"E0 = {E0} outside [0, {len(candidates)}]")
    candidates.connected_at  # computed once per table; raises when disconnected
    return EdgeSelection(candidates, E0)


def build_sheaf(selection: EdgeSelection) -> Sheaf:
    """Assemble the learned sheaf from the winning candidates.

    Maps are solved here, for the selected edges only. Aligned candidates
    get F from ``align._solve_maps``, which writes them into the tail side
    of the map stack from the nodes' compact forms, bit for bit equal to
    ``procrustes_align``'s: the Procrustes map U -> V on the data's range
    and the direct rotation of its complement (the optimal map closest to
    I), so it is I outside the two nodes' bases. F sits on the candidate's u
    side, the tail, since the table's pairs are already min -> max; the head
    side of the map stack is the identity. Baseline candidates get the
    identity on both sides, as one d x d identity broadcast to the
    (E0, 2, d, d) stack. Every node gets the full ambient dimension as its
    stalk. The ``Sheaf`` is built directly from the stack, which its
    constructor checks once.
    """
    table = selection.candidates
    if table.reps is None:
        raise ValueError("candidates carry no node representations; "
                         "score them with enumerate_candidates")
    d = table.reps[0][0].shape[0]
    u, v = table.u[:selection.E0], table.v[:selection.E0]
    if table.mode == "aligned":
        maps = np.empty((selection.E0, 2, d, d))
        maps[:, 1] = np.eye(d)
        _solve_maps(table.reps, u, v, maps[:, 0])
    else:
        maps = np.broadcast_to(np.eye(d), (selection.E0, 2, d, d))
    return Sheaf(len(table.reps), d, np.stack((u, v), axis=1), maps)
