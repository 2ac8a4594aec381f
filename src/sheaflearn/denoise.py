"""Block-sparse coding of node observations over a known dictionary.

Each node is denoised independently by solving

    min_S  ||X - D S||_F^2 + alpha * ||S||_{2,1}

where ||S||_{2,1} sums the l2 norms of the ROWS of S, killing entire atoms.
With an orthonormal dictionary (D^T D = I, read off the atoms; every
dictionary the pipeline codes) the objective is
||D^T X - S||_F^2 + alpha * ||S||_{2,1} plus a constant, which separates by
rows, so the minimizer is one row-wise group soft-threshold,
S* = rowshrink(D^T X, alpha/2) (Yuan & Lin 2006): closed form, no
iteration. Any other dictionary is solved by proximal gradient
(ISTA) with step 1/sigma_max(D)^2 and the same threshold at alpha*step/2;
its iteration cap and stopping tolerance are keywords of
``block_sparse_code``, the one place that reads them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import _orthonormal
from .synth import _integer, _real, _scatter_rows


class EmptySupportError(ValueError):
    """A support threshold of 1 or more cut a nonzero code to nothing; an
    all-zero code is not an error, it has the empty support."""


class SolverWarning(UserWarning):
    """ISTA on a general dictionary ran ``max_iters`` iterations without the
    relative objective change falling below ``rel_tol``."""


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Known synthesis dictionary with d-dimensional atoms as columns.
    ``orthonormal`` is read off the atoms, not set by the caller: it is true
    when they pass core's orthonormality test, max |D^T D - I| <= ORTHO_TOL,
    the one that restriction maps pass, and it picks the closed form in
    ``block_sparse_code``."""

    atoms: np.ndarray
    orthonormal: bool = field(init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite entries in the dictionary atoms")
        if a.shape[1] == 0:
            raise ValueError("dictionary has no atoms")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "orthonormal", bool(_orthonormal(a[None])[0]))

    @property
    def signal_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class DenoiseConfig:
    """The l2,1 weight ``alpha`` and the relative support cut, the two
    settings that every dictionary is coded with. ISTA's iteration cap and
    stopping tolerance are keywords of ``block_sparse_code``."""

    alpha: float = 0.5
    support_threshold: float = 1e-6  # relative to the largest row norm

    def __post_init__(self):
        if _real("alpha", self.alpha) < 0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 <= _real("support_threshold", self.support_threshold) < 1:
            raise ValueError(f"support_threshold must lie in [0, 1), got {self.support_threshold}")


@dataclass(eq=False)
class SparseCode:
    """Result of coding one node, with the coefficients S held by their rows.

    ``compact_coeffs`` holds the support rows of S, the rows whose norm
    passes the support threshold; ``minor_support`` and ``minor_coeffs``
    hold the other nonzero rows, those below the threshold; every other row
    of S is zero. ``sign_bits`` is ``np.packbits`` of S's sign bits in
    row-major order (K N / 8 bytes), which keeps the -0.0 entries that the
    row shrink leaves in a zeroed row. ``coefficients`` builds the K x N
    matrix S from these, bit for bit, on every read (it is not cached).

    ``local_basis @ compact_coeffs`` reproduces ``dictionary.atoms @ coefficients``
    with the below-threshold rows zeroed; a code that alpha zeroed whole has
    support ``()``, a (d, 0) basis and a (0, N) compact form.
    ``objective_trace`` holds the objective at each iterate, ``objective`` the
    last. A closed-form code (``dictionary.orthonormal``) has ``iterations``
    0, ``converged`` True, ``final_rel_change`` 0.0 and the objective at S*
    as its one trace entry.
    """

    dictionary: Dictionary
    support: tuple[int, ...]          # atom indices with surviving row norm
    local_basis: np.ndarray           # d x d_u
    compact_coeffs: np.ndarray        # d_u x N, the support rows of S
    minor_support: tuple[int, ...]    # the nonzero rows of S below the threshold
    minor_coeffs: np.ndarray          # len(minor_support) x N, those rows
    sign_bits: np.ndarray             # np.packbits(np.signbit(S)), K N / 8 bytes
    objective: float
    converged: bool
    iterations: int
    final_rel_change: float
    objective_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def subspace_dim(self) -> int:
        return len(self.support)

    @property
    def coefficients(self) -> np.ndarray:
        """S, K x N, built from the rows and the sign bits on every read."""
        K, N = self.dictionary.atom_count, self.compact_coeffs.shape[1]
        S = _scatter_rows(self.compact_coeffs, self.support, K)
        S[list(self.minor_support)] = self.minor_coeffs
        negative = np.unpackbits(self.sign_bits, count=K * N).reshape(K, N).view(bool)
        # sets the sign of the zeros; a nonzero entry already has its own
        return np.copysign(S, -1.0, out=S, where=negative)


def _row_norms(S: np.ndarray) -> np.ndarray:
    """The l2 norm of each row."""
    return np.sqrt(np.sum(S * S, axis=1))


def l21_norm(S: np.ndarray) -> float:
    """Sum of the l2 norms of the rows."""
    return float(np.sum(_row_norms(S)))


def coding_objective(X: np.ndarray, D: Dictionary, S: np.ndarray, alpha: float) -> float:
    return _objective(X, D, S, alpha)[0]


def _objective(X: np.ndarray, D: Dictionary, S: np.ndarray, alpha: float):
    """The coding objective and the residual X - D S it is formed from."""
    resid = X - D.atoms @ S
    return float(np.sum(resid * resid)) + alpha * l21_norm(S), resid


def _row_shrink(S: np.ndarray, kappa: float) -> np.ndarray:
    """Group soft-threshold of the rows: scale each row by max(0, 1 - kappa/||row||)."""
    norms = _row_norms(S)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - kappa / norms[nz])
    return S * scale[:, None]


def stationarity_residual(X: np.ndarray, D: Dictionary, S: np.ndarray, alpha: float) -> float:
    """Row-wise optimality residual of the l2,1 problem, relative to the data scale.

    Zero rows: distance of ||2 D^T X - 2 D^T D S||_row above alpha.
    Nonzero rows: norm of 2 D^T(DS - X) + alpha * row/||row||.
    """
    G = 2.0 * D.atoms.T @ (D.atoms @ S - X)
    norms = _row_norms(S)
    worst = 0.0
    for k in range(S.shape[0]):
        if norms[k] > 0:
            r = np.linalg.norm(G[k] + alpha * S[k] / norms[k])
        else:
            r = max(0.0, np.linalg.norm(G[k]) - alpha)
        worst = max(worst, r)
    scale = max(1.0, 2.0 * np.linalg.norm(D.atoms.T @ X) + alpha)
    return worst / scale


def _checked_observations(X, D: Dictionary) -> np.ndarray:
    """``X`` as a 2-D float array, checked for finite entries and for one row
    per atom coordinate."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite entries in the observations")
    if X.shape[0] != D.signal_dim:
        raise ValueError(f"signal has {X.shape[0]} rows, dictionary atoms have {D.signal_dim}")
    return X


def block_sparse_code(X: np.ndarray, D: Dictionary, cfg: DenoiseConfig, *,
                      max_iters: int = 5000, rel_tol: float = 1e-8) -> SparseCode:
    """Solve the row-sparse coding problem for one node's observations.

    A ``D`` whose atoms pass the orthonormality test (``D.orthonormal``)
    gets the closed form S* = rowshrink(D^T X, alpha/2): the objective is
    evaluated once, at S*, and the code reports 0 iterations, converged. It
    is exact for D^T D = I; within the test's tolerance
    (max |D^T D - I| <= ORTHO_TOL) S* moves off the optimum by about that
    defect times the coefficients' scale, which leaves a relative duality gap
    near 5e-8 at 0.9 * ORTHO_TOL.
    Any other ``D`` runs ISTA (``_ista``) from S = 0 until the relative
    objective change drops below ``rel_tol`` or ``max_iters`` is reached (the
    latter emits SolverWarning; the last iterate is still returned with its
    final relative change). Only such a ``D`` reads the two keywords, but
    bad values are rejected for either kind. Non-finite observations raise
    ``ValueError`` before the objective is first evaluated.
    """
    if not 0 < _real("rel_tol", rel_tol) < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if _integer("max_iters", max_iters) < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    X = _checked_observations(X, D)
    if D.orthonormal:
        # D^T D = I separates the objective by rows: S* is one group soft-threshold
        S = _row_shrink(D.atoms.T @ X, cfg.alpha / 2.0)
        trace, iterations, rel_change = [coding_objective(X, D, S, cfg.alpha)], 0, 0.0
    else:
        S, trace, iterations, rel_change = _ista(X, D, cfg.alpha, max_iters, rel_tol)

    support, basis, compact = extract_support(S, D, cfg.support_threshold)
    nonzero = S.any(axis=1)
    nonzero[list(support)] = False
    minor = np.flatnonzero(nonzero)
    return SparseCode(
        dictionary=D,
        support=support,
        local_basis=basis,
        compact_coeffs=compact,
        minor_support=tuple(minor.tolist()),
        minor_coeffs=S[minor],
        sign_bits=np.packbits(np.signbit(S)),
        objective=trace[-1],
        converged=bool(rel_change < rel_tol),
        iterations=iterations,
        final_rel_change=float(rel_change),
        objective_trace=trace,
    )


def _ista(X: np.ndarray, D: Dictionary, alpha: float, max_iters: int, rel_tol: float):
    """Proximal gradient from S = 0 with step 1/sigma_max(D)^2: the last
    iterate, the objective at every iterate, the iteration count and the last
    relative objective change. Stopping at ``max_iters`` emits SolverWarning."""
    smax = np.linalg.norm(D.atoms, 2)
    if smax == 0.0:
        raise ValueError("dictionary is identically zero")
    step = 1.0 / smax ** 2
    kappa = alpha * step / 2.0
    S = np.zeros((D.atom_count, X.shape[1]))
    f, resid = _objective(X, D, S, alpha)
    trace = [f]
    for it in range(1, max_iters + 1):
        # S - step * D^T (D S - X), from the residual the objective just formed
        S = _row_shrink(S + step * (D.atoms.T @ resid), kappa)
        f, resid = _objective(X, D, S, alpha)
        rel_change = abs(trace[-1] - f) / max(1.0, abs(trace[-1]))
        trace.append(f)
        if rel_change < rel_tol:
            return S, trace, it, rel_change
    warnings.warn(
        f"block_sparse_code: no convergence in {max_iters} iterations "
        f"(final relative change {rel_change:.3e})",
        SolverWarning,
    )
    return S, trace, max_iters, rel_change


def extract_support(S: np.ndarray, D: Dictionary, threshold: float):
    """Rows whose l2 norm exceeds threshold * max_row_norm, plus the compact form.
    An all-zero ``S`` (alpha killed every row; S = 0 is still the minimizer)
    has the empty support: ``()``, a (d, 0) basis and a (0, N) compact form."""
    norms = _row_norms(S)
    keep = np.flatnonzero(norms > threshold * norms.max(initial=0.0))
    if keep.size == 0 and norms.any():
        raise EmptySupportError("every coefficient row fell below the support threshold")
    return tuple(int(k) for k in keep), D.atoms[:, keep], S[keep, :]


def _checked_nodes(dataset) -> list[tuple[np.ndarray, Dictionary]]:
    """Each node's (observations, orthonormal dictionary), every node checked
    before any is coded. Bad input at a node (a non-finite entry, a shape
    mismatch, a dictionary that fails the orthonormality test) raises
    ``ValueError`` naming the node."""
    nodes = []
    for u, node in enumerate(dataset.nodes):
        try:
            D = Dictionary(node.dictionary)
            if not D.orthonormal:
                raise ValueError("dictionary is not orthonormal: D^T D != I")
            nodes.append((_checked_observations(node.observations, D), D))
        except ValueError as exc:
            raise ValueError(f"node {u}: {exc}") from None
    return nodes


def code_dataset(dataset, cfg: DenoiseConfig) -> list[SparseCode]:
    """Code every node of a synthetic dataset against its own dictionary.
    Every node's input is checked before the first is coded (see
    ``_checked_nodes``)."""
    return [block_sparse_code(X, D, cfg) for X, D in _checked_nodes(dataset)]
