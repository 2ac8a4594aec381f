"""Correctness checks written independently of the code under test.

Each check returns a list of failure messages; an empty list is a pass. None
of them calls into sheaflearn: costs come from a direct singular value
decomposition and connectivity from the benchmark's own union-find.
"""

from __future__ import annotations

import numpy as np

COST_RTOL = 1e-9
ORTHO_TOL = 1e-9
TV_RTOL = 1e-9


def oracle_costs(signals) -> dict[tuple[int, int], tuple[float, float]]:
    """(u, v) -> (cost, scale) with cost = ||X_u||^2 + ||X_v||^2 - 2 sum sigma(X_u X_v^T)
    and scale = ||X_u||^2 + ||X_v||^2, for every pair u < v."""
    sq = [float(np.sum(x * x)) for x in signals]
    out = {}
    for u in range(len(signals)):
        for v in range(u + 1, len(signals)):
            sigma = np.linalg.svd(signals[u] @ signals[v].T, compute_uv=False)
            out[(u, v)] = (sq[u] + sq[v] - 2.0 * float(np.sum(sigma)), sq[u] + sq[v])
    return out


def check_candidate_costs(candidates, oracle, rtol=COST_RTOL) -> list[str]:
    """Every pair appears once and its cost matches the oracle to rtol * scale."""
    failures = []
    seen = set()
    for c in candidates:
        pair = (min(c.u, c.v), max(c.u, c.v))
        if pair in seen:
            failures.append(f"pair {pair} listed twice")
            continue
        seen.add(pair)
        if pair not in oracle:
            failures.append(f"pair {pair} is not a node pair")
            continue
        cost, scale = oracle[pair]
        if not abs(c.cost - cost) <= rtol * max(scale, 1.0):
            failures.append(f"pair {pair}: cost {c.cost!r} vs oracle {cost!r} (scale {scale:.6g})")
    absent = len(set(oracle) - seen)
    if absent:
        failures.append(f"{absent} node pairs have no candidate")
    return failures


def _tolerance(oracle, rtol) -> float:
    return rtol * max((scale for _, scale in oracle.values()), default=1.0)


def check_selection(selected, E0: int, oracle, rtol=COST_RTOL) -> list[str]:
    """The selected pairs are E0 distinct pairs that are cheapest under the
    oracle costs; pairs whose costs tie within tolerance may trade places."""
    pairs = [(min(u, v), max(u, v)) for u, v in selected]
    failures = []
    if len(pairs) != E0:
        failures.append(f"{len(pairs)} edges selected, E0 = {E0}")
    if len(set(pairs)) != len(pairs):
        failures.append("selected edges repeat a pair")
    unknown = [p for p in pairs if p not in oracle]
    if unknown:
        return failures + [f"selected pairs {unknown[:3]} are not node pairs"]
    if not pairs:
        return failures
    tol = _tolerance(oracle, rtol)
    chosen = set(pairs)
    worst_in = max(oracle[p][0] for p in chosen)
    best_out = min((c for p, (c, _) in oracle.items() if p not in chosen), default=np.inf)
    if worst_in > best_out + tol:
        failures.append(
            f"a selected edge costs {worst_in!r} while an unselected one costs {best_out!r}"
        )
    return failures


def connected_at(oracle, node_count: int) -> int:
    """Shortest cost-ascending prefix of the oracle pairs that connects the graph."""
    parent = list(range(node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = node_count
    if components <= 1:
        return 0
    ordered = sorted(oracle, key=lambda p: (oracle[p][0], p))
    for k, (u, v) in enumerate(ordered, start=1):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
            if components == 1:
                return k
    return -1


def check_orthonormal(matrices, tol=ORTHO_TOL) -> list[str]:
    failures = []
    for i, m in enumerate(matrices):
        m = np.asarray(m, float)
        err = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))
        if not err <= tol:
            failures.append(f"map {i}: max |F^T F - I| = {err:.3e}")
    return failures


def check_total_variation(tv: float, selected, oracle, rtol=TV_RTOL) -> list[str]:
    expected = sum(oracle[(min(u, v), max(u, v))][0] for u, v in selected)
    if not abs(tv - expected) <= rtol * max(abs(expected), 1.0):
        return [f"total variation {tv!r} vs sum of selected oracle costs {expected!r}"]
    return []


def check_aligned_below_baseline(rows, rtol=TV_RTOL) -> list[str]:
    """At every (alpha, snr, E0) point the aligned TV is at most the baseline TV."""
    by_point = {}
    for r in rows:
        by_point.setdefault((r.alpha, r.snr_db, r.e0), {})[r.mode] = r.total_variation
    failures = []
    for point, modes in sorted(by_point.items()):
        if set(modes) != {"aligned", "baseline"}:
            failures.append(f"point {point} lacks a mode: {sorted(modes)}")
        elif not modes["aligned"] <= modes["baseline"] + rtol * max(1.0, abs(modes["baseline"])):
            failures.append(
                f"point {point}: aligned TV {modes['aligned']!r} > baseline {modes['baseline']!r}"
            )
    if not by_point:
        failures.append("sweep report has no rows")
    return failures


def check_cluster_fraction(rows, seed) -> list[str]:
    """The aligned topology keeps a larger intra-cluster fraction than the baseline."""
    frac = {r.mode: r.intra_cluster_fraction for r in rows}
    if set(frac) != {"aligned", "baseline"}:
        return [f"cluster seed {seed}: modes {sorted(frac)}"]
    if not frac["aligned"] > frac["baseline"]:
        return [f"cluster seed {seed}: aligned fraction {frac['aligned']} "
                f"<= baseline {frac['baseline']}"]
    return []
