"""Experiment drivers: the total-variation sweep over (alpha, SNR, E0), the
two-cluster comparison, and report/plot emission.

Per edge the total variation contributed by the learned sheaf equals the
candidate's alignment cost, so TV(E0) is the candidate table's prefix sum
of its sorted costs; agreement with the assembled Laplacian quadratic form
is covered by the cross-module tests.
"""

from __future__ import annotations

import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .denoise import DenoiseConfig, code_dataset
from .infer import MODES, enumerate_candidates, min_edges_for_connectivity, select_topology
from .plots import svg_line_chart
from .synth import SynthConfig, generate_cluster_scenario, generate_dataset

REPORT_HEADER = "mode,alpha,snr_db,e0,total_variation,intra_cluster_fraction,connect_min,wall_ms"


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the TV sweep. ``e0_grid = None`` sweeps from the
    earliest connectivity minimum of the two modes up to the complete graph."""

    alpha_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    snr_grid: tuple[float, ...] = (10.0, 20.0)
    e0_grid: tuple[int, ...] | None = None
    modes: tuple[str, ...] = ("aligned", "baseline")
    seed: int = 0
    node_count: int = 16
    ambient_dim: int = 64
    dims: object = ("uniform", 8, 32)
    snapshots: int = 512
    rho: float = 0.9

    def __post_init__(self):
        if not self.alpha_grid or not self.snr_grid or not self.modes:
            raise ValueError("grids must be nonempty")
        if operator.index(self.node_count) < 2:
            raise ValueError("a sweep needs at least two nodes")
        pairs = self.node_count * (self.node_count - 1) // 2
        if not all(0 <= operator.index(e0) <= pairs for e0 in self.e0_grid or ()):
            raise ValueError(f"every E0 must lie in [0, {pairs}], the node pair count")
        if not set(self.modes) <= set(MODES):
            raise ValueError(f"modes must be among {MODES}")
        # what every grid point builds, checked before any data is drawn
        for alpha in self.alpha_grid:
            DenoiseConfig(alpha=alpha)
        for snr_db in self.snr_grid:
            self._synth_config(snr_db, self.seed)

    def _synth_config(self, snr_db: float, seed: int) -> SynthConfig:
        return SynthConfig(node_count=self.node_count, ambient_dim=self.ambient_dim,
                           dims=self.dims, snapshots=self.snapshots, rho=self.rho,
                           snr_db=snr_db, seed=seed)


@dataclass(frozen=True)
class ReportRow:
    mode: str
    alpha: float
    snr_db: float
    e0: int
    total_variation: float
    intra_cluster_fraction: float | None
    connect_min: int
    wall_ms: float


@dataclass
class RunReport:
    rows: list[ReportRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.mode, r.alpha, r.snr_db, r.e0))

    def to_csv(self, path, include_timing: bool = False) -> None:
        """Write report.csv. Timing is volatile, so wall_ms is zeroed unless
        explicitly requested; everything else is deterministic."""
        lines = [REPORT_HEADER]
        for r in self.sorted_rows():
            frac = "" if r.intra_cluster_fraction is None else f"{r.intra_cluster_fraction:.12g}"
            ms = f"{r.wall_ms:.3f}" if include_timing else "0"
            lines.append(
                f"{r.mode},{r.alpha:.12g},{r.snr_db:.12g},{r.e0},"
                f"{r.total_variation:.12g},{frac},{r.connect_min},{ms}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def reps_from_codes(codes):
    return [(c.local_basis, c.compact_coeffs) for c in codes]


def intra_cluster_fraction(edges, labels) -> float:
    if not edges:
        return 0.0
    same = sum(1 for u, v in edges if labels[u] == labels[v])
    return same / len(edges)


def _sweep_point(spec: SweepSpec, alpha: float, snr_db: float, dataset) -> list[ReportRow]:
    """Denoise ``dataset`` (shared by every alpha at this SNR, read only)
    at ``alpha`` and tabulate TV(E0) per mode."""
    t0 = time.perf_counter()
    # only the compact forms are read: the full coefficients are dropped here
    reps = reps_from_codes(code_dataset(dataset, DenoiseConfig(alpha=alpha)))

    per_mode = {mode: enumerate_candidates(reps, mode=mode) for mode in spec.modes}

    if spec.e0_grid is not None:
        e0_values = list(spec.e0_grid)
    else:
        start = min(min_edges_for_connectivity(cands) for cands in per_mode.values())
        e0_values = list(range(start, spec.node_count * (spec.node_count - 1) // 2 + 1))

    wall_ms = (time.perf_counter() - t0) * 1000.0
    rows = []
    for mode, cands in per_mode.items():
        conn = min_edges_for_connectivity(cands)
        for e0 in e0_values:
            rows.append(ReportRow(
                mode=mode, alpha=alpha, snr_db=snr_db, e0=e0,
                total_variation=float(cands.tv_prefix[e0]),
                intra_cluster_fraction=None,
                connect_min=conn, wall_ms=wall_ms,
            ))
    return rows


def run_tv_sweep(spec: SweepSpec, threads: int = 1) -> RunReport:
    """Run the full pipeline at every (alpha, snr) grid point and tabulate
    TV(E0) per mode. Grid points are independent and may run concurrently."""
    data_seeds = [int(s) for s in np.random.SeedSequence(spec.seed).generate_state(
        len(spec.snr_grid), dtype=np.uint64) >> 1]
    # the data depends on (snr, seed) only: one dataset per SNR, read by every
    # alpha, generated as the points reach it (all at once when threaded)
    datasets = (generate_dataset(spec._synth_config(snr, seed))
                for snr, seed in zip(spec.snr_grid, data_seeds))
    points = (
        (alpha, snr, dataset)
        for snr, dataset in zip(spec.snr_grid, datasets)
        for alpha in spec.alpha_grid
    )
    report = RunReport()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_sweep_point, spec, a, s, data) for a, s, data in points]
            for f in futures:
                report.rows.extend(f.result())
    else:
        for a, s, data in points:
            report.rows.extend(_sweep_point(spec, a, s, data))
    report.rows = report.sorted_rows()
    return report


def run_cluster_experiment(seed: int, alpha: float = 8.0, snapshots: int = 512,
                           rho: float = 0.9, snr_db: float = 20.0):
    """Two-cluster comparison: infer the topology in both modes at each
    mode's own connectivity-minimum E0 and score the intra-cluster edge
    fraction. Returns (report, {mode: selection}, labels)."""
    t0 = time.perf_counter()
    dataset = generate_cluster_scenario(seed, snapshots=snapshots, rho=rho, snr_db=snr_db)
    labels = dataset.cluster_labels
    # only the compact forms are read: the full coefficients are dropped here
    reps = reps_from_codes(code_dataset(dataset, DenoiseConfig(alpha=alpha)))

    report = RunReport()
    graphs = {}
    for mode in ("aligned", "baseline"):
        cands = enumerate_candidates(reps, mode=mode)
        conn = min_edges_for_connectivity(cands)
        selection = select_topology(cands, conn)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        report.rows.append(ReportRow(
            mode=mode, alpha=alpha, snr_db=snr_db, e0=conn,
            total_variation=selection.total_cost,
            intra_cluster_fraction=intra_cluster_fraction(selection.selected, labels),
            connect_min=conn, wall_ms=wall_ms,
        ))
        graphs[mode] = selection
    return report, graphs, labels


def emit_plots(report: RunReport, out_dir) -> list[Path]:
    """One SVG panel per (alpha, snr): TV vs E0, solid aligned, dashed baseline."""
    rows = report.sorted_rows()
    if not rows:
        raise ValueError("empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels = sorted({(r.alpha, r.snr_db) for r in rows})
    paths = []
    for alpha, snr in panels:
        series = []
        for mode, style in (("aligned", "solid"), ("baseline", "dashed")):
            pts = [(r.e0, r.total_variation) for r in rows
                   if r.mode == mode and r.alpha == alpha and r.snr_db == snr]
            if pts:
                series.append((mode, style, pts))
        path = out / f"tv_alpha{alpha:g}_snr{snr:g}.svg"
        svg_line_chart(
            series, path,
            title=f"Total variation (alpha={alpha:g}, SNR={snr:g} dB)",
            xlabel="number of edges E0", ylabel="total variation",
        )
        paths.append(path)
    return paths
