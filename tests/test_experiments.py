import re
from dataclasses import replace

import numpy as np
import pytest

import sheaflearn.experiments as experiments
from sheaflearn import (
    DenoiseConfig,
    RunReport,
    SweepSpec,
    SynthConfig,
    code_dataset,
    emit_plots,
    enumerate_candidates,
    generate_cluster_scenario,
    generate_dataset,
    min_edges_for_connectivity,
    run_cluster_experiment,
    run_tv_sweep,
    select_topology,
)
from sheaflearn.experiments import REPORT_HEADER, ReportRow, intra_cluster_fraction

SMALL = SweepSpec(
    alpha_grid=(0.2, 1.0),
    snr_grid=(10.0, 20.0),
    e0_grid=(0, 3, 10, 20, 28),
    seed=3,
    node_count=8,
    ambient_dim=16,
    dims=("uniform", 2, 8),
    snapshots=64,
)


@pytest.fixture(scope="module")
def small_report():
    return run_tv_sweep(SMALL)


def test_row_count_and_schema(small_report):
    # one row per (mode, alpha, snr, e0)
    assert len(small_report.rows) == 2 * 2 * 2 * 5
    keys = {(r.mode, r.alpha, r.snr_db, r.e0) for r in small_report.rows}
    assert len(keys) == len(small_report.rows)


def test_aligned_dominates_baseline(small_report):
    tv = {(r.mode, r.alpha, r.snr_db, r.e0): r.total_variation for r in small_report.rows}
    for (mode, a, s, e0), v in tv.items():
        if mode == "aligned":
            assert v <= tv[("baseline", a, s, e0)] + 1e-9


def test_zero_edges_zero_tv(small_report):
    for r in small_report.rows:
        if r.e0 == 0:
            assert r.total_variation == 0.0


def test_tv_nondecreasing_in_e0(small_report):
    for mode in ("aligned", "baseline"):
        for a in SMALL.alpha_grid:
            for s in SMALL.snr_grid:
                vals = [r.total_variation for r in small_report.sorted_rows()
                        if (r.mode, r.alpha, r.snr_db) == (mode, a, s)]
                assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_threaded_matches_serial(small_report):
    threaded = run_tv_sweep(SMALL, threads=4)

    def stable(rows):  # wall_ms is volatile by nature
        return [(r.mode, r.alpha, r.snr_db, r.e0, r.total_variation, r.connect_min)
                for r in rows]

    assert stable(threaded.sorted_rows()) == stable(small_report.sorted_rows())


@pytest.mark.parametrize("threads", [1, 2])
def test_one_dataset_per_snr(small_report, monkeypatch, threads):
    import sheaflearn.experiments as experiments

    calls = []
    original = experiments.generate_dataset

    def counted(cfg):
        calls.append(cfg.snr_db)
        return original(cfg)

    monkeypatch.setattr(experiments, "generate_dataset", counted)
    report = run_tv_sweep(SMALL, threads=threads)
    assert calls == list(SMALL.snr_grid)
    assert [(r.mode, r.alpha, r.snr_db, r.e0, r.total_variation) for r in report.rows] == \
        [(r.mode, r.alpha, r.snr_db, r.e0, r.total_variation) for r in small_report.rows]


def test_report_csv_deterministic(small_report, tmp_path):
    small_report.to_csv(tmp_path / "a.csv")
    small_report.to_csv(tmp_path / "b.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a.decode().splitlines()[0] == REPORT_HEADER


def test_emit_plots(small_report, tmp_path):
    paths = emit_plots(small_report, tmp_path / "p1")
    assert len(paths) == 4  # 2 alphas x 2 snrs
    again = emit_plots(small_report, tmp_path / "p2")
    for p, q in zip(paths, again):
        assert p.read_bytes() == q.read_bytes()
    body = paths[0].read_text()
    assert "polyline" in body and "dasharray" in body


def test_emit_plots_names_panels_as_the_report_prints_them(tmp_path):
    # %g keeps 6 significant digits, so both panels were tv_alpha0.1_snr20.svg
    report = RunReport([ReportRow(mode, alpha, 20.0, e0, tv, None, 1, 0.0)
                        for mode in ("aligned", "baseline") for alpha in (0.1, 0.1000001)
                        for e0, tv in ((1, 1.0), (2, 3.0))])
    paths = emit_plots(report, tmp_path)
    assert [p.name for p in paths] == ["tv_alpha0.1_snr20.svg", "tv_alpha0.1000001_snr20.svg"]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert "alpha=0.1000001," in paths[1].read_text()


def test_emit_plots_empty_report(tmp_path):
    with pytest.raises(ValueError):
        emit_plots(RunReport(), tmp_path)


def test_intra_cluster_fraction():
    labels = [0, 0, 1, 1]
    assert intra_cluster_fraction([(0, 1), (2, 3)], labels) == 1.0
    assert intra_cluster_fraction([(0, 2), (1, 3)], labels) == 0.0
    assert intra_cluster_fraction([], labels) == 0.0


def test_cluster_experiment_smoke():
    report, graphs, labels = run_cluster_experiment(0, snapshots=128)
    rows = {r.mode: r for r in report.rows}
    assert rows["aligned"].intra_cluster_fraction > rows["baseline"].intra_cluster_fraction
    assert rows["aligned"].e0 == rows["aligned"].connect_min
    assert len(graphs["aligned"].selected) == rows["aligned"].e0
    assert labels == (0,) * 8 + (1,) * 8
    # aligned mode at its connectivity minimum: all but the bridge edge intra
    sel = graphs["aligned"].selected
    intra = sum(1 for u, v in sel if labels[u] == labels[v])
    assert intra >= len(sel) - 2


@pytest.mark.parametrize("kwargs", [
    {"node_count": 1},
    {"node_count": 8, "e0_grid": (0, 29)},
    {"node_count": 8, "e0_grid": (-1,)},
    {"modes": ("aligned", "other")},
    {"alpha_grid": (0.5, -1.0)},
    {"snr_grid": (20.0, float("nan"))},
    {"rho": 1.5},
    {"dims": 65},
    {"seed": -3},
    {"node_count": 8, "e0_grid": ()},
])
def test_spec_rejected_before_any_data_is_drawn(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)
    assert SweepSpec(node_count=8, e0_grid=(0, 28)).e0_grid == (0, 28)


@pytest.mark.parametrize("kwargs, message", [
    ({"node_count": 8.0}, "node_count must be an integer, got 8.0"),
    ({"node_count": 8, "e0_grid": (0, 2.5)}, "e0_grid entry must be an integer, got 2.5"),
    ({"snapshots": 8.5}, "snapshots must be an integer, got 8.5"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
], ids=["node_count", "e0_grid", "snapshots", "seed"])
def test_non_integer_count_names_its_field(kwargs, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        SweepSpec(**kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"snr_grid": (20.0, 20.0)}, "snr_grid"),
    ({"alpha_grid": (0.5, 0.5)}, "alpha_grid"),
    ({"alpha_grid": (0.1, 0.1 + 1e-14)}, "alpha_grid"),  # both print as 0.1
    ({"node_count": 8, "e0_grid": (2, 5, 2)}, "e0_grid"),
    ({"modes": ("aligned", "aligned")}, "modes"),
], ids=["snr", "alpha", "alpha_as_printed", "e0", "modes"])
def test_repeated_grid_value_rejected(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} values must be distinct"):
        SweepSpec(**kwargs)
    assert SweepSpec(alpha_grid=(0.1, 0.1000001)).alpha_grid == (0.1, 0.1000001)


def no_draw(*args, **kwargs):
    raise AssertionError("drew data for a run that cannot be made")


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected_before_drawing(monkeypatch, threads):
    monkeypatch.setattr(experiments, "generate_dataset", no_draw)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_tv_sweep(SMALL, threads=threads)


def test_boolean_thread_count_rejected_before_drawing(monkeypatch):
    monkeypatch.setattr(experiments, "generate_dataset", no_draw)
    with pytest.raises(TypeError, match="^threads must be an integer, got True$"):
        run_tv_sweep(SMALL, threads=True)


def test_cluster_alpha_checked_before_drawing(monkeypatch):
    monkeypatch.setattr(experiments, "generate_cluster_scenario", no_draw)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        run_cluster_experiment(0, alpha=-1.0)


def compact_reps(dataset, alpha):
    return [(c.local_basis, c.compact_coeffs)
            for c in code_dataset(dataset, DenoiseConfig(alpha=alpha))]


@pytest.mark.parametrize("spec", [
    SMALL,
    replace(SMALL, alpha_grid=(0.5,), snr_grid=(15.0,), e0_grid=None, seed=4),
])
def test_sweep_rows_equal_the_pipeline_written_out(spec):
    seeds = np.random.SeedSequence(spec.seed).generate_state(
        len(spec.snr_grid), dtype=np.uint64) >> 1
    pairs = spec.node_count * (spec.node_count - 1) // 2
    expected = []
    for snr_db, seed in zip(spec.snr_grid, seeds.tolist()):
        dataset = generate_dataset(SynthConfig(
            node_count=spec.node_count, ambient_dim=spec.ambient_dim, dims=spec.dims,
            snapshots=spec.snapshots, rho=spec.rho, snr_db=snr_db, seed=seed))
        for alpha in spec.alpha_grid:
            reps = compact_reps(dataset, alpha)
            tables = {mode: enumerate_candidates(reps, mode) for mode in spec.modes}
            connect = {mode: min_edges_for_connectivity(t) for mode, t in tables.items()}
            e0_values = spec.e0_grid or range(min(connect.values()), pairs + 1)
            expected += [(mode, alpha, snr_db, e0, float(table.tv_prefix[e0]), None,
                          connect[mode])
                         for mode, table in tables.items() for e0 in e0_values]
    rows = run_tv_sweep(spec).rows
    assert [(r.mode, r.alpha, r.snr_db, r.e0, r.total_variation, r.intra_cluster_fraction,
             r.connect_min) for r in rows] == sorted(expected, key=lambda row: row[:4])


def test_cluster_rows_equal_the_pipeline_written_out():
    report, graphs, labels = run_cluster_experiment(1, alpha=6.0, snapshots=64, rho=0.8,
                                                    snr_db=25.0)
    dataset = generate_cluster_scenario(1, snapshots=64, rho=0.8, snr_db=25.0)
    assert labels == dataset.cluster_labels
    reps = compact_reps(dataset, 6.0)
    assert [r.mode for r in report.rows] == ["aligned", "baseline"]
    for row in report.rows:
        table = enumerate_candidates(reps, row.mode)
        selection = select_topology(table, table.connected_at)
        assert graphs[row.mode].selected == selection.selected
        assert (row.alpha, row.snr_db, row.e0, row.total_variation,
                row.intra_cluster_fraction, row.connect_min) == \
            (6.0, 25.0, table.connected_at, selection.total_cost,
             intra_cluster_fraction(selection.selected, labels), table.connected_at)
