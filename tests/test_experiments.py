import numpy as np
import pytest

from sheaflearn import (
    RunReport,
    SweepSpec,
    emit_plots,
    run_cluster_experiment,
    run_tv_sweep,
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
