import json
from pathlib import Path

import numpy as np
import pytest

import sheaflearn.cli
import sheaflearn.serialize
from sheaflearn.cli import main
from sheaflearn.serialize import matrix_from_csv, matrix_to_csv
from conftest import oracle_candidates_to_csv, oracle_matrix_to_csv, oracle_save_sheaf


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc))
    return str(path)


GEN_CFG = {"node_count": 4, "ambient_dim": 8, "dims": 3, "snapshots": 12,
           "rho": 0.5, "snr_db": 20.0, "seed": 5}


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir()) if p.is_file()}


def run_pipeline(tmp_path, tag, cfg_path):
    data = tmp_path / f"data_{tag}"
    codes = tmp_path / f"codes_{tag}"
    inferred = tmp_path / f"inferred_{tag}"
    assert main(["generate", "--config", cfg_path, "--out", str(data)]) == 0
    assert main(["denoise", "--data", str(data), "--out", str(codes)]) == 0
    assert main(["infer", "--data", str(codes), "--out", str(inferred),
                 "--mode", "aligned", "--e0", "auto"]) == 0
    return data, codes, inferred


def test_generate_denoise_infer_chain(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    data, codes, inferred = run_pipeline(tmp_path, "a", cfg)
    assert (data / "manifest.json").exists()
    assert (codes / "codes.json").exists()
    for name in ("selection.json", "candidates.csv", "sheaf.json",
                 "graph.graphml", "graph.dot"):
        assert (inferred / name).exists()
    sel = json.loads((inferred / "selection.json").read_text())
    assert sel["E0"] == sel["connected_at"]


def test_pipeline_deterministic(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    outs_a = run_pipeline(tmp_path, "a", cfg)
    outs_b = run_pipeline(tmp_path, "b", cfg)
    for da, db in zip(outs_a, outs_b):
        assert dir_bytes(da) == dir_bytes(db)


def test_explicit_e0_and_baseline_mode(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    _, codes, _ = run_pipeline(tmp_path, "a", cfg)
    out = tmp_path / "baseline"
    assert main(["infer", "--data", str(codes), "--out", str(out),
                 "--mode", "baseline", "--e0", "2"]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["selected"]) == 2


SWEEP_CFG = {"alpha_grid": [0.5], "snr_grid": [20.0], "e0_grid": [0, 2, 5],
             "seed": 1, "node_count": 5, "ambient_dim": 8, "dims": 3,
             "snapshots": 16}


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    for tag in ("a", "b"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
    report = (tmp_path / "a" / "report.csv").read_text().splitlines()
    assert report[0] == "mode,alpha,snr_db,e0,total_variation,intra_cluster_fraction,connect_min,wall_ms"
    assert len(report) == 1 + 2 * 3
    assert any(p.suffix == ".svg" for p in (tmp_path / "a").iterdir())
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["tool"] == "sheaflearn"


def test_cluster_outputs_and_determinism(tmp_path):
    cfg = write_json(tmp_path / "cluster.json", {"snapshots": 64})
    for tag in ("a", "b"):
        assert main(["cluster", "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path / tag)]) == 0
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
    for name in ("report.csv", "graph_aligned.graphml", "graph_baseline.graphml",
                 "graph_aligned.dot", "graph_baseline.dot", "manifest.json"):
        assert (tmp_path / "a" / name).exists()
    graphml = (tmp_path / "a" / "graph_aligned.graphml").read_text()
    assert graphml.count("<node") == 16


def run_with_export(tmp_path, tag, cfg_path):
    """File bytes of the data, codes, inferred and export directories."""
    *dirs, inferred = run_pipeline(tmp_path, tag, cfg_path)
    export = tmp_path / f"export_{tag}"
    assert main(["export", "--sheaf", str(inferred / "sheaf.json"),
                 "--out", str(export), "--formats", "graphml,dot,csv"]) == 0
    return [dir_bytes(d) for d in (*dirs, inferred, export)]


def test_artifacts_match_reference_writers(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    fast = run_with_export(tmp_path, "fast", cfg)
    for module in (sheaflearn.serialize, sheaflearn.cli):
        monkeypatch.setattr(module, "matrix_to_csv", oracle_matrix_to_csv)
    monkeypatch.setattr(sheaflearn.cli, "save_sheaf", oracle_save_sheaf)
    monkeypatch.setattr(sheaflearn.cli, "candidates_to_csv", oracle_candidates_to_csv)
    reference = run_with_export(tmp_path, "reference", cfg)
    assert any(name.endswith("_F_head.csv") for name in fast[-1])
    for stage, fast_tree, reference_tree in zip(("data", "codes", "inferred", "export"),
                                                fast, reference):
        assert fast_tree == reference_tree, stage


def test_empty_support_node_through_files(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    data, codes = tmp_path / "data", tmp_path / "codes"
    assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
    # zero observations code to an empty support
    obs = data / "node_002_observations.csv"
    matrix_to_csv(np.zeros_like(matrix_from_csv(obs)), obs)
    assert main(["denoise", "--data", str(data), "--out", str(codes)]) == 0
    doc = json.loads((codes / "codes.json").read_text())
    assert doc["codes"][2]["support"] == []
    assert matrix_from_csv(codes / "code_002_local_basis.csv").shape == (GEN_CFG["ambient_dim"], 0)
    out = tmp_path / "inferred"
    assert main(["infer", "--data", str(codes), "--out", str(out),
                 "--mode", "aligned", "--e0", "auto"]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert any(2 in pair for pair in sel["selected"])


def test_export(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    _, _, inferred = run_pipeline(tmp_path, "a", cfg)
    out = tmp_path / "export"
    assert main(["export", "--sheaf", str(inferred / "sheaf.json"),
                 "--out", str(out), "--formats", "graphml,dot,csv"]) == 0
    assert (out / "sheaf.graphml").exists()
    assert (out / "sheaf.dot").exists()
    assert any(p.name.startswith("edge_") for p in out.iterdir())
    assert main(["export", "--sheaf", str(inferred / "sheaf.json"),
                 "--out", str(out), "--formats", "bogus"]) == 2


def test_sweep_threads_match(tmp_path):
    cfg = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s4"),
                 "--threads", "4"]) == 0
    assert (tmp_path / "s1" / "report.csv").read_bytes() == \
        (tmp_path / "s4" / "report.csv").read_bytes()
