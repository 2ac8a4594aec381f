import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sheaflearn.cli
import sheaflearn.denoise
import sheaflearn.experiments
import sheaflearn.infer
import sheaflearn.serialize
import sheaflearn.synth
from sheaflearn.cli import main
from sheaflearn.serialize import matrix_from_csv, matrix_to_csv
from conftest import oracle_candidates_to_csv, oracle_matrix_to_csv, oracle_save_sheaf


def write_text(path, text):
    Path(path).write_text(text)
    return str(path)


def write_json(path, doc):
    return write_text(path, json.dumps(doc))


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


def test_generate_is_independent_of_the_blas_thread_count(tmp_path):
    # OpenBLAS splits some reductions across threads, so a sum taken through
    # BLAS may round differently at 1 and 2 threads; generate must not
    src = str(Path(sheaflearn.cli.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "sheaflearn.cli", "generate", "--seed", "1",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0].keys() == trees[1].keys()
    assert sorted(str(p) for p in trees[0] if trees[0][p] != trees[1][p]) == []


def test_explicit_e0_and_baseline_mode(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    _, codes, _ = run_pipeline(tmp_path, "a", cfg)
    out = tmp_path / "baseline"
    assert main(["infer", "--data", str(codes), "--out", str(out),
                 "--mode", "baseline", "--e0", "2"]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["selected"]) == 2


@pytest.mark.parametrize("e0", ["abc", "-1", "2.5", ""])
def test_e0_must_be_auto_or_a_count(tmp_path, capsys, e0):
    with pytest.raises(SystemExit) as info:
        main(["infer", "--data", str(tmp_path), "--out", str(tmp_path / "out"), "--e0", e0])
    assert info.value.code == 2
    assert "expected 'auto' or a non-negative integer" in capsys.readouterr().err


def test_e0_above_pair_count_rejected_before_scoring(tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    _, codes, _ = run_pipeline(tmp_path, "a", cfg)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored the pairs of an E0 that cannot be met")

    monkeypatch.setattr(sheaflearn.cli, "enumerate_candidates", no_scoring)
    out = tmp_path / "too_many"
    assert main(["infer", "--data", str(codes), "--out", str(out), "--e0", "7"]) == 2
    assert "--e0 7 exceeds the 6 node pairs" in capsys.readouterr().err
    assert not out.exists()


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


# flags that a subcommand does not read are usage errors
@pytest.mark.parametrize("command, flag", [
    ("infer", ["--config", "c.json"]), ("export", ["--config", "c.json"]),
    ("denoise", ["--seed", "99"]), ("infer", ["--seed", "99"]), ("export", ["--seed", "99"]),
    ("generate", ["--threads", "7"]), ("denoise", ["--threads", "7"]),
    ("infer", ["--threads", "7"]), ("cluster", ["--threads", "7"]),
    ("export", ["--threads", "7"]),
    ("generate", ["--timings"]), ("denoise", ["--timings"]), ("infer", ["--timings"]),
    ("export", ["--timings"]),
])
def test_flag_not_read_by_subcommand_rejected(tmp_path, capsys, command, flag):
    required = {"denoise": ["--data", "d"], "infer": ["--data", "d"],
                "export": ["--sheaf", "s.json"]}.get(command, [])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, *required, *flag, "--out", str(out)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


CONFIG_COMMANDS = {"generate": [], "denoise": ["--data", "no_data"], "sweep": [],
                   "cluster": []}


@pytest.mark.parametrize("command, doc, key", [
    ("generate", {"node_count": 4, "nodes": 4}, "nodes"),
    ("denoise", {"alpah": 0.0}, "alpah"),
    ("sweep", {"alpha_grid": [0.5], "e0s": [1]}, "e0s"),
    ("cluster", {"snapshots": 64, "snr": 10.0}, "snr"),
    ("cluster", {"seed": 3}, "seed"),
    ("denoise", {"rel_tol": 1e-8}, "rel_tol"),
])
def test_unknown_config_key_rejected_before_writing(tmp_path, capsys, command, doc, key):
    cfg = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main([command, *CONFIG_COMMANDS[command], "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{cfg}: unknown key {key!r}")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_config_that_is_not_an_object_rejected(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", [{"alpha": 1.0}])
    out = tmp_path / "out"
    assert main([command, *CONFIG_COMMANDS[command], "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{cfg}: expected a JSON object of settings, found a list\n"
    assert not out.exists()


def test_export_checks_every_format_before_writing(tmp_path, capsys):
    cfg = write_json(tmp_path / "gen.json", GEN_CFG)
    _, _, inferred = run_pipeline(tmp_path, "a", cfg)
    out = tmp_path / "export"
    assert main(["export", "--sheaf", str(inferred / "sheaf.json"),
                 "--out", str(out), "--formats", "graphml,bogus"]) == 2
    assert capsys.readouterr().err == "unknown export format: bogus\n"
    assert not out.exists()


def test_infer_on_one_node_is_an_input_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "gen.json", {**GEN_CFG, "node_count": 1})
    data, codes, out = tmp_path / "data", tmp_path / "codes", tmp_path / "inferred"
    assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
    assert main(["denoise", "--data", str(data), "--out", str(codes)]) == 0
    assert main(["infer", "--data", str(codes), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{codes}: need at least two nodes, found 1\n"
    assert not out.exists()


def edit_first_entry(path, text):
    """Replace the first entry of the first data row of a matrix CSV."""
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, text + "," + first.split(",", 1)[1], *rest]) + "\n")


def generated(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--config", write_json(tmp_path / "gen.json", GEN_CFG),
                 "--out", str(data)]) == 0
    return data


def corrupt_csv(tmp_path):
    """A dataset directory whose node 1 observations hold a word."""
    data = generated(tmp_path)
    edit_first_entry(data / "node_001_observations.csv", "oops")
    return data


def skewed_dictionary(tmp_path):
    """A dataset directory whose node 1 dictionary is not orthonormal."""
    data = generated(tmp_path)
    edit_first_entry(data / "node_001_dictionary.csv", "2")
    return data


def repeated_support(tmp_path):
    """A dataset directory whose node 1 support names one atom twice."""
    data = generated(tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["nodes"][1]["support"] = [2, 2, 5]
    write_json(data / "manifest.json", manifest)
    return data


def atomless_dictionary(tmp_path):
    """A dataset directory whose node 1 dictionary is d x 0."""
    data = generated(tmp_path)
    path = data / "node_001_dictionary.csv"
    matrix_to_csv(np.zeros((matrix_from_csv(path).shape[0], 0)), path)
    return data


def short_basis(tmp_path):
    """A code directory whose node 1 local basis lost its last row."""
    codes = tmp_path / "codes"
    assert main(["denoise", "--data", str(generated(tmp_path)), "--out", str(codes)]) == 0
    path = codes / "code_001_local_basis.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    return codes


def rowless_bases(tmp_path):
    """A hand-written code directory of two nodes whose local basis CSVs
    hold a header and no rows, so the ambient dimension is 0."""
    codes = tmp_path / "codes"
    codes.mkdir()
    write_text(codes / "basis.csv", "0,1\n")
    write_text(codes / "coeffs.csv", "0,1,2\n1,2,3\n4,5,6\n")
    node = {"local_basis_csv_path": "basis.csv", "compact_coeffs_csv_path": "coeffs.csv"}
    write_json(codes / "codes.json", {"codes": [node, node]})
    return codes


def snapshotless_codes(tmp_path):
    """A hand-written code directory of three nodes whose compact coefficient
    CSVs are 1 x 0, an empty header over one empty line: no snapshots."""
    codes = tmp_path / "codes"
    codes.mkdir()
    write_text(codes / "basis.csv", "0\n1\n0\n0\n")
    write_text(codes / "coeffs.csv", "\n\n")
    node = {"local_basis_csv_path": "basis.csv", "compact_coeffs_csv_path": "coeffs.csv"}
    write_json(codes / "codes.json", {"codes": [node, node, node]})
    return codes


def fractional_head(tmp_path):
    """A sheaf.json whose edge 1 has head 1.7."""
    eye = [1.0, 0.0, 0.0, 1.0]
    doc = {"nodes": 3, "ambient_dim": 2, "per_node_dim": [2, 2, 2],
           "edges": [{"tail": 0, "head": 1, "F_tail": eye, "F_head": eye},
                     {"tail": 1, "head": 1.7, "F_tail": eye, "F_head": eye}]}
    return write_json(tmp_path / "sheaf.json", doc)


# (setup, argv, start of the error line); setup writes files under tmp_path
# and returns the text that replaces {} in argv and in the message
BAD_INPUTS = {
    "missing config": (lambda t: str(t / "nope.json"),
                       ["generate", "--config", "{}"], "{}: No such file or directory"),
    "invalid json": (lambda t: write_text(t / "cfg.json", "{alpha: 1}"),
                     ["denoise", "--data", "d", "--config", "{}"], "{}: Expecting property name"),
    "wrong type": (lambda t: write_json(t / "cfg.json", {"alpha": "x"}),
                   ["denoise", "--data", "d", "--config", "{}"],
                   "{}: alpha must be a number, got 'x'\n"),
    "generate range": (lambda t: write_json(t / "cfg.json", {"node_count": 0}),
                       ["generate", "--config", "{}"], "{}: node_count and ambient_dim"),
    "cluster alpha": (lambda t: write_json(t / "cfg.json", {"alpha": -1}),
                      ["cluster", "--config", "{}"], "{}: alpha must be nonnegative"),
    "denoise alpha nan": (lambda t: write_json(t / "cfg.json", {"alpha": float("nan")}),
                          ["denoise", "--data", "d", "--config", "{}"],
                          "{}: alpha must be nonnegative and finite"),
    "cluster rho": (lambda t: write_json(t / "cfg.json", {"rho": 2.0}),
                    ["cluster", "--config", "{}"], "{}: rho must lie in [0, 1]"),
    "generate node_count float": (lambda t: write_json(t / "cfg.json", {"node_count": 3.0}),
                                  ["generate", "--config", "{}"],
                                  "{}: node_count must be an integer, got 3.0\n"),
    "generate negative seed": (lambda t: write_json(t / "cfg.json", {"seed": -1}),
                               ["generate", "--config", "{}"],
                               "{}: seed must be non-negative, got -1\n"),
    "sweep snapshots float": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG,
                                                                    "snapshots": 8.5}),
                              ["sweep", "--config", "{}"],
                              "{}: snapshots must be an integer, got 8.5\n"),
    "cluster snapshots float": (lambda t: write_json(t / "cfg.json", {"snapshots": 8.5}),
                                ["cluster", "--config", "{}"],
                                "{}: snapshots must be an integer, got 8.5\n"),
    "sweep e0": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "e0_grid": [0, 11]}),
                 ["sweep", "--config", "{}"], "{}: every E0 must lie in [0, 10]"),
    "sweep empty e0": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "e0_grid": []}),
                       ["sweep", "--config", "{}"], "{}: grids must be nonempty"),
    "sweep one node": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "node_count": 1,
                                                             "e0_grid": None}),
                       ["sweep", "--config", "{}"], "{}: a sweep needs at least two nodes"),
    "generate snapshots bool": (lambda t: write_json(t / "cfg.json", {**GEN_CFG,
                                                                       "snapshots": True}),
                                ["generate", "--config", "{}"],
                                "{}: snapshots must be an integer, got True\n"),
    "generate node_count bool": (lambda t: write_json(t / "cfg.json", {"node_count": True}),
                                 ["generate", "--config", "{}"],
                                 "{}: node_count must be an integer, got True\n"),
    "sweep e0 bool": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "e0_grid": [True]}),
                      ["sweep", "--config", "{}"],
                      "{}: e0_grid entry must be an integer, got True\n"),
    "generate snr_db bool": (lambda t: write_json(t / "cfg.json", {**GEN_CFG, "snr_db": True}),
                             ["generate", "--config", "{}"],
                             "{}: snr_db must be a number, got True\n"),
    "generate rho bool": (lambda t: write_json(t / "cfg.json", {**GEN_CFG, "rho": True}),
                          ["generate", "--config", "{}"], "{}: rho must be a number, got True\n"),
    "generate rho string": (lambda t: write_json(t / "cfg.json", {**GEN_CFG, "rho": "0.5"}),
                            ["generate", "--config", "{}"],
                            "{}: rho must be a number, got '0.5'\n"),
    "denoise alpha bool": (lambda t: write_json(t / "cfg.json", {"alpha": True}),
                           ["denoise", "--data", "d", "--config", "{}"],
                           "{}: alpha must be a number, got True\n"),
    "denoise max_iters unknown": (lambda t: write_json(t / "cfg.json", {"max_iters": 100}),
                                  ["denoise", "--data", "d", "--config", "{}"],
                                  "{}: unknown key 'max_iters' (expected one of alpha, "
                                  "support_threshold)\n"),
    "denoise support_threshold bool": (lambda t: write_json(t / "cfg.json",
                                                            {"support_threshold": False}),
                                       ["denoise", "--data", "d", "--config", "{}"],
                                       "{}: support_threshold must be a number, got False\n"),
    "sweep alpha bool": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "alpha_grid": [True]}),
                         ["sweep", "--config", "{}"], "{}: alpha must be a number, got True\n"),
    "cluster snr_db bool": (lambda t: write_json(t / "cfg.json", {"snr_db": False}),
                            ["cluster", "--config", "{}"],
                            "{}: snr_db must be a number, got False\n"),
    "sweep repeated snr": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG,
                                                                 "snr_grid": [20.0, 20.0]}),
                           ["sweep", "--config", "{}"], "{}: snr_grid values must be distinct"),
    "sweep repeated alpha": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG,
                                                                   "alpha_grid": [0.5, 0.5]}),
                             ["sweep", "--config", "{}"], "{}: alpha_grid values must be distinct"),
    "missing data": (lambda t: str(t / "nowhere"),
                     ["denoise", "--data", "{}"], "{}/manifest.json: No such file"),
    "missing codes": (lambda t: str(t / "nowhere"),
                      ["infer", "--data", "{}"], "{}/codes.json: No such file"),
    "missing sheaf": (lambda t: str(t / "sheaf.json"),
                      ["export", "--sheaf", "{}"], "{}: No such file or directory"),
    "sheaf without maps": (lambda t: write_json(t / "sheaf.json", {"nodes": 2}),
                           ["export", "--sheaf", "{}"], "{}: no 'ambient_dim' entry"),
    "sheaf with a fractional node": (lambda t: fractional_head(t),
                                     ["export", "--sheaf", "{}", "--formats", "graphml,csv"],
                                     "{}: edge 1 is (1, 1.7): node indices must be integers\n"),
    "sheaf with a boolean node": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 3, "ambient_dim": 1, "per_node_dim": [1, 1, 1],
        "edges": [{"tail": True, "head": 2, "F_tail": [1.0], "F_head": [1.0]}]}),
        ["export", "--sheaf", "{}"], "{}: edge 0 is (True, 2): node indices must be integers\n"),
    "sheaf with a fractional node count": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2.5, "ambient_dim": 1, "per_node_dim": [1, 1], "edges": []}),
        ["export", "--sheaf", "{}"], "{}: node_count must be an integer, got 2.5\n"),
    "sheaf with a float ambient dim": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": 6.0, "per_node_dim": [6, 6], "edges": []}),
        ["export", "--sheaf", "{}"], "{}: ambient_dim must be an integer, got 6.0\n"),
    "sheaf with a negative ambient dim": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": -1, "per_node_dim": [1, 1], "edges": []}),
        ["export", "--sheaf", "{}"], "{}: ambient_dim must be positive, got -1\n"),
    "sheaf with a huge ambient dim": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": 1000000, "per_node_dim": [1, 1],
        "edges": [{"tail": 0, "head": 1, "F_tail": [1.0], "F_head": [1.0]}]}),
        ["export", "--sheaf", "{}"],
        "{}: edge 0: F_tail is not 1000000x1000000 numbers\n"),
    "sheaf with a non-numeric map entry": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": 1, "per_node_dim": [1, 1],
        "edges": [{"tail": 0, "head": 1, "F_tail": [1.0], "F_head": [{"x": 1}]}]}),
        ["export", "--sheaf", "{}"], "{}: edge 0: F_head is not 1x1 numbers\n"),
    "sheaf with a scalar per_node_dim": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": 6, "per_node_dim": 6, "edges": []}),
        ["export", "--sheaf", "{}"],
        "{}: per_node_dim must be a sequence of integers, got 6\n"),
    "sheaf with a per_node_dim out of range": (lambda t: write_json(t / "sheaf.json", {
        "nodes": 2, "ambient_dim": 1, "per_node_dim": [1, 0], "edges": []}),
        ["export", "--sheaf", "{}"], "{}: per_node_dim[1] = 0 outside (0, 1]\n"),
    "bad csv": (lambda t: str(corrupt_csv(t)),
                ["denoise", "--data", "{}"], "{}/node_001_observations.csv: could not convert"),
    "dictionary not orthonormal": (lambda t: str(skewed_dictionary(t)),
                                   ["denoise", "--data", "{}"],
                                   "{}: node 1: dictionary is not orthonormal: D^T D != I\n"),
    "support repeats an atom": (lambda t: str(repeated_support(t)),
                                ["denoise", "--data", "{}"],
                                "{}/manifest.json: node 1: support [2, 2, 5] repeats an atom "
                                "index\n"),
    "dictionary without atoms": (lambda t: str(atomless_dictionary(t)),
                                 ["denoise", "--data", "{}"],
                                 "{}: node 1: dictionary has no atoms\n"),
    "basis lost a row": (lambda t: str(short_basis(t)),
                         ["infer", "--data", "{}"], "{}: node 1: ambient dimension 7, node 0 has 8"),
    "basis without rows": (lambda t: str(rowless_bases(t)),
                           ["infer", "--data", "{}"],
                           "{}: node 0: basis has no rows, so the ambient dimension is 0\n"),
    "coefficients without snapshots": (lambda t: str(snapshotless_codes(t)),
                                       ["infer", "--data", "{}"],
                                       "{}: node 0: coefficients have no snapshots\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch, case):
    setup, argv, message = BAD_INPUTS[case]
    name = setup(tmp_path)
    capsys.readouterr()

    def no_draw(*args, **kwargs):
        raise AssertionError("drew data for an input that cannot be used")

    monkeypatch.setattr(sheaflearn.synth, "_generate", no_draw)
    out = tmp_path / "out"
    assert main([a.replace("{}", name) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(message.replace("{}", name)), err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "2.5"])
@pytest.mark.parametrize("command", ["generate", "sweep", "cluster"])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", seed, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer: {seed!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [("generate", GEN_CFG), ("sweep", SWEEP_CFG)])
def test_seed_flag_overrides_the_config_seed(tmp_path, command, doc):
    assert doc["seed"] != 3
    flag, config = tmp_path / "flag", tmp_path / "config"
    assert main([command, "--config", write_json(tmp_path / "a.json", doc), "--seed", "3",
                 "--out", str(flag)]) == 0
    assert main([command, "--config", write_json(tmp_path / "b.json", {**doc, "seed": 3}),
                 "--out", str(config)]) == 0
    assert dir_bytes(flag) == dir_bytes(config)


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_thread_count_must_be_positive(tmp_path, capsys, threads):
    cfg = write_json(tmp_path / "sweep.json", SWEEP_CFG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", cfg, "--threads", threads, "--out", str(out)])
    assert info.value.code == 2
    assert f"expected a positive integer: {threads!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, stage", [("denoise", "code_dataset"),
                                            ("infer", "enumerate_candidates")])
def test_numerical_fault_is_not_an_input_error(tmp_path, monkeypatch, command, stage):
    data, codes, _ = run_pipeline(tmp_path, "a", write_json(tmp_path / "gen.json", GEN_CFG))

    def fault(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sheaflearn.cli, stage, fault)
    source = data if command == "denoise" else codes
    with pytest.raises(np.linalg.LinAlgError):
        main([command, "--data", str(source), "--out", str(tmp_path / "out")])


def test_numerical_fault_in_cluster_is_not_an_input_error(tmp_path, monkeypatch):
    def fault(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sheaflearn.experiments, "code_dataset", fault)
    cfg = write_json(tmp_path / "cluster.json", {"snapshots": 16})
    with pytest.raises(np.linalg.LinAlgError):
        main(["cluster", "--config", cfg, "--out", str(tmp_path / "out")])


def counting(monkeypatch, modules, name):
    """Wrap ``name`` wherever one of ``modules`` binds it; returns the call list."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_denoise_checks_each_node_once(tmp_path, monkeypatch):
    data = generated(tmp_path)
    built = counting(monkeypatch, [sheaflearn.denoise], "Dictionary")
    assert main(["denoise", "--data", str(data), "--out", str(tmp_path / "codes")]) == 0
    assert len(built) == GEN_CFG["node_count"]


def test_infer_checks_the_codes_once(tmp_path, monkeypatch):
    _, codes, _ = run_pipeline(tmp_path, "a", write_json(tmp_path / "gen.json", GEN_CFG))
    checked = counting(monkeypatch, [sheaflearn.infer, sheaflearn.cli], "_checked_reps")
    assert main(["infer", "--data", str(codes), "--out", str(tmp_path / "out")]) == 0
    assert len(checked) == 1


def test_denoise_reads_observations_and_dictionaries_only(tmp_path, monkeypatch):
    # the ground-truth coefficients are on disk but denoising never reads them
    data = generated(tmp_path)
    parsed = counting(monkeypatch, [sheaflearn.serialize], "matrix_from_csv")
    assert main(["denoise", "--data", str(data), "--out", str(tmp_path / "codes")]) == 0
    names = sorted(Path(args[0]).name.split("_", 2)[2] for args in parsed)
    node_count = GEN_CFG["node_count"]
    assert len(parsed) == 2 * node_count
    assert names == ["dictionary.csv"] * node_count + ["observations.csv"] * node_count
    assert len(list(data.glob("*_clean_coeffs.csv"))) == node_count
