import json
from pathlib import Path

import numpy as np
import pytest

import sheaflearn.cli
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


def corrupt_csv(tmp_path):
    """A dataset directory whose node 1 observations hold a word."""
    data = tmp_path / "data"
    assert main(["generate", "--config", write_json(tmp_path / "gen.json", GEN_CFG),
                 "--out", str(data)]) == 0
    path = data / "node_001_observations.csv"
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, "oops," + first.split(",", 1)[1], *rest]) + "\n")
    return data


# (setup, argv, start of the error line); setup writes files under tmp_path
# and returns the text that replaces {} in argv and in the message
BAD_INPUTS = {
    "missing config": (lambda t: str(t / "nope.json"),
                       ["generate", "--config", "{}"], "{}: No such file or directory"),
    "invalid json": (lambda t: write_text(t / "cfg.json", "{alpha: 1}"),
                     ["denoise", "--data", "d", "--config", "{}"], "{}: Expecting property name"),
    "wrong type": (lambda t: write_json(t / "cfg.json", {"alpha": "x"}),
                   ["denoise", "--data", "d", "--config", "{}"], "{}: '<' not supported"),
    "generate range": (lambda t: write_json(t / "cfg.json", {"node_count": 0}),
                       ["generate", "--config", "{}"], "{}: node_count and ambient_dim"),
    "cluster alpha": (lambda t: write_json(t / "cfg.json", {"alpha": -1}),
                      ["cluster", "--config", "{}"], "{}: alpha must be nonnegative"),
    "cluster rho": (lambda t: write_json(t / "cfg.json", {"rho": 2.0}),
                    ["cluster", "--config", "{}"], "{}: rho must lie in [0, 1]"),
    "sweep e0": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "e0_grid": [0, 11]}),
                 ["sweep", "--config", "{}"], "{}: every E0 must lie in [0, 10]"),
    "sweep one node": (lambda t: write_json(t / "cfg.json", {**SWEEP_CFG, "node_count": 1,
                                                             "e0_grid": None}),
                       ["sweep", "--config", "{}"], "{}: a sweep needs at least two nodes"),
    "missing data": (lambda t: str(t / "nowhere"),
                     ["denoise", "--data", "{}"], "{}/manifest.json: No such file"),
    "missing codes": (lambda t: str(t / "nowhere"),
                      ["infer", "--data", "{}"], "{}/codes.json: No such file"),
    "missing sheaf": (lambda t: str(t / "sheaf.json"),
                      ["export", "--sheaf", "{}"], "{}: No such file or directory"),
    "sheaf without maps": (lambda t: write_json(t / "sheaf.json", {"nodes": 2}),
                           ["export", "--sheaf", "{}"], "{}: no 'ambient_dim' entry"),
    "bad csv": (lambda t: str(corrupt_csv(t)),
                ["denoise", "--data", "{}"], "{}/node_001_observations.csv: could not convert"),
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
