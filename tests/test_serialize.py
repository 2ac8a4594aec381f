import json

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    SheafStructureError,
    SynthConfig,
    code_dataset,
    enumerate_candidates,
    generate_dataset,
    select_topology,
)
from sheaflearn.serialize import (
    candidates_to_csv,
    load_dataset,
    load_node_representations,
    load_sheaf,
    matrix_from_csv,
    matrix_to_csv,
    save_dataset,
    save_selection,
    save_sheaf,
    save_sparse_codes,
    write_dot,
    write_graphml,
)
from conftest import random_sheaf


def test_matrix_csv_roundtrip(tmp_path, rng):
    m = rng.standard_normal((4, 7))
    matrix_to_csv(m, tmp_path / "m.csv")
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "0,1,2,3,4,5,6"
    assert np.array_equal(matrix_from_csv(tmp_path / "m.csv"), m)


def test_sheaf_json_roundtrip(tmp_path, rng):
    sheaf = random_sheaf(rng, 5, 3, 6)
    save_sheaf(sheaf, tmp_path / "sheaf.json")
    loaded = load_sheaf(tmp_path / "sheaf.json")
    assert np.array_equal(loaded.edges, sheaf.edges)
    assert (loaded.node_count, loaded.ambient_dim, loaded.per_node_dim) == \
        (sheaf.node_count, sheaf.ambient_dim, sheaf.per_node_dim)
    for e in range(sheaf.edge_count):
        assert np.array_equal(loaded.maps[e, 0], sheaf.maps[e, 0])
        assert np.array_equal(loaded.maps[e, 1], sheaf.maps[e, 1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_sheaf_json_rejected(tmp_path, rng, bad):
    save_sheaf(random_sheaf(rng, 3, 2, 2), tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    doc["edges"][1]["F_head"][2] = bad
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    with pytest.raises(SheafStructureError, match="non-finite"):
        load_sheaf(tmp_path / "sheaf.json")


def test_dataset_roundtrip(tmp_path):
    ds = generate_dataset(SynthConfig(node_count=3, ambient_dim=6, dims=2,
                                      snapshots=5, seed=4))
    save_dataset(ds, tmp_path / "data")
    loaded = load_dataset(tmp_path / "data")
    assert loaded.seed == ds.seed
    assert loaded.params == ds.params
    for a, b in zip(ds.nodes, loaded.nodes):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.dictionary, b.dictionary)
        assert a.support == b.support


def test_codes_roundtrip(tmp_path):
    ds = generate_dataset(SynthConfig(node_count=3, ambient_dim=8, dims=3,
                                      snapshots=6, seed=6))
    codes = code_dataset(ds, DenoiseConfig(alpha=2.0))
    save_sparse_codes(codes, tmp_path / "codes")
    reps = load_node_representations(tmp_path / "codes")
    for code, (basis, compact) in zip(codes, reps):
        assert np.array_equal(code.local_basis, basis)
        assert np.array_equal(code.compact_coeffs, compact)


def test_selection_and_candidates(tmp_path, rng):
    reps = [(np.eye(2), rng.standard_normal((2, 4))) for _ in range(4)]
    cands = enumerate_candidates(reps, mode="aligned")
    sel = select_topology(cands, 3)
    save_selection(sel, tmp_path / "sel.json")
    assert (tmp_path / "sel.json").read_text().count('"u"') == 6
    candidates_to_csv(cands, tmp_path / "cands.csv")
    lines = (tmp_path / "cands.csv").read_text().splitlines()
    assert lines[0].startswith("u,v,cost,rank,sigma_1")
    assert len(lines) == 7


def test_graph_exports(tmp_path):
    edges = [(0, 1), (1, 2)]
    write_graphml(3, edges, tmp_path / "g.graphml", labels=[0, 0, 1])
    text = (tmp_path / "g.graphml").read_text()
    assert text.count("<node") == 3
    assert text.count("<edge") == 2
    assert 'key="cluster">1<' in text

    write_dot(3, edges, tmp_path / "g.dot")
    dot = (tmp_path / "g.dot").read_text()
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
