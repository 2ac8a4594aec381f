import json

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    SheafStructureError,
    SynthConfig,
    build_sheaf,
    code_dataset,
    enumerate_candidates,
    generate_dataset,
    make_sheaf,
    min_edges_for_connectivity,
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
from conftest import (
    oracle_candidates_to_csv,
    oracle_matrix_to_csv,
    oracle_save_sheaf,
    random_sheaf,
)


def test_matrix_csv_roundtrip(tmp_path, rng):
    m = rng.standard_normal((4, 7))
    matrix_to_csv(m, tmp_path / "m.csv")
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "0,1,2,3,4,5,6"
    assert np.array_equal(matrix_from_csv(tmp_path / "m.csv"), m)


SPECIAL = [-0.0, 5e-324, 1e-300, 0.1, 1.0, -1.0, 1e16, 1e22]
SPECIAL += [-x for x in SPECIAL]


def written_bytes(writer, obj, path):
    writer(obj, path)
    return path.read_bytes()


@pytest.mark.parametrize("shape", [(4, 7), (1, 1), (3, 3), (0, 5), (5, 0), (0, 0), (8, 8)])
def test_matrix_csv_matches_per_float_writer(tmp_path, rng, shape):
    m = rng.standard_normal(shape)
    m.ravel()[:len(SPECIAL)] = SPECIAL[:m.size]
    assert written_bytes(matrix_to_csv, m, tmp_path / "fast.csv") == \
        written_bytes(oracle_matrix_to_csv, m, tmp_path / "oracle.csv")
    loaded = matrix_from_csv(tmp_path / "fast.csv")
    assert loaded.shape == m.shape
    assert loaded.tobytes() == m.tobytes()  # bit for bit, signed zeros included


@pytest.mark.parametrize("d", [1, 3, 64])
def test_identity_csv_reuse_is_bit_exact(tmp_path, d):
    eye = np.eye(d)
    assert written_bytes(matrix_to_csv, eye, tmp_path / "fast.csv") == \
        written_bytes(oracle_matrix_to_csv, eye, tmp_path / "oracle.csv")
    # equal to the identity as numbers, but not as text
    signed = eye.copy()
    signed[0, -1] = -0.0
    assert written_bytes(matrix_to_csv, signed, tmp_path / "fast.csv") == \
        written_bytes(oracle_matrix_to_csv, signed, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_text().splitlines()[1].endswith("-0")


def test_sheaf_json_matches_json_dumps(tmp_path, rng):
    two_sided = random_sheaf(rng, 6, 4, 9)
    scalar = make_sheaf(3, 1, [(0, 1), (1, 2)],
                        [(np.array([[-1.0]]), np.array([[1.0]])),
                         (np.array([[1.0]]), np.array([[-1.0]]))])
    tiny = np.array([[1.0, 5e-324], [-5e-324, 1.0]])
    small = np.array([[1.0, 1e-300], [-1e-300, 1.0]])
    signed_eye = np.array([[1.0, -0.0], [0.0, 1.0]])
    swap = np.array([[-0.0, 1.0], [1.0, 0.0]])
    special = make_sheaf(4, 2, [(0, 1), (1, 2), (2, 3)],
                         [(tiny, np.eye(2)), (small, signed_eye), (swap, np.eye(2))],
                         per_node_dim=(1, 2, 2, 1))
    for sheaf in (two_sided, scalar, special):
        assert written_bytes(save_sheaf, sheaf, tmp_path / "fast.json") == \
            written_bytes(oracle_save_sheaf, sheaf, tmp_path / "oracle.json")


def test_learned_sheaf_json_and_candidates_match_reference(tmp_path):
    ds = generate_dataset(SynthConfig(node_count=6, ambient_dim=8, dims=3,
                                      snapshots=16, seed=2))
    codes = code_dataset(ds, DenoiseConfig(alpha=2.0))
    cands = enumerate_candidates([(c.local_basis, c.compact_coeffs) for c in codes])
    sheaf = build_sheaf(select_topology(cands, min_edges_for_connectivity(cands)))
    assert np.array_equal(sheaf.maps[:, 1], np.broadcast_to(np.eye(8), sheaf.maps[:, 1].shape))
    assert written_bytes(save_sheaf, sheaf, tmp_path / "fast.json") == \
        written_bytes(oracle_save_sheaf, sheaf, tmp_path / "oracle.json")
    for mode in ("aligned", "baseline"):
        cands = enumerate_candidates([(c.local_basis, c.compact_coeffs) for c in codes],
                                     mode=mode)
        assert written_bytes(candidates_to_csv, cands, tmp_path / "fast.csv") == \
            written_bytes(oracle_candidates_to_csv, cands, tmp_path / "oracle.csv")


def test_edgeless_sheaf_roundtrip(tmp_path):
    sheaf = make_sheaf(3, 2, [], np.zeros((0, 2, 2, 2)))
    save_sheaf(sheaf, tmp_path / "sheaf.json")
    doc = {"nodes": 3, "ambient_dim": 2, "per_node_dim": [2, 2, 2], "edges": []}
    assert (tmp_path / "sheaf.json").read_text() == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    loaded = load_sheaf(tmp_path / "sheaf.json")
    assert loaded.edge_count == 0
    assert loaded.maps.shape == (0, 2, 2, 2)
    assert (loaded.node_count, loaded.ambient_dim, loaded.per_node_dim) == (3, 2, (2, 2, 2))


@pytest.mark.parametrize("text, match", [
    ("0,1,2\n1,2,3\n4,5\n", "row 2 has 2 values, the header has 3"),
    # 3 + 5 values = 2 rows of 4: a flat parse-then-reshape would accept this
    ("0,1,2,3\n1,2,3\n4,5,6,7,8\n", "row 1 has 3 values, the header has 4"),
    ("0,1\n1,2\n\n", "row 2 has 1 values"),
    ("\n\n1\n", "values under an empty header"),
    ("0,1\n1,x\n", "could not convert"),
    ("0,1\n1,nan\n", "non-finite entry nan at row 1, column 1"),
    ("0,1\n1,2\ninf,2\n", "non-finite entry inf at row 2, column 0"),
    ("0,1\n1,2\n3,-inf\n", "non-finite entry -inf at row 2, column 1"),
    ("", "empty file"),
])
def test_bad_csv_rejected_naming_file(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match) as info:
        matrix_from_csv(path)
    assert str(path) in str(info.value)


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
