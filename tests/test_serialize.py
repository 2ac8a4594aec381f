import json
import re
import tracemalloc

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    SheafStructureError,
    SynthConfig,
    build_sheaf,
    code_dataset,
    constant_sheaf,
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
import sheaflearn.serialize as serialize
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
    # repeated rows, a +0.0 row next to a -0.0 row, and the identity's rows
    # inside a matrix that is not I: each row's text is reused by its bytes
    mixed = np.vstack([eye, eye[::-1], np.zeros((2, d)), -np.zeros((1, d)), np.zeros((1, d)),
                       eye[:1], np.full((1, d), 0.1)])
    for m in (mixed, mixed[::-1]):
        assert written_bytes(matrix_to_csv, m, tmp_path / "fast.csv") == \
            written_bytes(oracle_matrix_to_csv, m, tmp_path / "oracle.csv")


def test_row_cache_is_bit_exact(tmp_path, rng):
    # zero rows of width 1, then of width 2: the width is part of the key
    for m in (np.zeros((3, 1)), np.zeros((3, 2)), np.zeros((3, 1))):
        assert written_bytes(matrix_to_csv, m, tmp_path / "fast.csv") == \
            written_bytes(oracle_matrix_to_csv, m, tmp_path / "oracle.csv")
    # a transposed matrix and a column slice are not C-contiguous
    base = rng.standard_normal((6, 4))
    base.ravel()[:len(SPECIAL)] = SPECIAL[:base.size]
    for m in (base.T, base[:, ::2], base):
        assert written_bytes(matrix_to_csv, m, tmp_path / "fast.csv") == \
            written_bytes(oracle_matrix_to_csv, m, tmp_path / "oracle.csv")
    # an earlier matrix written again after more than 256 distinct rows,
    # which evicted its rows from the cache
    first = np.vstack([np.eye(5), rng.standard_normal((3, 5))])
    expected = written_bytes(oracle_matrix_to_csv, first, tmp_path / "oracle.csv")
    assert written_bytes(matrix_to_csv, first, tmp_path / "fast.csv") == expected
    matrix_to_csv(rng.standard_normal((300, 5)), tmp_path / "other.csv")
    misses = serialize._row_text.cache_info().misses
    assert written_bytes(matrix_to_csv, first, tmp_path / "fast.csv") == expected
    assert serialize._row_text.cache_info().misses - misses == len(first)


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
                         [(tiny, np.eye(2)), (small, signed_eye), (swap, np.eye(2))])
    # tails that hold the identity's last row, and a -0.0 variant of that row
    turn = np.eye(3)
    turn[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    signed_turn = turn.copy()
    signed_turn[2, 0] = -0.0
    signed_eye3 = np.eye(3)
    signed_eye3[2, 1] = -0.0
    partial = make_sheaf(4, 3, [(0, 1), (1, 2), (2, 3), (0, 3)],
                         [(turn, np.eye(3)), (signed_turn, np.eye(3)),
                          (np.eye(3), signed_eye3), (turn, signed_eye3)])
    for sheaf in (two_sided, scalar, special, partial):
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
    assert (loaded.node_count, loaded.ambient_dim) == (3, 2)


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
    assert (loaded.node_count, loaded.ambient_dim) == (sheaf.node_count, sheaf.ambient_dim)
    for e in range(sheaf.edge_count):
        assert np.array_equal(loaded.maps[e, 0], sheaf.maps[e, 0])
        assert np.array_equal(loaded.maps[e, 1], sheaf.maps[e, 1])


def test_nested_maps_load_as_flat_ones(tmp_path, rng):
    sheaf = random_sheaf(rng, 4, 3, 3)
    save_sheaf(sheaf, tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    for edge, pair in zip(doc["edges"], sheaf.maps):
        edge["F_tail"] = pair[0].tolist()
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    assert np.array_equal(load_sheaf(tmp_path / "sheaf.json").maps, sheaf.maps)


def test_maps_read_as_arrays_edge_by_edge(tmp_path, rng):
    # signed permutations print as "0.0" and "-1.0", far shorter than the 32
    # bytes a parsed Python float takes in a list: lists of every map would
    # push the traced peak past the bound, arrays made as each edge is parsed
    # stay within it (the file's text is held twice while it is read)
    d = 16
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40)][:400]
    maps = np.stack([np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
                     for _ in range(2 * len(edges))]).reshape(-1, 2, d, d)
    path = tmp_path / "sheaf.json"
    save_sheaf(make_sheaf(40, d, edges, maps), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_sheaf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.maps.tobytes() == maps.tobytes()
    assert peak <= size + 3 * maps.nbytes


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_sheaf_json_rejected(tmp_path, rng, bad):
    save_sheaf(random_sheaf(rng, 3, 2, 2), tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    doc["edges"][1]["F_head"][2] = bad
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    with pytest.raises(SheafStructureError, match="non-finite"):
        load_sheaf(tmp_path / "sheaf.json")


@pytest.mark.parametrize("key, bad", [
    ("F_tail", [1.0, 0.0, 0.0]),                  # ragged against the other map
    ("F_head", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # 2-D, but not 2 x 2
    ("F_tail", "identity"),
    ("F_head", [[1.0, 0.0], [0.0]]),              # ragged, so left a list when parsed
    ("F_tail", [1.0, "zero", 0.0, 1.0]),          # not numbers, left a list too
])
def test_malformed_map_names_file_and_edge(tmp_path, rng, key, bad):
    save_sheaf(random_sheaf(rng, 3, 2, 3), tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    doc["edges"][1][key] = bad
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"edge 1: {key} is not 2x2 numbers") as info:
        load_sheaf(tmp_path / "sheaf.json")
    assert str(tmp_path / "sheaf.json") in str(info.value)


def test_maps_of_one_wrong_length_name_file_and_edge(tmp_path, rng):
    save_sheaf(random_sheaf(rng, 3, 2, 3), tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    for edge in doc["edges"]:
        edge["F_tail"] = edge["F_head"] = [1.0, 0.0, 0.0]
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="edge 0: F_tail is not 2x2 numbers") as info:
        load_sheaf(tmp_path / "sheaf.json")
    assert str(tmp_path / "sheaf.json") in str(info.value)


@pytest.mark.parametrize("key, value", [("head", 1.7), ("tail", 0.5), ("head", "1")])
def test_non_integer_node_in_sheaf_json_rejected(tmp_path, key, value):
    save_sheaf(constant_sheaf(3, [(0, 1), (1, 2)], dim=2), tmp_path / "sheaf.json")
    doc = json.loads((tmp_path / "sheaf.json").read_text())
    doc["edges"][1][key] = value
    (tmp_path / "sheaf.json").write_text(json.dumps(doc))
    with pytest.raises(SheafStructureError, match="edge 1 is .*node indices must be integers"):
        load_sheaf(tmp_path / "sheaf.json")


def sheaf_file_with_node_dims(path, dim, per_node_dim, nodes=3):
    """A sheaf.json of the constant sheaf on the path 0 - 1 - ... at ``dim``,
    with ``per_node_dim`` written in place of the saved one."""
    save_sheaf(constant_sheaf(nodes, [(u, u + 1) for u in range(nodes - 1)], dim=dim), path)
    doc = json.loads(path.read_text())
    doc["per_node_dim"] = per_node_dim
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("per_node_dim, match", [
    ([2, 2], "per_node_dim length must equal node_count"),
    ([2, 0, 2], r"per_node_dim\[1\] = 0 outside \(0, 2\]"),
    ([2, 2, 3], r"per_node_dim\[2\] = 3 outside \(0, 2\]"),
])
def test_node_dimensions_rejected(tmp_path, per_node_dim, match):
    path = sheaf_file_with_node_dims(tmp_path / "sheaf.json", 2, per_node_dim)
    with pytest.raises(SheafStructureError, match=match):
        load_sheaf(path)


@pytest.mark.parametrize("per_node_dim", [[1, 1.0, True], [1, True, 1]])
def test_non_integer_node_dimension_rejected(tmp_path, per_node_dim):
    path = sheaf_file_with_node_dims(tmp_path / "sheaf.json", 1, per_node_dim)
    with pytest.raises(TypeError, match=r"per_node_dim\[1\] must be an integer"):
        load_sheaf(path)


@pytest.mark.parametrize("per_node_dim", [1, 1.0])
def test_per_node_dim_not_a_sequence_named(tmp_path, per_node_dim):
    path = sheaf_file_with_node_dims(tmp_path / "sheaf.json", 1, per_node_dim)
    match = re.escape(f"per_node_dim must be a sequence of integers, got {per_node_dim!r}")
    with pytest.raises(TypeError, match=match):
        load_sheaf(path)


def test_node_dimensions_below_d_load_and_save_as_d(tmp_path):
    # every stalk of a Sheaf is R^d: a file's smaller per-node dimensions
    # pass the check and are not kept
    path = sheaf_file_with_node_dims(tmp_path / "sheaf.json", 2, [1, 2, 2, 1], nodes=4)
    save_sheaf(load_sheaf(path), tmp_path / "resaved.json")
    doc = json.loads(path.read_text())
    assert json.loads((tmp_path / "resaved.json").read_text()) == \
        {**doc, "per_node_dim": [2, 2, 2, 2]}


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
        assert np.array_equal(a.clean_coeffs, b.clean_coeffs)
    # without the ground truth, every other field is read the same
    lean = load_dataset(tmp_path / "data", clean_coeffs=False)
    for a, b in zip(loaded.nodes, lean.nodes):
        assert b.clean_coeffs is None
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.dictionary, b.dictionary)
        assert (a.support, a.cluster) == (b.support, b.cluster)


def saved_dataset(tmp_path):
    """A three-node dataset directory (d = K = 6) and its manifest."""
    ds = generate_dataset(SynthConfig(node_count=3, ambient_dim=6, dims=2, snapshots=5, seed=4))
    save_dataset(ds, tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    return ds, path, json.loads(path.read_text())


def test_dataset_loads_clean_coefficients_by_their_rows(tmp_path):
    ds, path, _ = saved_dataset(tmp_path)
    for a, b in zip(ds.nodes, load_dataset(tmp_path / "data").nodes):
        assert b.clean_rows.tobytes() == a.clean_rows.tobytes()
        assert b.clean_coeffs.tobytes() == a.clean_coeffs.tobytes()
        K, N = b.dictionary.shape[1], b.observations.shape[1]
        assert [name for name, v in vars(b).items()
                if isinstance(v, np.ndarray) and v.shape == (K, N)] == ["observations"]
    # written again, every file keeps its bytes
    save_dataset(load_dataset(tmp_path / "data"), tmp_path / "again")
    for file in sorted((tmp_path / "data").iterdir()):
        assert (tmp_path / "again" / file.name).read_bytes() == file.read_bytes()


@pytest.mark.parametrize("support, message", [
    ([1, 6], "support index 6 outside [0, 6)"),
    ([3, 3], "support [3, 3] repeats an atom index"),
    ([1, -1], "support must be a list of atom indices, got [1, -1]"),
    ([1, 2.0], "support must be a list of atom indices, got [1, 2.0]"),
    ([True, 2], "support must be a list of atom indices, got [True, 2]"),
    (3, "support must be a list of atom indices, got 3"),
], ids=["out of range", "repeated", "negative", "float", "bool", "not a list"])
def test_bad_support_names_the_node_and_the_file(tmp_path, support, message):
    _, path, manifest = saved_dataset(tmp_path)
    manifest["nodes"][1]["support"] = support
    path.write_text(json.dumps(manifest))
    # every fault, the range against the dictionary's columns included, is
    # checked from the manifest, with or without the clean coefficient CSVs
    match = f"^{re.escape(f'{path}: node 1: {message}')}$"
    with pytest.raises(ValueError, match=match):
        load_dataset(tmp_path / "data")
    with pytest.raises(ValueError, match=match):
        load_dataset(tmp_path / "data", clean_coeffs=False)


def test_nonzero_entry_off_the_support_names_the_node_and_the_file(tmp_path):
    ds, _, _ = saved_dataset(tmp_path)
    row = next(k for k in range(6) if k not in ds.nodes[2].support)
    file = tmp_path / "data" / "node_002_clean_coeffs.csv"
    S = ds.nodes[2].clean_coeffs
    S[row, 3] = -0.25
    matrix_to_csv(S, file)
    with pytest.raises(ValueError, match=f"^{re.escape(str(file))}: node 2: nonzero entry "
                                         rf"-0\.25 at row {row}, column 3, off the support$"):
        load_dataset(tmp_path / "data")
    # a -0.0 off the support is a zero
    S[row, 3] = -0.0
    matrix_to_csv(S, file)
    assert load_dataset(tmp_path / "data").nodes[2].clean_coeffs[row, 3] == 0.0


def test_clean_coefficients_of_the_wrong_height_name_the_node_and_the_file(tmp_path):
    ds, _, _ = saved_dataset(tmp_path)
    file = tmp_path / "data" / "node_000_clean_coeffs.csv"
    matrix_to_csv(ds.nodes[0].clean_coeffs[:5], file)
    with pytest.raises(ValueError, match=f"^{re.escape(str(file))}: node 0: 5 coefficient "
                                         "rows, the dictionary has 6 atoms$"):
        load_dataset(tmp_path / "data")


def test_codes_roundtrip(tmp_path):
    ds = generate_dataset(SynthConfig(node_count=3, ambient_dim=8, dims=3,
                                      snapshots=6, seed=6))
    codes = code_dataset(ds, DenoiseConfig(alpha=2.0))
    save_sparse_codes(codes, tmp_path / "codes")
    reps = load_node_representations(tmp_path / "codes")
    for code, (basis, compact) in zip(codes, reps):
        assert np.array_equal(code.local_basis, basis)
        assert np.array_equal(code.compact_coeffs, compact)


def test_per_node_csv_names(tmp_path):
    ds = generate_dataset(SynthConfig(node_count=2, ambient_dim=6, dims=2,
                                      snapshots=5, seed=4))
    save_dataset(ds, tmp_path / "data")
    save_sparse_codes(code_dataset(ds, DenoiseConfig(alpha=0.5)), tmp_path / "codes")

    def listing(name):
        return sorted(p.name for p in (tmp_path / name).iterdir())

    assert listing("data") == [
        "manifest.json",
        "node_000_clean_coeffs.csv", "node_000_dictionary.csv", "node_000_observations.csv",
        "node_001_clean_coeffs.csv", "node_001_dictionary.csv", "node_001_observations.csv",
    ]
    assert listing("codes") == [
        "code_000_coefficients.csv", "code_000_compact_coeffs.csv", "code_000_local_basis.csv",
        "code_001_coefficients.csv", "code_001_compact_coeffs.csv", "code_001_local_basis.csv",
        "codes.json",
    ]
    nodes = json.loads((tmp_path / "data" / "manifest.json").read_text())["nodes"]
    assert [sorted(rec) for rec in nodes] == [
        ["clean_coeffs", "cluster", "dictionary", "observations", "support"]] * 2
    assert [(rec["observations"], rec["dictionary"], rec["clean_coeffs"]) for rec in nodes] == [
        ("node_000_observations.csv", "node_000_dictionary.csv", "node_000_clean_coeffs.csv"),
        ("node_001_observations.csv", "node_001_dictionary.csv", "node_001_clean_coeffs.csv"),
    ]
    codes = json.loads((tmp_path / "codes" / "codes.json").read_text())["codes"]
    assert [sorted(rec) for rec in codes] == [
        ["coefficients_csv_path", "compact_coeffs_csv_path", "converged", "iterations",
         "local_basis_csv_path", "objective", "support"]] * 2
    assert [(rec["coefficients_csv_path"], rec["local_basis_csv_path"],
             rec["compact_coeffs_csv_path"]) for rec in codes] == [
        ("code_000_coefficients.csv", "code_000_local_basis.csv", "code_000_compact_coeffs.csv"),
        ("code_001_coefficients.csv", "code_001_local_basis.csv", "code_001_compact_coeffs.csv"),
    ]


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
