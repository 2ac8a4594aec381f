"""File formats: CSV matrices, JSON sheaf/selection documents, the dataset
container (manifest + per-node CSVs), and GraphML/DOT graph exports.

All writers are deterministic: fixed float formatting, sorted JSON keys, no
timestamps. CSV rows are formatted with one ``%`` per row, and ``save_sheaf``
streams sheaf.json one edge at a time; both produce the same bytes as the
per-float ``"%.17g"`` loop and ``json.dumps(doc, indent=2, sort_keys=True)``.
The identity map, which every learned sheaf holds as F_head, is formatted once
and its text reused.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .core import Sheaf, make_sheaf
from .denoise import SparseCode
from .infer import EdgeSelection
from .synth import Dataset, NodeData

FLOAT_FMT = "%.17g"


def _csv_rows(m: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, one ``%`` per row."""
    row = ",".join([FLOAT_FMT] * m.shape[1]) + "\n"
    return "".join([row % tuple(r) for r in m.tolist()])


@functools.lru_cache(maxsize=4)
def _identity_csv(d: int) -> tuple[bytes, str]:
    """The d x d identity's bytes and its CSV rows, formatted once per size."""
    eye = np.eye(d)
    return eye.tobytes(), _csv_rows(eye)


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV with a header row of column indices. A matrix bit for bit
    equal to the identity reuses the identity's text."""
    m = np.atleast_2d(np.asarray(matrix, float))
    rows, cols = m.shape
    if rows == cols and m.tobytes() == _identity_csv(cols)[0]:
        body = _identity_csv(cols)[1]
    else:
        body = _csv_rows(m)
    Path(path).write_text(",".join(map(str, range(cols))) + "\n" + body)


def matrix_from_csv(path) -> np.ndarray:
    """Read a ``matrix_to_csv`` file. A ragged row, an entry that is not a
    number and a NaN or inf entry each raise ``ValueError`` naming the file."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    header, body = lines[0], lines[1:]
    if not header:
        # a d x 0 matrix is an empty header over d empty rows
        if any(body):
            raise ValueError(f"{path}: values under an empty header")
        return np.zeros((len(body), 0))
    width = header.count(",") + 1
    rows = [line.split(",") for line in body]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} values, "
                             f"the header has {width}")
    try:
        m = np.array(rows, dtype=float).reshape(len(rows), width)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite entry {m[i, j]} at row {i + 1}, column {j}")
    return m


def _dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- sheaves

def _json_list(items: list[str], indent: int) -> str:
    """Formatted items as a JSON list whose items sit ``indent`` spaces deep,
    laid out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def _json_map(m: np.ndarray) -> str:
    """A restriction map as its row-major JSON list inside an edge object;
    ``float.__repr__`` is the float text ``json`` writes."""
    return _json_list(list(map(float.__repr__, m.ravel().tolist())), 8)


def save_sheaf(sheaf: Sheaf, path) -> None:
    """Write ``{nodes, ambient_dim, per_node_dim, edges: [{tail, head,
    F_tail, F_head}]}`` with row-major maps, one edge at a time, in the exact
    layout of ``json.dumps(doc, indent=2, sort_keys=True)``."""
    eye = np.eye(sheaf.ambient_dim)
    eye_bytes, eye_text = eye.tobytes(), _json_map(eye)
    with Path(path).open("w") as f:
        f.write('{\n  "ambient_dim": %d,\n  "edges": [' % sheaf.ambient_dim)
        for e, ((u, v), pair) in enumerate(zip(sheaf.edges.tolist(), sheaf.maps)):
            f_tail, f_head = (eye_text if m.tobytes() == eye_bytes else _json_map(m)
                              for m in pair)
            f.write('%s\n    {\n      "F_head": %s,\n      "F_tail": %s,\n'
                    '      "head": %d,\n      "tail": %d\n    }'
                    % ("," if e else "", f_head, f_tail, v, u))
        f.write("\n  ]" if sheaf.edge_count else "]")
        f.write(',\n  "nodes": %d,\n  "per_node_dim": %s\n}\n'
                % (sheaf.node_count, _json_list(["%d" % k for k in sheaf.per_node_dim], 4)))


def sheaf_from_dict(doc: dict) -> Sheaf:
    d = doc["ambient_dim"]
    edges = [(e["tail"], e["head"]) for e in doc["edges"]]
    maps = np.array([(e["F_tail"], e["F_head"]) for e in doc["edges"]], dtype=float)
    maps = maps.reshape(len(edges), 2, d, d)
    return make_sheaf(doc["nodes"], d, edges, maps, per_node_dim=doc["per_node_dim"])


def load_sheaf(path) -> Sheaf:
    return sheaf_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------- datasets

def save_dataset(dataset: Dataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": dataset.seed,
        "params": dataset.params,
        "nodes": [],
    }
    for u, node in enumerate(dataset.nodes):
        obs = f"node_{u:03d}_observations.csv"
        dic = f"node_{u:03d}_dictionary.csv"
        cof = f"node_{u:03d}_clean_coeffs.csv"
        matrix_to_csv(node.observations, out / obs)
        matrix_to_csv(node.dictionary, out / dic)
        matrix_to_csv(node.clean_coeffs, out / cof)
        manifest["nodes"].append({
            "observations": obs,
            "dictionary": dic,
            "clean_coeffs": cof,
            "support": list(node.support),
            "cluster": node.cluster,
        })
    _dump_json(manifest, out / "manifest.json")


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    nodes = []
    for rec in manifest["nodes"]:
        nodes.append(NodeData(
            observations=matrix_from_csv(src / rec["observations"]),
            dictionary=matrix_from_csv(src / rec["dictionary"]),
            support=tuple(rec["support"]),
            clean_coeffs=matrix_from_csv(src / rec["clean_coeffs"]),
            cluster=rec["cluster"],
        ))
    return Dataset(nodes=tuple(nodes), seed=manifest["seed"], params=manifest["params"])


# ------------------------------------------------------------- sparse codes

def save_sparse_codes(codes: list[SparseCode], out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for u, code in enumerate(codes):
        coeffs = f"code_{u:03d}_coefficients.csv"
        basis = f"code_{u:03d}_local_basis.csv"
        compact = f"code_{u:03d}_compact_coeffs.csv"
        matrix_to_csv(code.coefficients, out / coeffs)
        matrix_to_csv(code.local_basis, out / basis)
        matrix_to_csv(code.compact_coeffs, out / compact)
        index.append({
            "support": list(code.support),
            "coefficients_csv_path": coeffs,
            "local_basis_csv_path": basis,
            "compact_coeffs_csv_path": compact,
            "objective": code.objective,
            "converged": code.converged,
            "iterations": code.iterations,
        })
    _dump_json({"codes": index}, out / "codes.json")


def load_node_representations(in_dir) -> list[tuple[np.ndarray, np.ndarray]]:
    """Load the (local_basis, compact_coeffs) pairs a code directory holds."""
    src = Path(in_dir)
    index = json.loads((src / "codes.json").read_text())["codes"]
    return [
        (matrix_from_csv(src / rec["local_basis_csv_path"]),
         matrix_from_csv(src / rec["compact_coeffs_csv_path"]))
        for rec in index
    ]


# --------------------------------------------------------------- selections

def selection_to_dict(selection: EdgeSelection) -> dict:
    return {
        "E0": selection.E0,
        "connected_at": selection.connected_at,
        "selected": [list(p) for p in selection.selected],
        "candidates": [
            {"u": c.u, "v": c.v, "cost": c.cost, "rank": c.rank}
            for c in selection.costs
        ],
    }


def save_selection(selection: EdgeSelection, path) -> None:
    _dump_json(selection_to_dict(selection), path)


def candidates_to_csv(candidates, path) -> None:
    """u, v, cost, rank, then singular values padded to the longest profile."""
    cands = sorted(candidates, key=lambda c: (c.cost, c.u, c.v))
    width = max((len(c.singular_values) for c in cands), default=0)
    header = ",".join(["u", "v", "cost", "rank"] + [f"sigma_{i + 1}" for i in range(width)])
    row = ",".join(["%s", "%s", FLOAT_FMT, "%s"] + [FLOAT_FMT] * width) + "\n"
    pad = (0.0,) * width
    lines = [row % ((c.u, c.v, c.cost, c.rank) + tuple(c.singular_values)
                    + pad[len(c.singular_values):]) for c in cands]
    Path(path).write_text(header + "\n" + "".join(lines))


# ------------------------------------------------------------------- graphs

def write_graphml(node_count: int, edges, path, labels=None) -> None:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="cluster" for="node" attr.name="cluster" attr.type="int"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for u in range(node_count):
        if labels is not None:
            lines.append(f'    <node id="n{u}"><data key="cluster">{labels[u]}</data></node>')
        else:
            lines.append(f'    <node id="n{u}"/>')
    for i, (u, v) in enumerate(edges):
        lines.append(f'    <edge id="e{i}" source="n{u}" target="n{v}"/>')
    lines += ["  </graph>", "</graphml>"]
    Path(path).write_text("\n".join(lines) + "\n")


def write_dot(node_count: int, edges, path, labels=None) -> None:
    lines = ["graph G {"]
    for u in range(node_count):
        attr = f' [cluster={labels[u]}]' if labels is not None else ""
        lines.append(f"  {u}{attr};")
    for u, v in edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")
