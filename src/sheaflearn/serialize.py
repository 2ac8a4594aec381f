"""File formats: CSV matrices, JSON sheaf/selection documents, the dataset
container (manifest + per-node CSVs), and GraphML/DOT graph exports.

All writers are deterministic: fixed float formatting, sorted JSON keys, no
timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Sheaf, make_sheaf
from .denoise import SparseCode
from .infer import EdgeSelection
from .synth import Dataset, NodeData

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV with a header row of column indices."""
    m = np.atleast_2d(np.asarray(matrix, float))
    lines = [",".join(str(j) for j in range(m.shape[1]))]
    for row in m:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def matrix_from_csv(path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    body = lines[1:]
    if not body:
        return np.zeros((0, len(lines[0].split(","))))
    return np.array([[float(x) for x in line.split(",")] for line in body])


def _dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- sheaves

def sheaf_to_dict(sheaf: Sheaf) -> dict:
    return {
        "nodes": sheaf.node_count,
        "ambient_dim": sheaf.ambient_dim,
        "per_node_dim": list(sheaf.per_node_dim),
        "edges": [
            {"tail": u, "head": v, "F_tail": f_tail, "F_head": f_head}
            for (u, v), (f_tail, f_head) in zip(
                sheaf.edges.tolist(), sheaf.maps.reshape(sheaf.edge_count, 2, -1).tolist()
            )
        ],
    }


def sheaf_from_dict(doc: dict) -> Sheaf:
    d = doc["ambient_dim"]
    edges = [(e["tail"], e["head"]) for e in doc["edges"]]
    maps = np.array([(e["F_tail"], e["F_head"]) for e in doc["edges"]], dtype=float)
    maps = maps.reshape(len(edges), 2, d, d)
    return make_sheaf(doc["nodes"], d, edges, maps, per_node_dim=doc["per_node_dim"])


def save_sheaf(sheaf: Sheaf, path) -> None:
    _dump_json(sheaf_to_dict(sheaf), path)


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
    header = ["u", "v", "cost", "rank"] + [f"sigma_{i + 1}" for i in range(width)]
    lines = [",".join(header)]
    for c in cands:
        sig = list(c.singular_values) + [0.0] * (width - len(c.singular_values))
        lines.append(",".join(
            [str(c.u), str(c.v), _fmt(c.cost), str(c.rank)] + [_fmt(s) for s in sig]
        ))
    Path(path).write_text("\n".join(lines) + "\n")


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
