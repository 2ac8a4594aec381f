"""File formats: CSV matrices, JSON sheaf/selection documents, the dataset
and code directories (an index JSON + per-node CSVs), and GraphML/DOT graph
exports.

Both directories name each per-node CSV ``<stem>_<u:03d>_<name>.csv``
(stem ``node`` or ``code``, u the node index, name the field written), one
rule written once in ``_save_node_csvs``; the index records every file name,
and the readers take the names from it.

All writers are deterministic: fixed float formatting, sorted JSON keys, no
timestamps. CSV rows are formatted with one ``%`` per row, and ``save_sheaf``
streams sheaf.json one edge at a time; both produce the same bytes as the
per-float ``"%.17g"`` loop and ``json.dumps(doc, indent=2, sort_keys=True)``.
The identity map, which every learned sheaf holds as F_head, is formatted once
per size, as CSV rows and as a JSON map, and both writers reuse that text.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .core import Sheaf, SheafStructureError, make_sheaf
from .denoise import SparseCode
from .infer import Candidates, EdgeSelection
from .synth import Dataset, NodeData, _integer

FLOAT_FMT = "%.17g"


def _csv_rows(m: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, one ``%`` per row."""
    row = ",".join([FLOAT_FMT] * m.shape[1]) + "\n"
    return "".join([row % tuple(r) for r in m.tolist()])


@functools.lru_cache(maxsize=4)
def _identity(d: int) -> tuple[bytes, str, str]:
    """The d x d identity's bytes, its CSV rows and its JSON map text
    (``_json_map``), formatted once per size."""
    eye = np.eye(d)
    return eye.tobytes(), _csv_rows(eye), _json_map(eye)


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV with a header row of column indices. A matrix bit for bit
    equal to the identity reuses the identity's text."""
    m = np.atleast_2d(np.asarray(matrix, float))
    rows, cols = m.shape
    if rows == cols and m.tobytes() == _identity(cols)[0]:
        body = _identity(cols)[1]
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
    layout of ``json.dumps(doc, indent=2, sort_keys=True)``. ``per_node_dim``
    is d for every node: every stalk is R^d."""
    d = sheaf.ambient_dim
    eye_bytes, _, eye_text = _identity(d)
    with Path(path).open("w") as f:
        f.write('{\n  "ambient_dim": %d,\n  "edges": [' % d)
        for e, ((u, v), pair) in enumerate(zip(sheaf.edges.tolist(), sheaf.maps)):
            f_tail, f_head = (eye_text if m.tobytes() == eye_bytes else _json_map(m)
                              for m in pair)
            f.write('%s\n    {\n      "F_head": %s,\n      "F_tail": %s,\n'
                    '      "head": %d,\n      "tail": %d\n    }'
                    % ("," if e else "", f_head, f_tail, v, u))
        f.write("\n  ]" if sheaf.edge_count else "]")
        f.write(',\n  "nodes": %d,\n  "per_node_dim": %s\n}\n'
                % (sheaf.node_count, _json_list(["%d" % d] * sheaf.node_count, 4)))


def _maps_as_arrays(obj: dict) -> dict:
    """``json.loads``'s object hook: an edge's ``F_tail`` and ``F_head`` lists
    become float arrays as the edge is parsed, so the whole document never
    holds its maps as Python floats. A list that does not convert is left as
    it is, for ``load_sheaf``'s own check to name."""
    for key in ("F_tail", "F_head"):
        if isinstance(obj.get(key), list):
            try:
                obj[key] = np.array(obj[key], dtype=float)
            except (TypeError, ValueError, OverflowError):
                pass
    return obj


def load_sheaf(path) -> Sheaf:
    """The sheaf a ``save_sheaf`` file describes. A map that is not d x d
    numbers raises ``ValueError`` naming the file and the edge.
    ``per_node_dim`` must hold one integer in (0, d] per node; it is checked
    and not kept, since every stalk of a ``Sheaf`` is R^d. Each map is read
    into a float array as its edge is parsed (``_maps_as_arrays``)."""
    doc = json.loads(Path(path).read_text(), object_hook=_maps_as_arrays)
    d = _integer("ambient_dim", doc["ambient_dim"])
    if d <= 0:  # checked before d sizes the map stack
        raise ValueError(f"ambient_dim must be positive, got {d}")
    edges = [(e["tail"], e["head"]) for e in doc["edges"]]
    flat = []  # the stack is sized by the maps read, never by d alone
    for e, edge in enumerate(doc["edges"]):
        for key in ("F_tail", "F_head"):
            try:
                m = np.asarray(edge[key], dtype=float).ravel()
            except (TypeError, ValueError):
                m = None
            if m is None or m.size != d * d:
                raise ValueError(f"{path}: edge {e}: {key} is not {d}x{d} numbers")
            flat.append(m)
    maps = np.stack(flat).reshape(len(edges), 2, d, d) if flat else np.empty((0, 2, d, d))
    # after make_sheaf, so a node count that is not a positive integer is
    # reported as such, not as a length mismatch
    sheaf = make_sheaf(doc["nodes"], d, edges, maps)
    dims = doc["per_node_dim"]
    if not np.iterable(dims):
        raise TypeError(f"per_node_dim must be a sequence of integers, got {dims!r}")
    dims = [_integer(f"per_node_dim[{u}]", k) for u, k in enumerate(dims)]
    if len(dims) != sheaf.node_count:
        raise SheafStructureError("per_node_dim length must equal node_count")
    for u, k in enumerate(dims):
        if not 0 < k <= d:
            raise SheafStructureError(f"per_node_dim[{u}] = {k} outside (0, {d}]")
    return sheaf


# ---------------------------------------------------------------- datasets

def _save_node_csvs(out_dir, stem: str, items, names, suffix: str = ""):
    """Write field ``name`` of the u-th item as ``<stem>_<u:03d>_<name>.csv``
    for each of ``names``, into ``out_dir`` (made if missing). Return the
    directory and one index record per item, which maps ``name + suffix`` to
    the file name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for u, item in enumerate(items):
        record = {}
        for name in names:
            file = f"{stem}_{u:03d}_{name}.csv"
            matrix_to_csv(getattr(item, name), out / file)
            record[name + suffix] = file
        index.append(record)
    return out, index


def save_dataset(dataset: Dataset, out_dir) -> None:
    out, index = _save_node_csvs(out_dir, "node", dataset.nodes,
                                 ("observations", "dictionary", "clean_coeffs"))
    for record, node in zip(index, dataset.nodes):
        record["support"] = list(node.support)
        record["cluster"] = node.cluster
    _dump_json({"seed": dataset.seed, "params": dataset.params, "nodes": index},
               out / "manifest.json")


def _support(rec: dict, u: int, path) -> tuple[int, ...]:
    """Node u's manifest support: distinct non-negative integers, or a
    ``ValueError`` naming the node and ``path``."""
    support = rec["support"]
    if not isinstance(support, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in support):
        raise ValueError(f"{path}: node {u}: support must be a list of atom indices, "
                         f"got {support!r}")
    if len(set(support)) != len(support):
        raise ValueError(f"{path}: node {u}: support {support} repeats an atom index")
    return tuple(support)


def _clean_rows(path, u: int, support: tuple[int, ...], atom_count: int) -> np.ndarray:
    """The support rows of node u's clean coefficient CSV ``path``, which must
    hold one row per atom and zeros off the support; anything else raises a
    ``ValueError`` naming the node and the file."""
    m = matrix_from_csv(path)
    if m.shape[0] != atom_count:
        raise ValueError(f"{path}: node {u}: {m.shape[0]} coefficient rows, "
                         f"the dictionary has {atom_count} atoms")
    if support and max(support) >= atom_count:
        raise ValueError(f"{path}: node {u}: support index {max(support)} outside "
                         f"[0, {atom_count})")
    rows = m[list(support)]
    m[list(support)] = 0.0  # what is left is the part off the support
    if m.any():
        i, j = np.argwhere(m)[0]
        raise ValueError(f"{path}: node {u}: nonzero entry {float(m[i, j])!r} at row {i}, "
                         f"column {j}, off the support")
    return rows


def load_dataset(in_dir, clean_coeffs: bool = True) -> Dataset:
    """Read a ``save_dataset`` directory. Each support must hold distinct
    non-negative integers. The clean coefficient CSV of a node is read into
    its support rows (``NodeData.clean_rows``); it must have one row per
    atom, every support index must be one of them, and every row off the
    support must be zero. Each of these faults raises ``ValueError`` naming
    the node and the file. With ``clean_coeffs=False`` the ground-truth CSVs
    are not read and each node's ``clean_coeffs`` is None: denoising reads
    only the observations and the dictionaries."""
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    nodes = []
    for u, rec in enumerate(manifest["nodes"]):
        observations = matrix_from_csv(src / rec["observations"])
        dictionary = matrix_from_csv(src / rec["dictionary"])
        support = _support(rec, u, src / "manifest.json")
        nodes.append(NodeData(
            observations=observations,
            dictionary=dictionary,
            support=support,
            clean_rows=(_clean_rows(src / rec["clean_coeffs"], u, support, dictionary.shape[1])
                        if clean_coeffs else None),
            cluster=rec["cluster"],
        ))
    return Dataset(nodes=tuple(nodes), seed=manifest["seed"], params=manifest["params"])


# ------------------------------------------------------------- sparse codes

def save_sparse_codes(codes: list[SparseCode], out_dir) -> None:
    out, index = _save_node_csvs(out_dir, "code", codes,
                                 ("coefficients", "local_basis", "compact_coeffs"), "_csv_path")
    for record, code in zip(index, codes):
        record["support"] = list(code.support)
        record["objective"] = code.objective
        record["converged"] = code.converged
        record["iterations"] = code.iterations
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

def save_selection(selection: EdgeSelection, path) -> None:
    table = selection.candidates
    _dump_json({
        "E0": selection.E0,
        "connected_at": selection.connected_at,
        "selected": [list(p) for p in selection.selected],
        "candidates": [
            {"u": u, "v": v, "cost": c, "rank": r}
            for u, v, c, r in zip(table.u.tolist(), table.v.tolist(), table.cost.tolist(),
                                  table.rank.tolist())
        ],
    }, path)


def candidates_to_csv(candidates: Candidates, path) -> None:
    """u, v, cost, rank, then the singular values, one row per candidate in
    the table's cost order."""
    width = candidates.sigma.shape[1]
    header = ",".join(["u", "v", "cost", "rank"] + [f"sigma_{i + 1}" for i in range(width)])
    # the integer columns print as ints: they are far below 2^53, where "%.17g"
    # writes an integral float as "%s" writes the int
    table = np.column_stack([candidates.u, candidates.v, candidates.cost,
                             candidates.rank, candidates.sigma])
    Path(path).write_text(header + "\n" + _csv_rows(table))


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
