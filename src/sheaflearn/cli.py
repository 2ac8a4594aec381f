"""Command-line driver for the full pipeline.

Subcommands: generate, denoise, infer, sweep, cluster, export. All outputs
are deterministic given identical config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .denoise import DenoiseConfig, code_dataset
from .experiments import (
    RunReport,
    SweepSpec,
    emit_plots,
    run_cluster_experiment,
    run_tv_sweep,
)
from .infer import (
    build_sheaf,
    enumerate_candidates,
    min_edges_for_connectivity,
    select_topology,
)
from .serialize import (
    _dump_json,
    candidates_to_csv,
    load_dataset,
    load_node_representations,
    load_sheaf,
    matrix_to_csv,
    save_dataset,
    save_selection,
    save_sheaf,
    save_sparse_codes,
    write_dot,
    write_graphml,
)
from .synth import SynthConfig, generate_dataset


def _load_config(path) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _write_manifest(out: Path, command: str, seed, config: dict) -> None:
    doc = {
        "tool": "sheaflearn",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
    }
    _dump_json(doc, out / "manifest.json")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    cfg_doc = _load_config(args.config)
    if args.seed is not None:
        cfg_doc["seed"] = args.seed
    cfg = SynthConfig(**cfg_doc)
    out = _out_dir(args)
    save_dataset(generate_dataset(cfg), out)
    print(f"wrote dataset ({cfg.node_count} nodes, {cfg.snapshots} snapshots) to {out}")
    return 0


def cmd_denoise(args) -> int:
    cfg_doc = _load_config(args.config)
    cfg = DenoiseConfig(**{k: cfg_doc[k] for k in
                           ("alpha", "max_iters", "rel_tol", "support_threshold")
                           if k in cfg_doc})
    dataset = load_dataset(args.data)
    codes = code_dataset(dataset, cfg)
    out = _out_dir(args)
    save_sparse_codes(codes, out)
    dims = [c.subspace_dim for c in codes]
    print(f"coded {len(codes)} nodes, subspace dims {dims}, wrote codes to {out}")
    return 0


def cmd_infer(args) -> int:
    reps = load_node_representations(args.data)
    candidates = enumerate_candidates(reps, mode=args.mode)
    if args.e0 == "auto":
        e0 = min_edges_for_connectivity(candidates)
    else:
        e0 = int(args.e0)
    selection = select_topology(candidates, e0)
    sheaf = build_sheaf(selection)
    out = _out_dir(args)
    save_selection(selection, out / "selection.json")
    candidates_to_csv(candidates, out / "candidates.csv")
    save_sheaf(sheaf, out / "sheaf.json")
    write_graphml(sheaf.node_count, selection.selected, out / "graph.graphml")
    write_dot(sheaf.node_count, selection.selected, out / "graph.dot")
    print(f"selected {e0} edges ({args.mode} mode, connectivity minimum "
          f"{selection.connected_at}), wrote artifacts to {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg_doc = _load_config(args.config)
    if args.seed is not None:
        cfg_doc["seed"] = args.seed
    for key in ("alpha_grid", "snr_grid", "e0_grid", "modes"):
        if key in cfg_doc and cfg_doc[key] is not None:
            cfg_doc[key] = tuple(cfg_doc[key])
    spec = SweepSpec(**cfg_doc)
    report = run_tv_sweep(spec, threads=args.threads)
    out = _out_dir(args)
    report.to_csv(out / "report.csv", include_timing=args.timings)
    emit_plots(report, out)
    _write_manifest(out, "sweep", spec.seed, cfg_doc)
    print(f"sweep complete: {len(report.rows)} rows in {out / 'report.csv'}")
    return 0


def cmd_cluster(args) -> int:
    seed = args.seed if args.seed is not None else 0
    cfg_doc = _load_config(args.config)
    report, graphs, labels = run_cluster_experiment(seed, **cfg_doc)
    out = _out_dir(args)
    report.to_csv(out / "report.csv", include_timing=args.timings)
    for mode, selection in graphs.items():
        write_graphml(len(labels), selection.selected, out / f"graph_{mode}.graphml",
                      labels=labels)
        write_dot(len(labels), selection.selected, out / f"graph_{mode}.dot",
                  labels=labels)
    _write_manifest(out, "cluster", seed, cfg_doc)
    for row in report.sorted_rows():
        print(f"{row.mode}: E0={row.e0}, intra-cluster fraction "
              f"{row.intra_cluster_fraction:.3f}")
    return 0


def cmd_export(args) -> int:
    sheaf = load_sheaf(args.sheaf)
    out = _out_dir(args)
    formats = args.formats.split(",")
    for fmt in formats:
        if fmt == "graphml":
            write_graphml(sheaf.node_count, sheaf.edges.tolist(), out / "sheaf.graphml")
        elif fmt == "dot":
            write_dot(sheaf.node_count, sheaf.edges.tolist(), out / "sheaf.dot")
        elif fmt == "csv":
            for e in range(sheaf.edge_count):
                matrix_to_csv(sheaf.maps[e, 0], out / f"edge_{e:03d}_F_tail.csv")
                matrix_to_csv(sheaf.maps[e, 1], out / f"edge_{e:03d}_F_head.csv")
        else:
            print(f"unknown export format: {fmt}", file=sys.stderr)
            return 2
    print(f"exported {', '.join(formats)} to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads")
    common.add_argument("--timings", action="store_true",
                        help="record measured wall_ms in report.csv (non-deterministic)")

    parser = argparse.ArgumentParser(prog="sheaflearn",
                                     description="Learn a cellular sheaf on a graph from node data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a synthetic dataset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("denoise", parents=[common], help="block-sparse code a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("infer", parents=[common], help="infer the sheaf topology")
    p.add_argument("--data", required=True, help="sparse-code directory")
    p.add_argument("--mode", choices=("aligned", "baseline"), default="aligned")
    p.add_argument("--e0", default="auto", help="edge budget, or 'auto' for connectivity minimum")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep", parents=[common], help="TV sweep over (alpha, snr, E0)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", parents=[common], help="two-cluster comparison experiment")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("export", parents=[common], help="convert a sheaf JSON to other formats")
    p.add_argument("--sheaf", required=True, help="sheaf JSON file")
    p.add_argument("--formats", default="graphml,dot", help="comma-separated: graphml,dot,csv")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
