"""Command-line driver for the full pipeline.

Subcommands: generate, denoise, infer, sweep, cluster, export. All outputs
are deterministic given identical config and seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
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
from .synth import SynthConfig, _check_protocol, generate_dataset


class _InputError(Exception):
    """Bad input named on the command line: one line on stderr, exit status 2."""


@contextmanager
def _input(path):
    """Turns an OSError, KeyError, TypeError or ValueError into an input error naming path."""
    try:
        yield
    except OSError as err:
        raise _InputError(f"{err.filename or path}: {err.strerror}") from None
    except KeyError as err:
        raise _InputError(f"{path}: no {err} entry") from None
    except (TypeError, ValueError) as err:
        message = str(err)  # a reader's own message may name the file already
        if path is not None and not message.startswith(str(path)):
            message = f"{path}: {message}"
        raise _InputError(message) from None


def _load_config(path, target, seed=None) -> dict:
    """The settings in JSON file ``path`` ({} without one), with ``seed`` set
    when given: an object whose keys name parameters of ``target`` that have
    a default (so cluster's seed comes from ``--seed`` only), read and built
    under ``_input``. Anything else is an input error naming the file and the key."""
    doc = {} if path is None else json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise _InputError(f"{path}: expected a JSON object of settings, "
                          f"found a {type(doc).__name__}")
    accepted = [name for name, param in inspect.signature(target).parameters.items()
                if param.default is not param.empty]
    for key in doc:
        if key not in accepted:
            raise _InputError(f"{path}: unknown key {key!r} (expected one of "
                              f"{', '.join(accepted)})")
    if seed is not None:
        doc["seed"] = seed
    return doc


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
    with _input(args.config):
        cfg = SynthConfig(**_load_config(args.config, SynthConfig, args.seed))
    out = _out_dir(args)
    save_dataset(generate_dataset(cfg), out)
    print(f"wrote dataset ({cfg.node_count} nodes, {cfg.snapshots} snapshots) to {out}")
    return 0


def cmd_denoise(args) -> int:
    with _input(args.config):
        cfg = DenoiseConfig(**_load_config(args.config, DenoiseConfig))
    with _input(args.data):
        dataset = load_dataset(args.data)
    codes = code_dataset(dataset, cfg)
    out = _out_dir(args)
    save_sparse_codes(codes, out)
    dims = [c.subspace_dim for c in codes]
    print(f"coded {len(codes)} nodes, subspace dims {dims}, wrote codes to {out}")
    return 0


def _edge_budget(text: str):
    """``--e0``: "auto" or a non-negative integer."""
    if text != "auto" and not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected 'auto' or a non-negative integer: {text!r}")
    return text if text == "auto" else int(text)


def cmd_infer(args) -> int:
    with _input(args.data):
        reps = load_node_representations(args.data)
    if len(reps) < 2:
        raise _InputError(f"{args.data}: need at least two nodes, found {len(reps)}")
    pairs = len(reps) * (len(reps) - 1) // 2
    if args.e0 != "auto" and args.e0 > pairs:
        raise _InputError(f"--e0 {args.e0} exceeds the {pairs} node pairs")
    candidates = enumerate_candidates(reps, mode=args.mode)
    e0 = min_edges_for_connectivity(candidates) if args.e0 == "auto" else args.e0
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
    with _input(args.config):
        cfg_doc = _load_config(args.config, SweepSpec, args.seed)
        spec = SweepSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg_doc.items()})
    report = run_tv_sweep(spec, threads=args.threads)
    out = _out_dir(args)
    report.to_csv(out / "report.csv", include_timing=args.timings)
    emit_plots(report, out)
    _write_manifest(out, "sweep", spec.seed, cfg_doc)
    print(f"sweep complete: {len(report.rows)} rows in {out / 'report.csv'}")
    return 0


def cmd_cluster(args) -> int:
    seed = args.seed if args.seed is not None else 0
    with _input(args.config):
        cfg_doc = _load_config(args.config, run_cluster_experiment)
        # the checks the experiment makes, before it draws any data
        call = inspect.signature(run_cluster_experiment).bind(seed, **cfg_doc)
        call.apply_defaults()
        DenoiseConfig(alpha=call.arguments["alpha"])
        _check_protocol(*(call.arguments[k] for k in ("seed", "snapshots", "rho", "snr_db")))
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


EXPORT_FORMATS = ("graphml", "dot", "csv")


def cmd_export(args) -> int:
    formats = args.formats.split(",")
    for fmt in formats:
        if fmt not in EXPORT_FORMATS:
            raise _InputError(f"unknown export format: {fmt}")
    with _input(args.sheaf):
        sheaf = load_sheaf(args.sheaf)
    out = _out_dir(args)
    for fmt in formats:
        if fmt == "graphml":
            write_graphml(sheaf.node_count, sheaf.edges.tolist(), out / "sheaf.graphml")
        elif fmt == "dot":
            write_dot(sheaf.node_count, sheaf.edges.tolist(), out / "sheaf.dot")
        else:  # csv
            for e in range(sheaf.edge_count):
                matrix_to_csv(sheaf.maps[e, 0], out / f"edge_{e:03d}_F_tail.csv")
                matrix_to_csv(sheaf.maps[e, 1], out / f"edge_{e:03d}_F_head.csv")
    print(f"exported {', '.join(formats)} to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # each flag goes to the subcommands that read it
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="out", help="output directory")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON config file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    timings = argparse.ArgumentParser(add_help=False)
    timings.add_argument("--timings", action="store_true",
                         help="record measured wall_ms in report.csv (non-deterministic)")

    parser = argparse.ArgumentParser(prog="sheaflearn",
                                     description="Learn a cellular sheaf on a graph from node data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[out, config, seed], help="generate a synthetic dataset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("denoise", parents=[out, config], help="block-sparse code a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("infer", parents=[out], help="infer the sheaf topology")
    p.add_argument("--data", required=True, help="sparse-code directory")
    p.add_argument("--mode", choices=("aligned", "baseline"), default="aligned")
    p.add_argument("--e0", type=_edge_budget, default="auto",
                   help="edge budget, or 'auto' for connectivity minimum")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep", parents=[out, config, seed, timings],
                       help="TV sweep over (alpha, snr, E0)")
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", parents=[out, config, seed, timings], help="two-cluster comparison experiment")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("export", parents=[out], help="convert a sheaf JSON to other formats")
    p.add_argument("--sheaf", required=True, help="sheaf JSON file")
    p.add_argument("--formats", default="graphml,dot", help="comma-separated: graphml,dot,csv")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as err:
        print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
