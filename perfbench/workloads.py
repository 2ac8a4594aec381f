"""The benchmark's workloads, the binding sites its traced run wraps, and the
per-layer metrics it derives from the spans.

Each workload sets itself up from the seed in ``__init__`` (timed as part of
``setup_s``), runs one closed-loop pass in ``run`` and checks that pass's
outputs in ``check``, outside the timed region. Passes call the program
through module attributes (``core.assemble_laplacian``), so the wrappers the
traced run installs on those attributes see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import statistics

import numpy as np

from sheaflearn import cli, core, denoise, experiments, infer, synth

import oracle
from spans import Site, count, layer_self_times, peak_mb, total


class Checks:
    """Counts checks attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            shown = "; ".join(failures[:3])
            more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
            self.messages.append(f"{name}: {shown}{more}")

    def same_as_first(self, name: str, value, store: dict) -> None:
        """From the second pass on, record that ``value`` equals the first pass's."""
        if name not in store:
            store[name] = value
            return
        first = store[name]
        self.record(name, [] if value == first else [f"{value!r} != first pass {first!r}"])


def warm_up() -> None:
    """Run the learn path once on a tiny input so lazily loaded numpy and
    LAPACK code is paged in before anything is timed."""
    data = synth.generate_dataset(synth.SynthConfig(
        node_count=3, ambient_dim=8, dims=3, snapshots=16, seed=0))
    codes = denoise.code_dataset(data, denoise.DenoiseConfig(alpha=0.1))
    cands = infer.enumerate_candidates([(c.local_basis, c.compact_coeffs) for c in codes])
    sheaf = infer.build_sheaf(infer.select_topology(cands, len(cands)))
    lap = core.assemble_laplacian(sheaf)
    core.total_variation(lap, np.ones((lap.dim, 2)))
    core.global_section_dim(lap)


def _signals(reps):
    return [b @ s for b, s in reps]


def _sheaf_maps(sheaf):
    return [np.asarray(getattr(m, "matrix", m)) for pair in sheaf.maps for m in pair]


class LearnV64:
    """Learn-and-analyse path at V = 64, d = 64, N = 512, called in-process."""

    name = "learn_v64"
    full = dict(node_count=64, ambient_dim=64, snapshots=512, dims=("uniform", 8, 32),
                rho=0.9, snr_db=20.0)
    smoke = dict(node_count=8, ambient_dim=16, snapshots=64, dims=("uniform", 2, 6),
                 rho=0.9, snr_db=20.0)
    alpha = 4.0
    # The edge budget is fixed rather than the connectivity minimum of each
    # seed (829 to 1240 over seeds 0-15): the incidence matrix, B B^T and the
    # total variation all scale with E0, so a per-seed E0 would make wall time
    # and peak memory depend on the seed. 1089 is the minimum at seed 0.
    e0 = {False: 1089, True: 14}

    def __init__(self, seed: int, small: bool, work: pathlib.Path):
        cfg = dict(self.smoke if small else self.full, seed=seed)
        self.E0 = self.e0[small]
        self.params = dict(cfg, alpha=self.alpha, mode="aligned", E0=self.E0)
        self.dataset = synth.generate_dataset(synth.SynthConfig(**cfg))
        self.first: dict = {}

    def run(self, tracer=None):
        codes = denoise.code_dataset(self.dataset, denoise.DenoiseConfig(alpha=self.alpha))
        reps = [(c.local_basis, c.compact_coeffs) for c in codes]
        cands = infer.enumerate_candidates(reps, mode="aligned")
        conn = infer.min_edges_for_connectivity(cands)
        selection = infer.select_topology(cands, self.E0)
        sheaf = infer.build_sheaf(selection)
        lap = core.assemble_laplacian(sheaf)
        tv = core.total_variation(lap, core.Cochain0(tuple(_signals(reps))))
        h0 = core.global_section_dim(lap)
        return dict(reps=reps, cands=cands, conn=conn, selection=selection, sheaf=sheaf,
                    tv=tv, h0=h0)

    def check(self, out, checks: Checks) -> None:
        node_count = len(out["reps"])
        costs = oracle.oracle_costs(_signals(out["reps"]))
        sel = out["selection"]
        checks.record("candidate costs match direct SVD",
                      oracle.check_candidate_costs(out["cands"], costs))
        checks.record("selection is the E0 cheapest pairs",
                      oracle.check_selection(sel.selected, self.E0, costs))
        own = oracle.connected_at(costs, node_count)
        checks.record("connectivity minimum matches own union-find",
                      [] if own == out["conn"] == sel.connected_at else
                      [f"own {own}, min_edges_for_connectivity {out['conn']}, "
                       f"connected_at {sel.connected_at}"])
        checks.record("restriction maps orthonormal",
                      oracle.check_orthonormal(_sheaf_maps(out["sheaf"])))
        checks.record("total variation equals selected costs",
                      oracle.check_total_variation(out["tv"], sel.selected, costs))
        dim = node_count * self.params["ambient_dim"]
        checks.record("global section dimension in range",
                      [] if 0 <= out["h0"] <= dim else [f"{out['h0']} outside [0, {dim}]"])
        digest = hashlib.sha256(repr((sel.selected, out["tv"], out["h0"])).encode()).hexdigest()
        checks.same_as_first("outputs repeat across passes", digest, self.first)
        self.digest = digest


class ExperimentsV16:
    """The paper's two experiments: the default TV sweep and ten cluster seeds."""

    name = "experiments_v16"
    cluster_count = 10

    def __init__(self, seed: int, small: bool, work: pathlib.Path):
        if small:
            self.spec = experiments.SweepSpec(
                alpha_grid=(0.1,), snr_grid=(20.0,), seed=seed, node_count=6,
                ambient_dim=16, dims=("uniform", 2, 6), snapshots=64)
            self.cluster_kwargs = dict(snapshots=128)
            seeds = 2
        else:
            self.spec = experiments.SweepSpec(seed=seed)
            self.cluster_kwargs = {}
            seeds = self.cluster_count
        self.cluster_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(seeds)]
        self.params = dict(sweep=repr(self.spec), threads=1, cluster_seeds=self.cluster_seeds,
                           cluster_kwargs=self.cluster_kwargs, seed=seed)
        self.report_path = work / "report.csv"
        self.first: dict = {}

    def run(self, tracer=None):
        report = experiments.run_tv_sweep(self.spec, threads=1)
        clusters = [(s, experiments.run_cluster_experiment(s, **self.cluster_kwargs)[0])
                    for s in self.cluster_seeds]
        return report, clusters

    def _csv_text(self, report) -> str:
        report.to_csv(self.report_path)
        text = self.report_path.read_text()
        self.report_path.unlink()
        return text

    def check(self, out, checks: Checks) -> None:
        report, clusters = out
        checks.record("aligned TV <= baseline TV at every sweep point",
                      oracle.check_aligned_below_baseline(report.rows))
        for seed, cluster_report in clusters:
            checks.record(f"cluster seed {seed}: aligned intra-cluster fraction above baseline",
                          oracle.check_cluster_fraction(cluster_report.rows, seed))
        text = self._csv_text(report) + "".join(self._csv_text(r) for _, r in clusters)
        digest = hashlib.sha256(text.encode()).hexdigest()
        checks.same_as_first("report.csv identical across passes", digest, self.first)
        self.digest = digest


class CliV32:
    """``sheaflearn.cli.main`` in-process: generate, denoise, infer, export at V = 32."""

    name = "cli_v32"
    full = dict(node_count=32, ambient_dim=64, snapshots=512, dims=["uniform", 8, 32],
                rho=0.9, snr_db=20.0)
    smoke = dict(node_count=6, ambient_dim=16, snapshots=64, dims=["uniform", 2, 6],
                 rho=0.9, snr_db=20.0)

    # Fixed for the reason given at LearnV64.e0: sheaf.json, the export CSVs
    # and their peak memory scale with E0. 266 is the minimum at seed 0.
    e0 = {False: 266, True: 8}

    def __init__(self, seed: int, small: bool, work: pathlib.Path):
        self.seed = seed
        self.work = work
        self.E0 = self.e0[small]
        gen = dict(self.smoke if small else self.full)
        den = dict(alpha=4.0)
        self.gen_path = work / "generate.json"
        self.den_path = work / "denoise.json"
        self.gen_path.write_text(json.dumps(gen))
        self.den_path.write_text(json.dumps(den))
        self.params = dict(generate=gen, denoise=den, mode="aligned", E0=self.E0,
                           formats="graphml,dot,csv", seed=seed)
        self.passes = 0
        self.first: dict = {}

    def run(self, tracer=None):
        self.passes += 1
        base = self.work / f"pass_{self.passes}"
        steps = [
            ("generate", ["--config", str(self.gen_path), "--seed", str(self.seed),
                          "--out", str(base / "data")]),
            ("denoise", ["--data", str(base / "data"), "--config", str(self.den_path),
                         "--out", str(base / "codes")]),
            ("infer", ["--data", str(base / "codes"), "--mode", "aligned", "--e0", str(self.E0),
                       "--out", str(base / "inferred")]),
            ("export", ["--sheaf", str(base / "inferred" / "sheaf.json"),
                        "--formats", "graphml,dot,csv", "--out", str(base / "export")]),
        ]
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command, argv in steps:
                span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
                with span:
                    codes[command] = cli.main([command] + argv)
        return base, codes

    def check(self, out, checks: Checks) -> None:
        base, codes = out
        try:
            checks.record("every command exits 0",
                          [f"{c} returned {rc}" for c, rc in codes.items() if rc != 0])
            sheaf = json.loads((base / "inferred" / "sheaf.json").read_text())
            selection = json.loads((base / "inferred" / "selection.json").read_text())
            edges = [[e["tail"], e["head"]] for e in sheaf["edges"]]
            checks.record("sheaf.json edges equal selection.json selected",
                          [] if edges == selection["selected"] else
                          [f"{len(edges)} sheaf edges vs {len(selection['selected'])} selected"])
            checks.record("selection.json holds E0 edges",
                          [] if selection["E0"] == len(selection["selected"]) == self.E0 else
                          [f"E0 {selection['E0']}, {len(selection['selected'])} selected"])
            digest = tree_digest(base)
            checks.same_as_first("artifact digests identical across passes", digest,
                                 self.first)
            self.digest = digest
        finally:
            shutil.rmtree(base, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LearnV64, ExperimentsV16, CliV32)}


def tree_digest(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ------------------------------------------------------------------ tracing

def _after_code(tracer, args, kwargs, codes):
    tracer.counters["denoise.iterations"] += sum(getattr(c, "iterations", 0) for c in codes)
    tracer.counters["denoise.support_dim"] += sum(len(getattr(c, "support", ())) for c in codes)


def _after_enumerate(tracer, args, kwargs, cands):
    tracer.counters["infer.pairs"] += len(cands)


def _after_select(tracer, args, kwargs, selection):
    tracer.samples["infer.e0"].append(getattr(selection, "E0", 0))
    tracer.samples["infer.connected_at"].append(getattr(selection, "connected_at", 0))


def _after_build(tracer, args, kwargs, sheaf):
    tracer.counters["align.maps_used"] += len(getattr(sheaf, "edges", ()))


def _after_generate(tracer, args, kwargs, dataset):
    # the generators are deterministic, so equal arguments mean equal data
    tracer.samples["synth.datasets"].append(repr((args, sorted(kwargs.items()))))


def _enumerate_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "aligned")
    return f"infer.enumerate_{mode}"


def _sites():
    sites = [
        Site("sheaflearn.experiments", "run_tv_sweep", "experiments.sweep"),
        Site("sheaflearn.experiments", "run_cluster_experiment", "experiments.cluster"),
        Site("sheaflearn.infer", "procrustes_align", "align.procrustes"),
        Site("sheaflearn.infer", "unaligned_distance", "align.unaligned"),
        Site("sheaflearn.experiments", "sort_candidates", "infer.sort"),
        Site("sheaflearn.core", "assemble_laplacian", "core.assemble"),
        Site("sheaflearn.core", "assemble_incidence", "core.incidence"),
        Site("sheaflearn.core", "total_variation", "core.tv"),
        Site("sheaflearn.core", "global_section_dim", "core.spectrum"),
    ]
    for module in ("sheaflearn.experiments", "sheaflearn.cli"):
        sites.append(Site(module, "generate_dataset", "synth.generate", _after_generate))
    sites.append(Site("sheaflearn.experiments", "generate_cluster_scenario", "synth.generate",
                      _after_generate))
    for module in ("sheaflearn.denoise", "sheaflearn.experiments", "sheaflearn.cli"):
        sites.append(Site(module, "code_dataset", "denoise.code", _after_code))
    for module in ("sheaflearn.infer", "sheaflearn.experiments", "sheaflearn.cli"):
        sites.append(Site(module, "enumerate_candidates", _enumerate_name, _after_enumerate))
        sites.append(Site(module, "min_edges_for_connectivity", "infer.connectivity"))
    for module in ("sheaflearn.infer", "sheaflearn.cli"):
        # run_cluster_experiment imports select_topology from sheaflearn.infer per call
        sites.append(Site(module, "select_topology", "infer.select", _after_select))
        sites.append(Site(module, "build_sheaf", "core.build_sheaf", _after_build))
    for attr in ("save_dataset", "save_sparse_codes", "save_selection", "candidates_to_csv",
                 "save_sheaf", "write_graphml", "write_dot", "matrix_to_csv"):
        sites.append(Site("sheaflearn.cli", attr, "serialize.write"))
    for attr in ("load_dataset", "load_node_representations", "load_sheaf"):
        sites.append(Site("sheaflearn.cli", attr, "serialize.read"))
    return tuple(sites)


SITES = _sites()

# spans whose tracemalloc peak is reported (core.peak_mb, infer.enumerate_peak_mb)
MEMORY_PREFIXES = ("core.", "infer.enumerate_")

LAYERS = ("synth", "denoise", "align", "infer", "core", "experiments", "serialize", "cli")


@contextlib.contextmanager
def counting_paths(tracer):
    """Count the bytes ``sheaflearn.serialize`` writes and reads through ``Path``."""
    import sheaflearn.serialize as serialize

    base = getattr(serialize, "Path", None)
    if base is None:
        tracer.missing.append("sheaflearn.serialize.Path")
        yield
        return

    class CountingPath(type(pathlib.Path())):
        def write_text(self, data, *args, **kwargs):
            n = super().write_text(data, *args, **kwargs)
            tracer.counters["serialize.bytes_written"] += self.stat().st_size
            return n

        def read_text(self, *args, **kwargs):
            tracer.counters["serialize.bytes_read"] += self.stat().st_size
            return super().read_text(*args, **kwargs)

    serialize.Path = CountingPath
    try:
        yield
    finally:
        serialize.Path = base


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, samples) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, keyed by name, as (value, unit)."""
    enumerate_s = total(spans, "infer.enumerate_aligned") + total(spans, "infer.enumerate_baseline")
    procrustes_calls = count(spans, "align.procrustes")
    datasets = samples["synth.datasets"]
    generate_calls = count(spans, "synth.generate")
    selfs = layer_self_times(spans)
    root = [s for s in spans if s.parent is None]
    m = {
        "core.assemble_s": (total(spans, "core.assemble"), "s"),
        "core.incidence_s": (total(spans, "core.incidence"), "s"),
        "core.tv_s": (total(spans, "core.tv"), "s"),
        "core.spectrum_s": (total(spans, "core.spectrum"), "s"),
        "core.build_sheaf_s": (total(spans, "core.build_sheaf"), "s"),
        "core.peak_mb": (peak_mb(spans, "core"), "MB"),
        "infer.enumerate_aligned_s": (total(spans, "infer.enumerate_aligned"), "s"),
        "infer.enumerate_baseline_s": (total(spans, "infer.enumerate_baseline"), "s"),
        "infer.pairs": (counters["infer.pairs"], "count"),
        "infer.pairs_per_s": (_ratio(counters["infer.pairs"], enumerate_s), "1/s"),
        "infer.enumerate_peak_mb": (max(peak_mb(spans, "infer.enumerate_aligned"),
                                        peak_mb(spans, "infer.enumerate_baseline")), "MB"),
        "infer.select_s": (total(spans, "infer.select"), "s"),
        "infer.e0": (statistics.fmean(samples["infer.e0"] or [0]), "count"),
        "infer.connected_at": (statistics.fmean(samples["infer.connected_at"] or [0]), "count"),
        "align.procrustes_s": (total(spans, "align.procrustes"), "s"),
        "align.procrustes_calls": (procrustes_calls, "count"),
        "align.maps_used_ratio": (_ratio(counters["align.maps_used"], procrustes_calls), "ratio"),
        "denoise.code_s": (total(spans, "denoise.code"), "s"),
        "denoise.iterations": (counters["denoise.iterations"], "count"),
        "denoise.support_dim": (counters["denoise.support_dim"], "count"),
        "synth.generate_s": (total(spans, "synth.generate"), "s"),
        "synth.generate_calls": (generate_calls, "count"),
        "synth.useful_ratio": (_ratio(len(set(datasets)), generate_calls), "ratio"),
        "experiments.sweep_s": (total(spans, "experiments.sweep"), "s"),
        "experiments.cluster_s": (total(spans, "experiments.cluster"), "s"),
        "serialize.write_s": (total(spans, "serialize.write"), "s"),
        "serialize.read_s": (total(spans, "serialize.read"), "s"),
        "serialize.bytes_written": (counters["serialize.bytes_written"], "bytes"),
        "serialize.bytes_read": (counters["serialize.bytes_read"], "bytes"),
        "cli.generate_s": (total(spans, "cli.generate"), "s"),
        "cli.denoise_s": (total(spans, "cli.denoise"), "s"),
        "cli.infer_s": (total(spans, "cli.infer"), "s"),
        "cli.export_s": (total(spans, "cli.export"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.wall_s"] = (sum(s.duration for s in root), "s")
    m["trace.unaccounted_s"] = (selfs.get("bench", 0.0), "s")
    return m

