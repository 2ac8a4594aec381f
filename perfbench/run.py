"""Benchmark of the sheaflearn pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload learn_v64 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

One client runs passes in a closed loop, one pass at a time, until the passes
have taken ``--seconds``. ``--trace 0`` reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``); ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones. Every
pass's outputs are checked outside the timed region. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Human-readable detail, including the environment record, goes to standard
error. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("learn_v64", "experiments_v16", "cli_v32")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use. Must run before
    numpy is imported, which is why the program is imported inside main."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import sheaflearn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sheaflearn

    location = pathlib.Path(sheaflearn.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"sheaflearn imported from {location}, not from {src}")
    return sheaflearn


def environment(nproc: int, args, params) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    import workloads

    return {
        "git_sha": sha,
        "src_digest": workloads.tree_digest(ROOT / "src" / "sheaflearn")[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": params,
    }


def setup_seconds(args) -> list[float]:
    """Time fresh processes from start to inputs ready: interpreter start,
    imports, input generation from the seed and warm-up. Each probe prints
    the wall-clock time at which it was ready, so neither its exit nor the
    parent's polling for it is counted."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        probe = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=170)
        samples.append(float(probe.stdout.strip().splitlines()[-1]) - t0)
    return samples


def work_dir(args) -> pathlib.Path:
    path = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run is still using it


def run_workload(args, nproc: int) -> dict:
    import gc
    import resource

    import workloads
    from spans import Tracer

    setup = [] if args.setup_probe else setup_seconds(args)
    work = work_dir(args)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        workloads.warm_up()
        if args.setup_probe:
            print(repr(time.time()))
            return {}
        print("env " + json.dumps(environment(nproc, args, wl.params), sort_keys=True),
              file=sys.stderr)

        checks = workloads.Checks()
        tracer = Tracer(memory_prefixes=workloads.MEMORY_PREFIXES)
        walls, traced_walls, layer = [], [], []
        while not (walls and (traced_walls or not args.trace)
                   and sum(walls) + sum(traced_walls) >= args.seconds):
            gc.collect()
            if args.trace and len(traced_walls) < len(walls):
                tracer.pass_id += 1
                tracer.counters.clear()
                tracer.samples.clear()
                with tracer.installed(workloads.SITES), workloads.counting_paths(tracer):
                    with tracer.span("bench.pass"):
                        out = wl.run(tracer)
                spans = [s for s in tracer.spans if s.pass_id == tracer.pass_id]
                metrics = workloads.layer_metrics(spans, tracer.counters, tracer.samples)
                traced_walls.append(metrics["trace.wall_s"][0])
                layer.append(metrics)
            else:
                t0 = time.perf_counter()
                out = wl.run()
                walls.append(time.perf_counter() - t0)
            wl.check(out, checks)
            del out
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        remove_work_dir(work)

    for message in checks.messages:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    print(f"{args.workload}: {checks.attempted} checks, {checks.failed} failed, "
          f"fail_frac = {checks.failed / checks.attempted:.6g}; output digest {wl.digest}",
          file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": median([m[name][0] for m in layer]), "unit": unit}
                   for name, (_, unit) in layer[0].items()}
        overhead = median(traced_walls) - median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report_trace(args.workload, metrics, tracer.missing, len(layer), len(walls))
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"{args.workload}: {len(walls)} passes, wall_s per pass "
              f"{[round(w, 4) for w in walls]}, setup_s samples {[round(s, 4) for s in setup]}",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']}", file=sys.stderr)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def report_trace(name, metrics, missing, traced, untraced) -> None:
    import workloads

    wall = metrics["trace.wall_s"]["value"]
    print(f"{name}: {traced} traced and {untraced} untraced passes; "
          f"self time per layer (median over traced passes):", file=sys.stderr)
    for layer in workloads.LAYERS:
        s = metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer:12s} {s:12.6f} s  {100.0 * s / wall:6.2f} %", file=sys.stderr)
    rest = metrics["trace.unaccounted_s"]["value"]
    print(f"  {'unaccounted':12s} {rest:12.6f} s  {100.0 * rest / wall:6.2f} %\n"
          f"  traced wall_s {wall:.6f} s, tracing overhead "
          f"{metrics['trace.overhead_s']['value']:.6f} s", file=sys.stderr)
    if missing:
        print(f"  wrapped functions not found (their metrics read 0): {missing}",
              file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own fresh process, so peak RSS does not leak across."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("workload          " + "  ".join(f"{m:>18s}" for m in
                                            ("setup_s", "wall_s", "peak_rss_mb", "fail_frac")),
          file=sys.stderr)
    for name, r in results.items():
        values = [f"{r['metrics'][m]['value']:>16.4f} {r['metrics'][m]['unit']:<2s}"
                  if m in r["metrics"] else f"{'-':>19s}"
                  for m in ("setup_s", "wall_s", "peak_rss_mb")]
        frac = r["failed"] / r["attempted"]
        print(f"{name:16s}  " + "  ".join(values) + f"  {frac:>18.4f}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args, nproc)
    if not args.setup_probe:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
