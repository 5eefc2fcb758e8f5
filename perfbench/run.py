#!/usr/bin/env python3
"""Stage benchmark for tswrom: one workload in this process, closed loop,
one caller, BLAS pinned to one thread.

    python3 perfbench/run.py --workload production --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; tswrom is imported from ./src. With
--trace 0 the end-to-end metrics of BENCHMARK.json are printed, with
--trace 1 the per-layer metrics of one traced pass. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A full record (provenance, check failures, workload rationale)
goes to .perfbench_out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("grid", "fom", "pod", "deim", "rom", "bench", "fileio", "cli")
STAGE_METRICS = ("fom_s", "offline_s", "rom_pod_online_s", "rom_deim_online_s", "report_s")
# grid size of the second model the traced run compares rom_rhs flops with
CROSS_GRID = {"production": 32, "rom-ensemble": 100, "cli-disk": 32}
SETUP_PROBES = 5
SETUP_BUILDS = 5  # traced run: samples of grid.build_diff_ops


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CROSS_GRID))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 is the paper configuration; others jitter it by up to 5%%")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="passes run while the next should end within this time "
                             "(at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def load_tswrom() -> float:
    """Pin BLAS to one thread, import the tswrom modules from ./src and
    return the import time in seconds."""
    # before numpy loads: threadpoolctl is not available to pin pools later
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    for name in MODULES:
        importlib.import_module(f"tswrom.{name}")
    return time.perf_counter() - t0


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters (see setup_probe.py)."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             workload, str(seed)]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                 timeout=60).stdout)
            for _ in range(count)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tswrom" / "__init__.py").is_file():
        print(f"error: no tswrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = load_tswrom()

    import spans
    import workloads
    from tswrom.errors import ConfigError, FormatError, NumericError

    program_errors = (ConfigError, FormatError, NumericError, ValueError,
                      ArithmeticError, OSError)
    cfg = workloads.make_config(args.workload, args.seed)
    run = workloads.Run(ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    pass_fn = workloads.PASSES[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def one_pass():
        t = time.perf_counter()
        model = pass_fn(run, cfg, args.seed)
        return time.perf_counter() - t, model

    metrics: dict[str, float] = {}
    walls: list[float] = []
    try:
        if args.trace:
            untraced, _ = one_pass()
            tracer = spans.Tracer()
            run.tracer = tracer
            tracer.install()
            try:
                for _ in range(SETUP_BUILDS):
                    workloads.build(cfg)
                traced, model = one_pass()
            finally:
                tracer.uninstall()
                run.tracer = None
            metrics.update(spans.layer_metrics(tracer))
            metrics["trace.overhead_s"] = traced - untraced
            flops, rhs_us = workloads.rhs_cost(*model())
            metrics["rom.rhs_us"] = rhs_us
            metrics["rom.rhs_flops"] = flops
            metrics["rom.rhs_gflops"] = flops / (rhs_us * 1e3)
            other_n = CROSS_GRID[args.workload]
            other = workloads.cross_grid_flops(args.seed, other_n)
            run.check("cross-grid flops",
                      [] if other == flops else
                      [f"rom_rhs flops {flops} at n={cfg.n} != {other} at n={other_n}"])
            tracer.dump(out_dir / f"{tag}-spans.jsonl")
        else:
            setup = setup_probes(args.workload, args.seed, SETUP_PROBES)
            start = time.perf_counter()
            # another pass only if it should end within --seconds
            while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
                walls.append(one_pass()[0])
            metrics["setup_s"] = statistics.median(setup)
            # a stage's time per run, averaged over all its runs in this process
            for name in STAGE_METRICS:
                metrics[name] = statistics.mean(run.samples[name])
            metrics["total_s"] = import_s + statistics.mean(walls)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except program_errors as exc:
        run.attempted += 1
        run.failures.append(f"pass aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in listed if m["name"] in metrics}
    correct = not run.failures and len(reported) == len(listed)
    result = {"correct": correct, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": reported}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": workloads.WHY[args.workload], "config": dataclasses.asdict(cfg),
              "import_s": import_s, "passes": len(walls), "samples": dict(run.samples),
              "failures": run.failures, "provenance": provenance(), **result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, entry in reported.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
