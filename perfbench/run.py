"""Benchmark entry point.

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it times operations
and prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced operations and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
the lines before it repeat the figures for people.  Exits 1 when any
correctness gate fails and 2 when the package or its inputs are missing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Every run times at least this many operations, however long they take.
MIN_OPS = 3
#: Set-ups per run: this process's own, plus fresh interpreters.
SETUP_PROBES = 4


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["certify-deep", "certify-pipeline", "simulate-mc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print its seconds and exit")
    return p.parse_args(argv)


def _pin() -> None:
    """One thread on one CPU; must run before numpy is imported.

    Single-threaded BLAS/OpenMP and no sweep threads.  The process (and
    the set-up probes it starts) stays on the first CPU it may use: on a
    shared machine the CPUs run at different speeds, and a process the
    scheduler moves between them times bimodally."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RESTLESS_SCHED_THREADS", None)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup(args):
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    return workload, perf_counter() - t0


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
            f"[{blas.get('openblas configuration', '')}] threads pinned to 1, "
            f"cpus {sorted(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else '?'}")


class Runner:
    def __init__(self, workload, seconds: float):
        self.w = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def _op(self, k: int) -> float:
        self.attempted += 1
        try:
            dt, failures = self.w.op(k)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return float("nan")
        for f in failures:
            print(f"FAILED {k}: {f}", file=sys.stderr)
        self.failed += bool(failures)
        return dt

    def _more(self, done: int, least: int, deadline: float, last: float) -> bool:
        """Whether to start another operation: at least ``least`` of them,
        then while half of one as long as the last still fits before the
        deadline (an operation that raised counts as taking no time)."""
        if done >= self.w.available:
            return False
        half = 0.0 if math.isnan(last) else last / 2
        return done < least or perf_counter() + half < deadline

    def timed(self) -> list[float]:
        """Seconds in the package per operation, for about ``seconds``."""
        latencies: list[float] = []
        deadline = perf_counter() + self.seconds
        while self._more(len(latencies), MIN_OPS, deadline,
                         latencies[-1] if latencies else 0.0):
            latencies.append(self._op(len(latencies)))
        return latencies

    def traced(self, tracer):
        """Alternate untraced and traced operations for about ``seconds``."""
        plain, traced = [], []
        deadline = perf_counter() + self.seconds
        k, last = 0, 0.0
        while self._more(k, 2, deadline, last):
            if k % 2:
                with tracer.installed():
                    last = self._op(k)
                traced.append(last)
            else:
                last = self._op(k)
                plain.append(last)
            k += 1
        return plain, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "restless_sched" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC.name}/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pin()
    try:
        workload, setup_main = _setup(args)
    except (OSError, RuntimeError, KeyError, ValueError) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_main)
        return 0

    import restless_sched as rs

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# env {_environment()}")
    if not args.trace:
        setups = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    workload.warmup()
    runner = Runner(workload, args.seconds)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        t_run = perf_counter()
        plain, traced = runner.traced(tracer)
        wall = perf_counter() - t_run
        gen_times = []
        for fn_name, params, seed in workload.regenerate:
            t0 = perf_counter()
            getattr(rs, fn_name)(params, seed)
            gen_times.append(perf_counter() - t0)
        layers = tracer.layer_metrics(len(traced), sum(traced))
        layers["generate.us_per_instance"] = (1e6 * statistics.fmean(gen_times), "us")
        layers["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(plain), "s")
        metrics = {name: _metric(v, u) for name, (v, u) in layers.items()}
        print(f"# {len(plain)} untraced and {len(traced)} traced operations in {wall:.2f} s")
    else:
        t_run = perf_counter()
        latencies = runner.timed()
        wall = perf_counter() - t_run
        ok = [x for x in latencies if x == x]
        if len(ok) < 2:
            print("perfbench: fewer than two operations completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall / len(latencies), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
            "instance_s_p50": _metric(statistics.median(ok), "s"),
            "instance_s_p90": _metric(statistics.quantiles(ok, n=10, method="inclusive")[8],
                                      "s"),
        }
        print(f"# {len(latencies)} operations, {wall:.2f} s timed; set-ups "
              + " ".join(f"{s:.4f}" for s in setups))
        if len(latencies) <= 16:
            print("# operation seconds " + " ".join(f"{x:.4f}" for x in latencies))
        for line in workload.summary():
            print(f"# {line}")

    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# ops_failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
