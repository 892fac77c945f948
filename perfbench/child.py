"""One workload process. Started by run.py in a fresh interpreter; three modes:

measure  import randsamp, complete the cold first run of the first
         configuration and print READY (this ends set-up), then call
         ``run_experiment(cfg, jobs=1)`` per configuration in rounds until
         every distinct round has run and the window has closed. Untraced.
         Prints one JSON line with every call's wall time and per-run errors
         (or the exception type and message of a failed call), peak RSS and
         the environment block.
probe    the set-up part of ``measure`` alone, for more set-up samples.
verify   reads the measure output on stdin and replays its runs through the
         public layer functions, recording spans, then runs the correctness
         checks; with --trace 1 it also computes the per-layer figures and
         writes the spans to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

# Nothing here imports numpy before timed_import(), so import_ms and set-up
# include it, as they would for a user of the library.
from workloads import WORKLOADS, Workload, make_configs, round_master_seed

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def timed_import():
    tic = time.perf_counter()
    import randsamp

    return randsamp, (time.perf_counter() - tic) * 1e3


def set_up(wl: Workload, seed: int):
    """Import and the cold first run of the first configuration; READY marks the end."""
    rs, import_ms = timed_import()
    _, cfg = make_configs(rs, wl, round_master_seed(wl, seed, 0))[0]
    rs.run_experiment(replace(cfg, runs=1), jobs=1)
    print("READY", flush=True)
    return rs, import_ms


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(wl: Workload, seed: int, seconds: float) -> dict:
    rs, import_ms = set_up(wl, seed)
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < wl.input_rounds or time.perf_counter() < deadline:
        master = round_master_seed(wl, seed, len(rounds))
        calls = []
        for label, cfg in make_configs(rs, wl, master):
            tic = time.perf_counter()
            try:
                report = rs.run_experiment(cfg, jobs=1)
            except Exception as exc:  # counted as cfg.runs failed runs, by type
                calls.append({"config": label, "seconds": time.perf_counter() - tic, "runs": cfg.runs,
                              "error_type": type(exc).__name__, "message": str(exc)})
            else:
                calls.append({"config": label, "seconds": time.perf_counter() - tic, "runs": cfg.runs,
                              "errors": [r.error for r in report.records]})
        rounds.append({"master_seed": master, "calls": calls})
    return {
        "import_ms": import_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "environment": environment(seed),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("measure", "probe", "verify"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where verify --trace 1 writes its spans")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    if args.mode == "probe":
        _, import_ms = set_up(wl, args.seed)
        result = {"import_ms": import_ms}
    elif args.mode == "measure":
        result = measure(wl, args.seed, args.seconds)
    else:
        rs, import_ms = timed_import()
        import replay

        result = replay.verify(rs, wl, json.load(sys.stdin), bool(args.trace), args.spans)
        result["import_ms"] = import_ms
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
