#!/usr/bin/env python3
"""randsamp benchmark: seeded recovery workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload trig-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src. Each
workload runs in fresh child processes (see child.py): an untraced measuring
process, set-up probes, and a verifying process that replays the measured
runs through the public layer functions (with spans under --trace 1) and
checks their outputs. Prints a summary, writes perfbench/results/, and ends
with one JSON line: correct, attempted, failed, metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import fmean, median

from workloads import WORKLOADS, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Metric names and units; the result line carries exactly these.
SPEC = ROOT / "BENCHMARK.json"
# Set-up is sampled in the measuring process and in this many extra ones.
SETUP_PROBES = 4
# Wall-clock budget for one workload, children included.
WORKLOAD_BUDGET_S = 170.0

class BenchError(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, *extra: str, stdin_data: str | None = None,
              deadline: float) -> tuple[float | None, dict]:
    """Run child.py in a fresh interpreter. Returns (seconds from spawn until
    it printed READY, or None; its final JSON line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    tic = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, "--workload", workload, "--seed", str(seed), *extra],
        stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        if stdin_data is not None:
            proc.stdin.write(stdin_data)
            proc.stdin.close()
        ready, lines = None, []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - tic
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with code {code}")
    return ready, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    wl = WORKLOADS[name]
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    RESULTS.mkdir(exist_ok=True)  # the verify child writes its spans here
    setup, measured = run_child("measure", name, seed, "--seconds", str(seconds), deadline=deadline)
    setups, imports = [setup], [measured["import_ms"]]
    for _ in range(SETUP_PROBES):
        setup, probe = run_child("probe", name, seed, deadline=deadline)
        setups.append(setup)
        imports.append(probe["import_ms"])
    spans = RESULTS / f"{name}-seed{seed}-spans.json"
    _, verified = run_child("verify", name, seed, "--trace", str(trace), "--spans", str(spans),
                            stdin_data=json.dumps(measured), deadline=deadline)
    imports.append(verified["import_ms"])

    t = tally(measured, wl)
    errors = t.errors
    if not errors:
        raise BenchError(f"{name}: no run completed")
    # Only the square reference has jumps, and only its replay covers every
    # distinct run; elsewhere the interior is the whole grid and the run
    # error is the interior error.
    interior = verified["interior_errors"] if wl.replay_all else errors
    e2e = {
        "setup_s": median(setups),
        "runs_per_s": median(t.rates),
        # Each configuration's worst 1 % of runs left out (none below 100
        # runs): at 1200 runs a few rare draws near 1e-2, against a typical
        # 4e-5, would otherwise set the pulse mean.
        "mean_error": fmean(e for errs in errors.values() for e in sorted(errs)[: len(errs) - len(errs) // 100]),
        # Median run per configuration, so a rare unlucky draw does not move it.
        "interior_error": fmean(median(errs) for errs in interior.values()),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    values = {"cli.import_ms": median(imports), **verified["layers"]} if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    problems = verified["problems"]
    result = {"correct": not problems, "attempted": t.attempted, "failed": t.failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": measured["environment"],
        "rounds": len(measured["rounds"]),
        "replayed_runs": verified["replayed"],
        "end_to_end": {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
        "setup_samples_s": setups,
        "experiments.batch_s": {c: median(s) for c, s in t.batch.items()},
        "call_seconds": t.batch,
        "failures": [{"config": c, "type": e, "message": m, "runs": n}
                     for (c, e, m), n in Counter(t.failures).items()],
        "problems": problems,
        "result": result,
    }
    if trace:
        record["per_layer"] = metrics
        record["per_layer_extra"] = verified["layers_extra"]
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    res = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']}  replayed {record['replayed_runs']} runs")
    for name, m in record["end_to_end"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        for name, value in record["per_layer_extra"].items():
            print(f"  {name:32s} {value:.6g}")
        for config, s in record["experiments.batch_s"].items():
            print(f"  experiments.batch_s.{config:12s} {s:.6g} s")
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    for f in record["failures"]:
        print(f"  failed: {f['runs']} runs of {f['config']} with {f['type']}: {f['message']}")
    print("  checks: " + ("all passed" if res["correct"] else f"{len(record['problems'])} FAILED"))
    for p in record["problems"][:20]:
        print(f"    {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20, help="measuring window per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "randsamp" / "__init__.py").is_file():
        print(f"error: no randsamp package under {SRC}; run from a randsamp checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for name, res in results.items():
            print(f"{name}: {json.dumps(res)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
