"""csdepth benchmark: CLI workloads timed end to end, and a traced run for
per-layer metrics.

    python3 bench/run.py --workload analyze-d4 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Run from anywhere inside a checkout; the package is imported from its
`src/`, nothing is installed.  Each run starts fresh processes: a few that
only set up (interpreter start, `import csdepth`, making the inputs), whose
median wall time is `setup_s`, and one that runs the workload (worker.py).
The load is one client in a closed loop.  Times are CPU seconds (of the
worker for operations, of the set-up processes for `setup_s`): on a shared
virtual machine they leave out the time the host takes the CPU away, which
wall time does not.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones,
from a fixed list of operations run untraced and traced in turn, twice
each.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are the readable report: the environment, every
metric with its unit and sample count, per-command medians, and for traced
runs which end-to-end metric each layer metric should move (interaction.json).
Exit code 0 when every output checked out, 1 when a check failed, 2 when the
benchmark cannot run (no csdepth sources next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
RUN_BUDGET_S = 170


def environment() -> dict:
    def git(*args):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if commit else None
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "commit": commit,
            "dirty": None if status is None else bool(status)}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def worker(args: list[str], deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run worker.py to completion; returns (its CPU seconds, process)."""
    start = _children_cpu()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = _children_cpu() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return elapsed, proc


def run_workload(name: str, args, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(worker(base + ["--setup-only"], deadline)[0])
    _, proc = worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     deadline)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_seconds"] = setup
    return out


def summarize(name: str, out: dict, spec: dict, interactions: dict, trace: bool) -> dict:
    """Print the readable report of one workload run; return its metrics."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = len(out["failures"])
    print(f"== {name}: {out['attempted']} operations, {failed} failed "
          f"(failed_ratio {failed / out['attempted']:.3f})")
    for message in out["failures"] + out["errors"]:
        print(f"   FAIL {message}")
    for command, secs in out["command_seconds"].items():
        print(f"   {command}_p50_s = {statistics.median(secs):.4f} s (n={len(secs)})")
    if out["best_depths"]:
        print(f"   search_d3_best_depth = {statistics.median(out['best_depths'])} "
              f"count (n={len(out['best_depths'])}, lower is better)")
    if trace:
        metrics = {m["name"]: out["metrics"][m["name"]] for m in spec["per_layer"]}
        shown = None
        for key, value in metrics.items():
            if interactions[key] != shown:
                shown = interactions[key]
                print(f"   [should move: {shown}]")
            print(f"   {key} = {value:.6g} {units[key]}")
    else:
        metrics = {"op_p50_s": statistics.median(out["op_seconds"]),
                   "setup_s": statistics.median(out["setup_seconds"]),
                   "peak_rss_mb": out["peak_rss_mb"]}
        samples = {"op_p50_s": len(out["op_seconds"]),
                   "setup_s": len(out["setup_seconds"]), "peak_rss_mb": 1}
        for key, value in metrics.items():
            print(f"   {key} = {value:.6g} {units[key]} (n={samples[key]})")
        print(f"   op_wall_p50_s = {statistics.median(out['op_wall_seconds']):.6g} s "
              f"(n={len(out['op_wall_seconds'])}, wall clock, for reference)")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "csdepth" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no csdepth sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    interactions = json.loads((BENCH / "interaction.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]

    deadline = time.monotonic() + RUN_BUDGET_S * len(chosen)
    print("# environment " + json.dumps(environment()))
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in chosen:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        print(f"# {name}: {why}")
        try:
            out = run_workload(name, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        attempted += out["attempted"]
        failed += len(out["failures"])
        correct = correct and not out["failures"] and not out["errors"]
        result = summarize(name, out, spec, interactions, bool(args.trace))
        if len(chosen) == 1:
            metrics = result
        else:
            metrics.update({f"{name}/{k}": v for k, v in result.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
