"""One benchmark run of one workload, in a fresh process started by run.py.

Imports csdepth from the checkout's `src/`, makes the workload's inputs,
runs the output checks' self-test (which also warms up every CLI command),
then either runs the closed loop for the given number of seconds or, with
--trace 1, runs a fixed list of operations untraced and traced in turn,
twice each.
Every CLI call goes through `csdepth.cli.main(argv)` in this process with
stdout and stderr captured; only that call is timed, in CPU seconds of this
process (`time.process_time`), which leave out the time a shared host takes
the virtual CPU away; wall seconds are kept for the report.  All output
checks run after the timed work.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import csdepth  # noqa: E402  (needs the path above)
import csdepth.cli  # noqa: E402

import oracle  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Call:
    command: str
    seconds: float   # CPU
    wall: float
    rc: object
    stdout: str


def call(command: str, argv: list[str]) -> Call:
    """Run one CLI command in-process; rc is the exit code, or the
    exception's text if the command raised."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = csdepth.cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a failed operation, not a failed run
        rc = f"{type(e).__name__}: {e}"
    return Call(command, process_time() - cpu, perf_counter() - start, rc, out.getvalue())


def run_ops(workload, indices) -> list[list[Call]]:
    return [workload.operate(workload.item(i), call) for i in indices]


def closed_loop(workload, seconds: float) -> list[list[Call]]:
    """One operation at a time, each starting when the previous one ends.
    Once at least `min_ops` are done, stops before an operation that would
    likely end more than half an operation past the deadline, so that the
    measured time is `seconds` on average even when operations are long."""
    ops = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(ops) >= workload.min_ops and \
                elapsed + statistics.median(sum(c.wall for c in op) for op in ops) / 2 > seconds:
            return ops
        ops.append(workload.operate(workload.item(len(ops)), call))


def check_op(workload, index: int, op: list[Call]) -> tuple[str | None, dict]:
    """(failure reason or None, observations) for one operation."""
    for c in op:
        if c.rc != 0:
            return f"{c.command}: exit {c.rc!r}", {}
    try:
        docs = [json.loads(c.stdout) for c in op]
        return None, workload.check(workload.item(index), docs)
    except (oracle.CheckFailed, ValueError, KeyError, TypeError) as e:
        return f"check: {type(e).__name__}: {e}", {}


def check_all(workload, ops: list[list[Call]]) -> dict:
    failures, observations = [], []
    for i, op in enumerate(ops):
        reason, seen = check_op(workload, i, op)
        if reason is not None:
            failures.append(f"op {i}: {reason}")
        observations.append(seen)
    return {"failures": failures, "observations": observations}


def timings(ops: list[list[Call]]) -> dict:
    per_command: dict[str, list[float]] = {}
    for op in ops:
        for c in op:
            per_command.setdefault(c.command, []).append(c.seconds)
    return {"op_seconds": [sum(c.seconds for c in op) for op in ops],
            "op_wall_seconds": [sum(c.wall for c in op) for op in ops],
            "command_seconds": per_command}


def traced_run(workload) -> dict:
    """The fixed trace list, run untraced and traced in turn, twice each.
    Outputs must be identical across all four passes and work counts across
    the two traced ones."""
    indices = range(workload.trace_items)
    for i in indices:
        workload.item(i)
    plains, passes = [], []
    for _ in range(2):
        plains.append(run_ops(workload, indices))
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            ops = run_ops(workload, indices)
        finally:
            restore()
        passes.append((tracer, ops))
    plain = plains[0]
    errors = []
    for n, ops in enumerate(plains[1:] + [ops for _, ops in passes], 2):
        if [c.stdout for op in ops for c in op] != [c.stdout for op in plain for c in op]:
            errors.append(f"pass {n}: outputs differ from the first untraced pass")
    if passes[0][0].counts() != passes[1][0].counts():
        a, b = (p[0].counts() for p in passes)
        diff = sorted(k for part in a for k in set(a[part]) | set(b[part])
                      if a[part].get(k) != b[part].get(k))
        errors.append("work counts differ between traced passes: " + ", ".join(diff[:8]))
    untraced_s = statistics.mean(sum(c.seconds for op in ops for c in op) for ops in plains)
    traced_s = statistics.mean(sum(c.seconds for op in ops for c in op) for _, ops in passes)
    layers = [spans.layer_metrics(tr) for tr, _ in passes]
    metrics = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
    search_s = statistics.mean(sum(c.seconds for op in ops for c in op if c.command == "search_d3")
                               for ops in plains)
    metrics["search.s_per_proposal"] = search_s / metrics["search.proposals"] \
        if metrics["search.proposals"] else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    return {"ops": plain, "metrics": metrics, "errors": errors}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop once the inputs are made (a set-up time probe)")
    args = p.parse_args(argv)

    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        for i in range(workload.prefetch):
            workload.item(i)
        if args.setup_only:
            print(json.dumps({"setup": True}))
            return 0
        # The self-test runs every CLI command once on small inputs, so it
        # also warms up every code path before the timed work.
        try:
            errors = selftest.run(call, Path(tmp))
        except Exception:
            errors = ["self-test crashed: " + traceback.format_exc(limit=3)]
        if args.trace:
            result = traced_run(workload)
            errors += result["errors"]
            ops = result["ops"]
        else:
            ops = closed_loop(workload, args.seconds)
            result = {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = check_all(workload, ops)
    fallbacks = [o["fallback"] for o in checked["observations"] if "fallback" in o]
    if args.workload == "analyze-d4":
        # A seed whose witness run reached a d = 4 coverage certificate
        # would take minutes, not seconds: that input is unusable here.
        layers = result.get("metrics", {})
        if not all(fallbacks) or (args.trace and (layers["arrangement.covers_space.calls"] != 0
                                                  or layers["witness.fallback_ratio"] != 1.0)):
            errors.append("guard: an analyze-d4 witness run left the fallback path")
    out = {
        "workload": args.workload,
        "attempted": len(ops),
        "failures": checked["failures"],
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "best_depths": [o["best_depth"] for o in checked["observations"] if "best_depth" in o],
        **timings(ops),
    }
    if args.trace:
        out["metrics"] = result["metrics"]
        out["metrics"]["search.best_depth"] = (
            statistics.median(out["best_depths"]) if out["best_depths"] else 0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
