"""Benchmark of the sgmoe study harness, end to end and per module.

    python3 perfbench/run.py --workload rate_fig3c_small --seed 0 \
        --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
Each run sets up once, then works through whole rounds of the workload's
fixed operation list until --seconds have passed, checks every output
against computations of its own, and prints one JSON line last:
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with --trace 0, the per-module metrics with --trace 1). --seed rotates
the order of the operation list; the list itself is the same in every run
(see README.md). --smoke runs a tiny list of each workload instead.
"""

from __future__ import annotations

import os

# one BLAS thread and one worker process, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "SGMOE_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


@dataclass
class Execution:
    index: int            # position of the operation in the fixed list
    seconds: float
    record: dict | None   # outputs for the checks; None if the op raised
    traced: bool


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny operation list, all checks on")
    p.add_argument("--op-seeds", type=lambda s: [int(v) for v in s.split(",")],
                   help="comma-separated seeds of the operation list "
                        "(default: the workload's own)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading
    # can be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def set_up(args):
    """Everything before the first operation: imports, inputs, temp dir."""
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    patch = spans.Patch()
    wl = workloads.WORKLOADS[args.workload](args.smoke, patch)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    wl.set_up(tmp)
    return spans, wl, patch, tmp


def probe_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter: spawn to ready-for-the-first-op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--setup-probe"] + (["--smoke"] if args.smoke
                                              else [])
    start = _now()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1]) - start


def run_rounds(args, spans, wl, tmp):
    """Whole rounds of the operation list until args.seconds have passed.

    With tracing, rounds alternate untraced and traced, at least one each.
    """
    seeds = args.op_seeds or wl.op_seeds
    ops = [dict(op, index=i) for i, op in enumerate(wl.ops(seeds))]
    shift = args.seed % len(ops)
    ops = ops[shift:] + ops[:shift]
    tracer = spans.Tracer()
    executions: list[Execution] = []
    kinds: list[bool] = []   # traced or not, per round
    start = _now()
    while True:
        traced = bool(args.trace) and len(kinds) % 2 == 1
        patch = spans.Patch()
        if traced:
            spans.install(tracer, patch)
        try:
            for op in ops:
                tracer.op = len(executions)
                call, collect = wl.prepare(op, tmp,
                                           f"r{len(kinds)}-op{op['index']}")
                t0 = spans.clock()
                try:
                    out = call()
                except Exception:
                    seconds = spans.clock() - t0
                    traceback.print_exc()
                    wl.recorder.take()
                    executions.append(Execution(op["index"], seconds, None,
                                                traced))
                    continue
                seconds = spans.clock() - t0
                executions.append(Execution(op["index"], seconds,
                                            collect(out), traced))
        finally:
            patch.undo()
        kinds.append(traced)
        if _now() - start >= args.seconds and (not args.trace
                                               or len(kinds) >= 2):
            return executions, tracer, kinds


def end_to_end(executions, setup_samples, peak_rss_mb, nlls):
    done: dict[int, list[float]] = {}
    for ex in executions:
        if ex.record is not None:
            done.setdefault(ex.index, []).append(ex.seconds)
    # The list's operations differ in cost, so a median over all executions
    # would fall between two operations and pick up the noise of single
    # executions. The median over operations of each one's median does not.
    per_op = [statistics.median(times) for times in done.values()]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (sum(map(len, done.values()))
                      / sum(ex.seconds for ex in executions), "1/s"),
        "op_s_p50": (statistics.median(per_op) if per_op else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fit_nll": (statistics.fmean(nlls) if nlls else 0.0, "nats"),
    }


def per_layer(spans, executions, tracer, kinds, problems):
    """Per-module figures per traced round, and the trace's own cost."""
    wall = {traced: sum(ex.seconds for ex in executions
                        if ex.traced == traced) / kinds.count(traced)
            for traced in (True, False)}
    out = spans.layer_metrics(tracer.totals(), tracer.counts,
                              kinds.count(True))
    self_sum = sum(out[name][0] for name in spans.SELF_TIME_METRICS)
    if abs(self_sum - wall[True]) > 1e-3 * wall[True]:
        problems.append(f"layer self times sum to {self_sum:.6f} s, "
                        f"operations took {wall[True]:.6f} s")
    out["trace.ops_wall_s"] = (wall[True], "s")
    out["trace.overhead_s"] = (wall[True] - wall[False], "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgmoe" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sgmoe'}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    spans, wl, patch, tmp = set_up(args)
    if args.setup_probe:
        print(repr(_now()), flush=True)
        shutil.rmtree(tmp, ignore_errors=True)
        return 0
    try:
        setup_samples = ([] if args.trace else
                         [probe_setup_seconds(args)
                          for _ in range(SETUP_PROBES)])
        executions, tracer, kinds = run_rounds(args, spans, wl, tmp)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        found = wl.check(executions, tmp)
    finally:
        patch.undo()
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [f"op {i}: {p}" for i, ps in sorted(found.items()) for p in ps]
    failed = sum(1 for ex in executions
                 if ex.record is None or ex.index in found)
    if args.trace:
        metrics = per_layer(spans, executions, tracer, kinds, problems)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(executions, setup_samples, peak_rss_mb,
                             wl.fit_nlls(executions))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
