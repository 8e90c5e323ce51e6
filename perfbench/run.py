"""Benchmark of the supergraphs library: one workload, one seed, one run.

    python3 perfbench/run.py --workload element-graphs --seed 1 --seconds 36 --trace 0

Set-up (interpreter start, `import supergraphs`, input generation) is timed
from launching a set-up process until it reports ready; it is repeated
SETUPS times and the median of the scaled times is `setup_s`. The last
set-up process then runs the closed loop (see worker.py): whole seeded
passes over the workload's domain, the first always completed. Each domain
operation weighs the same in the metrics, however often the run repeated
it, so every run measures the same operation mix whatever its seed; an
operation's latency is the median over its repetitions. Timings are scaled
to the speed of a reference host (see REFERENCE_S), because the speed of a
shared host drifts by tens of percent within a minute. With `--trace 0` the
last line of stdout holds the end-to-end metrics, with `--trace 1` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import GUARD_S, reference_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 15
# Time of worker.reference_s on the host where the benchmark was calibrated
# (2-vCPU Linux VM, Python 3.11). Operation timings are reported at that
# host's speed: each is divided by the host's slowness around it, the mean
# time of the reference kernels run within SPEED_WINDOW_S of the operation
# (one runs before every operation), over REFERENCE_S. On a shared host the
# speed switches between states that last about a second, so kernels next
# to an operation tell its state better than an average over the run.
# Each set-up time is scaled by the mean of the kernels timed right before
# and right after it.
REFERENCE_S = 0.015
SPEED_WINDOW_S = 1.0
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, each weighted by the mass the Beta(q(n+1), (1-q)(n+1))
    distribution puts on its rank's share of [0, 1]. Unlike one order
    statistic it does not jump when a gap in the values sits at the rank;
    with n >= 100 values p90 still has ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule within each rank's share
    weights = []
    for i in range(n):
        xs = [(i + (k + 0.5) / steps) / n for k in range(steps)]
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/op"
    if name.endswith("_mb"):
        return "MB/op"
    return "count/op"


def slowness(records: list[dict]) -> list[float]:
    """Per operation, how much slower than the reference host this host ran
    around it: the mean time of the reference kernels run within
    SPEED_WINDOW_S of the operation, over REFERENCE_S."""
    at = [r["at_s"] for r in records]
    out = []
    for r in records:
        lo = bisect.bisect_left(at, r["at_s"] - SPEED_WINDOW_S)
        hi = bisect.bisect_right(at, r["at_s"] + r["cycle_s"] + SPEED_WINDOW_S)
        out.append(statistics.fmean(x["ref_s"] for x in records[lo:hi]) / REFERENCE_S)
    return out


def by_operation(records: list[dict]) -> dict[str, list[dict]]:
    """Each domain operation's records, in run order."""
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["key"], []).append(record)
    return grouped


def end_to_end(records: list[dict], setup_s: float, guard_s: float) -> dict:
    records = [dict(r, slowness=slow) for r, slow in zip(records, slowness(records))]
    # every domain operation weighs the same, however often the run repeated it
    latency, cycle = [], []
    for runs in by_operation(records).values():
        # a failed operation counts as missing any latency limit
        latency.append(statistics.median((r["latency_s"] if r["ok"] else guard_s) / r["slowness"]
                                         for r in runs))
        cycle.append(statistics.median(r["cycle_s"] / r["slowness"] for r in runs))
    ok_share = sum(r["ok"] for r in records) / len(records)
    rss = [r["rss_mb"] for r in records if r["rss_mb"] is not None]
    return {
        "ops_per_s": len(cycle) * ok_share / sum(cycle),
        "op_p50_ms": quantile(latency, 0.5) * 1000,
        "op_p90_ms": quantile(latency, 0.9) * 1000,
        "peak_rss_mb": max(rss) if rss else 0.0,
        "setup_s": setup_s,
    }


def per_layer(records: list[dict]) -> dict:
    # one mean record per domain operation, so every operation weighs the same
    traced = []
    for runs in by_operation([r for r in records if "trace" in r]).values():
        traced.append({
            "latency_s": statistics.fmean(r["latency_s"] for r in runs),
            "traced_s": statistics.fmean(r["traced_s"] for r in runs),
            "trace": {n: statistics.fmean(r["trace"][n] for r in runs) for n in runs[0]["trace"]},
        })
    if not traced:
        raise RuntimeError("no traced operation completed")
    names = [n for n in traced[0]["trace"] if n != "groups.pair_subgroup_members.distinct"]
    out = {n: statistics.fmean(r["trace"][n] for r in traced) for n in names}
    pairs = sum(r["trace"]["groups.pair_subgroup_members.calls"] for r in traced)
    distinct = sum(r["trace"]["groups.pair_subgroup_members.distinct"] for r in traced)
    out["groups.pair_subgroup_members.distinct_ratio"] = distinct / pairs if pairs else 0.0
    plain = sum(r["latency_s"] for r in traced)
    out["trace.overhead_s"] = (sum(r["traced_s"] for r in traced) - plain) / len(traced)
    out["trace.overhead_ratio"] = sum(r["traced_s"] for r in traced) / plain - 1
    return out


def launch(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # own session, so stopping it also stops the operation child it may have forked
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
                            start_new_session=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"set-up failed (exit code {proc.returncode})")
    return proc, elapsed


def stop(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    proc = None
    try:
        setups, refs = [], [reference_s()]
        for i in range(SETUPS):
            proc, elapsed = launch(args, setup_only=i < SETUPS - 1)
            setups.append(elapsed)
            if i < SETUPS - 1:
                if proc.wait(timeout=30) != 0:
                    raise RuntimeError(f"set-up-only process exited with {proc.returncode}")
                refs.append(reference_s())
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        if proc is not None and proc.poll() is None:
            stop(proc)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not records:
        print("error: no operation ran", file=sys.stderr)
        return 1
    # the kernel timed right after the last set-up is the loop's first
    refs.append(records[0]["ref_s"])
    setup_s = statistics.median(elapsed / ((refs[i] + refs[i + 1]) / 2 / REFERENCE_S)
                                for i, elapsed in enumerate(setups))
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"failed: {r['key']}: {r['reason']}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(records)
    else:
        metrics = end_to_end(records, setup_s, GUARD_S)
    size = len(WORKLOADS[args.workload].ops)
    covered = len({r["key"] for r in records})
    print(f"# {args.workload} seed {args.seed}: {len(records)} operations covering {covered} of "
          f"{size} in the domain, ops_failed_ratio {len(failed) / len(records):.4f}, "
          f"host slowness {statistics.median(slowness(records)):.3f}", file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else {n: _layer_unit(n) for n in metrics}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
