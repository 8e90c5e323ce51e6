"""Set-up process of one benchmark run.

It imports the library from the checkout's `src`, writes the workload's input
files and prints `ready`; that ends set-up. Unless `--setup-only` is given it
then runs the closed loop: one client, one operation at a time, each in a
child forked from this process, so every operation starts with cold library
caches as a fresh `supergraphs` command does. A child times its operation,
checks nothing itself and reports exit code, verdict, output digest and peak
RSS through a pipe; this process compares them with the digests recorded at
the seed commit and prints one JSON record per operation at the end. Before
each operation it times a fixed reference kernel, which tracks the host's
speed at that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import select
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, input_files, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"

# Hang guard per operation: the slowest operation in any domain takes about
# 6 s cold (12 s traced), so hitting 60 s means the operation hangs.
GUARD_S = 60.0
# A run always completes its first pass over the domain, unless that takes
# longer than this; the run then ends mid-pass.
FIRST_PASS_LIMIT_S = 100.0


def load_library():
    """Import `supergraphs` from this checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "supergraphs" / "__init__.py").is_file():
        raise SystemExit(f"no library source under {src}")
    sys.path.insert(0, str(src))
    import supergraphs
    from supergraphs import cli, universality

    if Path(supergraphs.__file__).resolve().parent != src / "supergraphs":
        raise SystemExit(f"imported supergraphs from {supergraphs.__file__}, not {src}")
    return cli, universality


def write_inputs(directory: Path, names) -> dict[str, str]:
    """Materialize the `@name` inputs; returns name -> path."""
    contents = input_files()
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted(set(names)):
        path = directory / f"{name}.json"
        path.write_text(contents[name])
        paths[name] = str(path)
    return paths


def _execute(op, paths, cli, universality) -> tuple[int, bytes]:
    if op.call == "scan":
        return 0, json.dumps(universality.class_adjacency(*op.args)).encode()
    argv = [paths[a[1:]] if a.startswith("@") else a for a in op.args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _verdict(op, output: bytes):
    """The operation's own pass/fail claim, when it makes one."""
    if op.call == "scan":
        return json.loads(output)
    if op.args[0] == "graph":
        return None
    payload = json.loads(output)
    return payload["verified"] if op.args[0] == "embed" else payload["verdict"]


def _child(op, paths, libs, tracer_factory, spans_path, fd) -> None:
    tracer = None
    try:
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
        start = time.perf_counter()
        code, output = _execute(op, paths, *libs)
        elapsed = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "exit": code,
            "verdict": _verdict(op, output),
            "sha256": hashlib.sha256(output).hexdigest(),
            "latency_s": elapsed,
            "rss_mb": rss_mb,
        }
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(spans_path, op.key)
    except BaseException:
        result = {"error": traceback.format_exc(limit=4)}
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(json.dumps(result).encode())


class Cut(Exception):
    """The run's measuring time ended while an operation was in flight."""


def run_in_child(op, paths, libs, tracer_factory=None, spans_path=None, cut_at=math.inf):
    """Run one operation in a fresh fork; None if the hang guard fired or the
    child died without a report. Raises Cut, having stopped the child, if the
    monotonic clock reaches `cut_at` first."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            _child(op, paths, libs, tracer_factory, spans_path, write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    guard = time.monotonic() + GUARD_S
    deadline = min(guard, cut_at)
    chunks = []
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                if deadline < guard:
                    raise Cut
                return None
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    return json.loads(b"".join(chunks)) if chunks else None


def check(op, result, expected: dict) -> str | None:
    """Why the operation failed, or None if its output is the recorded one."""
    if result is None:
        return "hang guard hit or child died"
    if "error" in result:
        return "exception: " + result["error"].strip().splitlines()[-1]
    want = expected.get(op.key)
    if want is None:
        return "no expected output recorded"
    if result["exit"] != want["exit"]:
        return f"exit code {result['exit']}, expected {want['exit']}"
    if result["verdict"] != want["verdict"]:
        return f"verdict {result['verdict']!r}, expected {want['verdict']!r}"
    if result["sha256"] != want["sha256"]:
        return "output digest mismatch"
    if op.call == "scan" and op.args[3] == "commuting":
        degree, p, q, _ = op.args
        if result["verdict"] != (p + q <= degree):
            return "commuting scan disagrees with p + q <= N"
    return None


def reference_s() -> float:
    """Time a fixed pure-Python kernel (closure of S7 on tuples): the host's
    current speed, measured between operations."""
    n = 7
    gens = (tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n)))
    start = time.perf_counter()
    seen = {tuple(range(n)): 0}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen[q] = len(seen)
                    nxt.append(q)
        frontier = nxt
    elapsed = time.perf_counter() - start
    assert len(seen) == 5040
    return elapsed


def run_loop(workload, seed: int, seconds: float, paths, libs, expected, trace_dir=None):
    """Closed loop with one client; returns one record per operation that
    finished. The first pass over the domain always finishes (up to
    FIRST_PASS_LIMIT_S); after it, an operation still in flight when
    `seconds` have passed is stopped and not recorded."""
    size = len(workload.ops)
    records = []
    start = time.monotonic()
    try:
        for index, op in enumerate(schedule(workload, seed)):
            cut_at = start + (FIRST_PASS_LIMIT_S if index < size else seconds)
            if time.monotonic() >= cut_at:
                break
            ref_s = reference_s()
            begin = time.monotonic()
            result = run_in_child(op, paths, libs, cut_at=cut_at)
            reason = check(op, result, expected)
            record = {"key": op.key, "ok": reason is None, "reason": reason,
                      "latency_s": result.get("latency_s") if result else None,
                      "rss_mb": result.get("rss_mb") if result else None,
                      "ref_s": ref_s, "at_s": begin - start, "cycle_s": time.monotonic() - begin}
            if trace_dir is not None:
                traced = run_in_child(op, paths, libs, Tracer, trace_dir / f"op-{index:05d}", cut_at)
                traced_reason = check(op, traced, expected)
                if traced_reason is not None and reason is None:
                    record.update(ok=False, reason="traced run: " + traced_reason)
                if traced_reason is None:
                    record["traced_s"] = traced["latency_s"]
                    record["trace"] = traced["trace"]
            records.append(record)
    except Cut:
        pass
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    libs = load_library()
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    inputs = WORK / f"inputs-{os.getpid()}"
    try:
        paths = write_inputs(inputs, [name for op in workload.ops for name in op.files])
        trace_dir = None
        if args.trace:
            trace_dir = WORK / f"trace-{args.workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        records = run_loop(workload, args.seed, args.seconds, paths, libs, expected, trace_dir)
        for record in records:
            print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
