"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest -q perfbench

The digest and run tests execute every domain operation, so the module
takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(root: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _checkout(tmp_path: Path, with_library: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    if with_library:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_sampler_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        size = len(workload.ops)
        first = list(itertools.islice(schedule(workload, 5), 2 * size + 3))
        assert first == list(itertools.islice(schedule(workload, 5), 2 * size + 3))
        assert first != list(itertools.islice(schedule(workload, 6), 2 * size + 3))
        for start in (0, size):
            assert sorted(op.key for op in first[start:start + size]) == sorted(op.key for op in workload.ops)


def test_domains_are_recorded_and_large_enough_for_p90():
    expected = json.loads(worker.EXPECTED.read_text())
    keys = [op.key for w in WORKLOADS.values() for op in w.ops]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(expected)
    # a domain holds at least 100 operations, so p90 has ten beyond it
    assert all(len(w.ops) >= 100 for w in WORKLOADS.values())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stored_digests_reproduce(name):
    libs = worker.load_library()
    expected = json.loads(worker.EXPECTED.read_text())
    ops = WORKLOADS[name].ops
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        paths = worker.write_inputs(Path(tmp), [f for op in ops for f in op.files])
        failures = {}
        for op in ops:
            reason = worker.check(op, worker.run_in_child(op, paths, libs), expected)
            if reason is not None:
                failures[op.key] = reason
    assert failures == {}


def test_timings_are_scaled_to_the_reference_host():
    records = [{"key": f"op{i % 3}", "ok": True, "latency_s": 0.01 * (i % 3 + 1),
                "cycle_s": 0.02 * (i % 3 + 1), "rss_mb": 10.0, "ref_s": run.REFERENCE_S, "at_s": 0.1 * i}
               for i in range(9)]
    metrics = run.end_to_end(records, 0.1, worker.GUARD_S)
    assert metrics["ops_per_s"] == pytest.approx(3 / 0.12)
    assert metrics["op_p50_ms"] == pytest.approx(20.0)
    # a host twice as slow doubles every timing and the reference kernel alike
    slow = [dict(r, latency_s=2 * r["latency_s"], cycle_s=2 * r["cycle_s"], ref_s=2 * r["ref_s"])
            for r in records]
    assert run.end_to_end(slow, 0.1, worker.GUARD_S) == pytest.approx(metrics)


def test_traced_operations_report_every_per_layer_metric():
    libs = worker.load_library()
    expected = json.loads(worker.EXPECTED.read_text())
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        records = {}
        for name, workload in WORKLOADS.items():
            op = min(workload.ops, key=lambda o: o.key)
            paths = worker.write_inputs(Path(tmp), op.files)
            plain = worker.run_in_child(op, paths, libs)
            traced = worker.run_in_child(op, paths, libs, Tracer, Path(tmp) / name)
            assert worker.check(op, traced, expected) is None
            assert (Path(tmp) / f"{name}.bin").stat().st_size > 0
            records[name] = {"key": op.key, "latency_s": plain["latency_s"],
                             "traced_s": traced["latency_s"], "trace": traced["trace"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, record in records.items():
        metrics = run.per_layer([record])
        assert {n: run._layer_unit(n) for n in metrics} == units
        if name != "prime-cycle":
            assert metrics["universality.calls"] == metrics["perms.conjugate.calls"] == 0
    assert records["prime-cycle"]["trace"]["universality.class_adjacency.calls"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name):
    proc = _run(ROOT, name)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name].ops)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_digest_counts_as_failed_operation(tmp_path):
    root = _checkout(tmp_path, with_library=True)
    expected_path = root / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    victim = WORKLOADS["element-graphs"].ops[0].key
    expected[victim]["sha256"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = _run(root, "element-graphs")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert not result["correct"]
    assert result["failed"] == sum(1 for line in proc.stderr.splitlines() if victim in line) >= 1
    assert "output digest mismatch" in proc.stderr


def test_fails_without_the_library(tmp_path):
    root = _checkout(tmp_path, with_library=False)
    proc = _run(root, "wiener-distances")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
