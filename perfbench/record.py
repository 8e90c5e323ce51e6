"""Record the expected result of every operation in every workload domain.

    python3 perfbench/record.py

Runs each operation once, cold, in its own child, and stores its exit code,
verdict and the sha256 of its output bytes in expected.json. Run it only on
a commit whose outputs are known good (the digests were recorded at the
commit that introduced the benchmark); a perf change must reproduce them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    libs = worker.load_library()
    expected = {}
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        for workload in WORKLOADS.values():
            paths = worker.write_inputs(Path(tmp), [f for op in workload.ops for f in op.files])
            for op in workload.ops:
                result = worker.run_in_child(op, paths, libs)
                if result is None or "error" in result:
                    raise SystemExit(f"{op.key}: {result}")
                expected[op.key] = {k: result[k] for k in ("exit", "verdict", "sha256")}
                print(f"{result['latency_s']:8.3f}s {op.key}", file=sys.stderr)
    worker.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
