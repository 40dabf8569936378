"""Self-test of the wallbench benchmark (about a minute).

Run from the root of a checkout::

    python3 wallbench/selftest.py

1. A tiny-size smoke run of every workload, untraced and traced: each
   prints every metric BENCHMARK.json names for that mode, with its unit,
   and passes its checks.
2. In a directory holding only BENCHMARK.json and ``wallbench/`` the
   benchmark exits non-zero without printing a result.
3. In a copy of the checkout whose pinned answers carry one deliberately
   perturbed digest, ``failed`` rises above 0 and the run fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    """Run the benchmark; returns ``(exit code, parsed result or None)``."""
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", workload, "--size", "tiny", "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in (result or {}).get("metrics", {}).items()}
            if code != 0 or result is None or not result["correct"] or got != want:
                failures.append(f"{workload} trace={trace}: exit {code}, metrics {got}")

    scratch = ROOT / ".wallbench-tmp"
    scratch.mkdir(exist_ok=True)
    skip = shutil.ignore_patterns("__pycache__", ".wallbench-tmp")
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        copy = Path(tmp) / "copy"
        shutil.copytree(HERE, copy / "wallbench", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        code, result = bench("--workload", "multicore", cwd=copy)
        if code == 0 or result is not None:
            failures.append(f"bare directory: exit {code}, result {result}")

        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        path = copy / "wallbench" / "pinned" / "tiny-seed7.json"
        pinned = json.loads(path.read_text())
        cells = pinned["multicore"]["cells"]
        label = sorted(cells)[0]
        cells[label] = "0" * len(cells[label])
        path.write_text(json.dumps(pinned))
        code, result = bench("--workload", "multicore", "--size", "tiny", cwd=copy)
        if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
            failures.append(f"perturbed pin not caught: exit {code}, result {result}")
    try:
        scratch.rmdir()
    except OSError:
        pass

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
