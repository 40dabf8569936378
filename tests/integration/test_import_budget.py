"""A warm run reads stats records, so it must not load the simulator.

``import repro.cli`` loads the harness, the stats store and the machine
configuration, and nothing that only a cache miss needs: not NumPy, not
the timing models, not the workloads, not the bench, the supervisor or
the validation subsystem.  A ``figure`` run whose every cell is stored,
serial or pooled, loads none of them either, and prints what the cold
run that filled the store printed.  Each check runs in a fresh
interpreter, since this suite has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: What only a cache miss (or another subcommand) needs.
SIMULATOR_MODULES = (
    "numpy",
    "repro.uarch.pipeline",
    "repro.uarch.kernel",
    "repro.uarch.system",
    "repro.uarch.pipeline_ref",
    "repro.workloads.graph",
    "repro.workloads.hashmap",
    "repro.workloads.linkedlist",
    "repro.workloads.stringswap",
    "repro.workloads.avltree",
    "repro.workloads.btree",
    "repro.workloads.rbtree",
    "repro.harness.bench",
    "repro.harness.supervisor",
    "repro.validate",
)

#: Runs the CLI on ``sys.argv[2:]`` and writes the names in
#: ``sys.modules`` at exit to the file ``sys.argv[1]``.
CLI_DRIVER = """
import json, sys
from repro.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""


def _env(store=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if store is not None:
        env["REPRO_CACHE_DIR"] = str(store)
    return env


def _loaded(modules):
    return sorted(set(SIMULATOR_MODULES) & set(modules))


def test_import_cli_loads_no_simulator():
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert _loaded(json.loads(done.stdout)) == []


def _figure(tmp_path, name, store, jobs):
    modules = tmp_path / f"{name}-modules.json"
    metrics = tmp_path / f"{name}-metrics.json"
    done = subprocess.run(
        [sys.executable, "-c", CLI_DRIVER, str(modules),
         "figure", "8", "--benchmarks", "LL", "--jobs", str(jobs),
         "--metrics-out", str(metrics)],
        env=_env(store), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(modules.read_text()), json.loads(metrics.read_text())


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_figure_loads_no_simulator(tmp_path, jobs):
    store = tmp_path / "store"
    cold, cold_modules, _ = _figure(tmp_path, "cold", store, jobs)
    warm, warm_modules, metrics = _figure(tmp_path, "warm", store, jobs)

    assert "repro.uarch.pipeline" in cold_modules  # the cold run simulated
    assert warm.stdout == cold.stdout
    assert _loaded(warm_modules) == []
    sources = {r["source"] for r in metrics["variants"] if r["kind"] == "sim"}
    assert sources == {"disk"}
    # a process that never loaded the kernel names no backend
    assert metrics["kernel_backend"] is None
    assert "kernel=" not in warm.stderr
