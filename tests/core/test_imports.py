"""Every ``repro.core`` module imports first in a fresh interpreter.

The SP structures sit below the timing models: ``repro.uarch`` builds on
them, so nothing in ``repro.core`` may import ``repro.uarch`` at module
level.  Once it did (the SSB's Table-3 latency), ``import repro.core``
in a fresh interpreter ran ``repro.uarch``'s package ``__init__``, which
imports the pipeline and so ``repro.core.epochs`` and
``repro.core.ssb`` again while ``repro.core.ssb`` was half initialised.
The suite's own imports hid it: its conftest loads ``repro.uarch`` first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core

SRC = Path(repro.__file__).resolve().parent.parent
CORE_MODULES = ["repro.core"] + sorted(
    f"repro.core.{path.stem}"
    for path in Path(repro.core.__file__).resolve().parent.glob("*.py")
    if path.stem != "__init__"
)


def test_every_core_module_is_listed():
    assert {"repro.core.bloom", "repro.core.ssb", "repro.core.epochs"} <= set(
        CORE_MODULES
    )


@pytest.mark.parametrize("module", CORE_MODULES)
def test_core_module_imports_first(module):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_uarch_config_reexports_table3():
    from repro.core import ssb
    from repro.uarch import config

    assert config.SSB_LATENCY_TABLE is ssb.SSB_LATENCY_TABLE
    assert config.ssb_latency is ssb.ssb_latency
