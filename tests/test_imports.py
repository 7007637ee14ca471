"""Import hygiene: the serial simulation path loads no heavy modules.

Every figure grid, CLI call and benchmark probe starts a fresh
interpreter, so every module the serial path imports is paid for on
each start. The simulator needs no numpy, and the process pool
(``concurrent.futures``, which pulls in ``multiprocessing``) is
imported only when a runner actually fans jobs out to workers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a serial ``simulate -> summarize -> crash_test`` caller imports.
SERIAL_MODULES = ("repro", "repro.core.simulator", "repro.core.recovery",
                  "repro.exp.runner", "repro.obs.slo",
                  "repro.workloads.kvservice")

#: Modules none of them may load.
HEAVY_MODULES = ("numpy", "concurrent.futures", "multiprocessing")


def test_serial_import_path_loads_no_heavy_modules():
    program = (
        "import importlib, json, sys\n"
        f"for name in {SERIAL_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {HEAVY_MODULES!r} "
        "if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert json.loads(out) == []
