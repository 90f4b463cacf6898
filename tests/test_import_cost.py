"""The package import stays light.

Every CLI call, benchmark child and farm worker starts with ``import
repro``.  Three libraries serve no trial and must load only where they
are used: networkx (the detector hierarchy), ``http.server`` (the
dashboard) and Hypothesis (the test suite).  The check runs in a fresh
interpreter, because this one has long since imported all three.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that ``import repro`` and a trial run must not load.
OPTIONAL = ("hypothesis", "networkx", "http.server")

SCRIPT = f"""
import sys

import repro
import repro.analysis.runner
import repro.analysis.sweeps
import repro.cli
import repro.farm
import repro.mc
import repro.mc.checkpoint
import repro.perf
import repro.runtime.simulation

repro.perf.spec.warm_imports()
print(",".join(name for name in {OPTIONAL!r} if name in sys.modules))

from repro import DetectorHierarchy, Environment, System

DetectorHierarchy(Environment.wait_free(System(3)))
print("networkx" in sys.modules)
"""


def test_the_package_import_loads_no_optional_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    assert out[0] == ""
    # The hierarchy still has its graph library: the import moved.
    assert out[1] == "True"
