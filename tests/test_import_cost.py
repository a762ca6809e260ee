"""Import cost: ``import tauberlab`` stays as cheap as ``import numpy``."""

import os
import subprocess
import sys
from pathlib import Path

import tauberlab

PROBE = """
import sys
import numpy
before = set(sys.modules)
import tauberlab
print(sorted(m for m in set(sys.modules) - before if m.startswith("numpy.")))
"""

CACHE_PROBE = """
import tauberlab
import tauberlab.cli
print(tauberlab.specialfn._unit_kernel.cache_info().currsize)
"""


def _probe(code: str) -> str:
    """Run code in a fresh interpreter on this package; its stripped stdout."""
    env = os.environ.copy()
    root = str(Path(tauberlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return run.stdout.strip()


def test_import_loads_no_extra_numpy_submodule():
    # numpy loads submodules such as numpy.fft on first use; the package
    # must defer them to the functions that need them
    assert _probe(PROBE) == "[]"


def test_import_builds_no_kernel():
    # the m0 = 1 kernel is built on first use, never at import
    assert _probe(CACHE_PROBE) == "0"
