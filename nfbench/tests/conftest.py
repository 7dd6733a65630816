"""Make the benchmark modules and the library importable for its tests.

Run with ``python3 -m pytest nfbench/tests`` from the repository root.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


@pytest.fixture
def workdir(request):
    """A scratch directory under ``nfbench/out/``, removed afterwards."""
    path = BENCH / "out" / f"test-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
