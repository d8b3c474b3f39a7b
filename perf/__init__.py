"""The repo benchmark: five workloads, both clocks, per-layer host time.

See ``perf/README.md``.  ``python3 -m perf.run`` is the one command;
``BENCHMARK.json`` at the repo root names every workload and metric.
"""

import os
import sys
from pathlib import Path

# Load comes from one process with one thread: pin the BLAS pools before
# anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The benchmark measures the checkout it sits in — never an installed copy —
# with or without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(f"perf measures the checkout it sits in, and {_SRC / 'repro'} is missing")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
