"""Process set-up shared by the benchmark's entry points.

Importing this module pins BLAS to one thread and puts the checkout's
``src`` directory on ``sys.path``. It must be imported before numpy, because
OpenBLAS reads its thread count once, when it is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def require_source() -> None:
    if not (SRC / "resacc" / "__init__.py").is_file():
        raise MissingSource(f"no resacc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
