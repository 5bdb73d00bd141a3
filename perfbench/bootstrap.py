"""Process set-up shared by the benchmark's entry points.

Call `prepare()` before numpy is imported: BLAS reads its thread count once,
at load time. The benchmark measures clearnav from the sources of the
checkout it sits in, never from an installed copy.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's sources first on sys.path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "clearnav", "__init__.py")):
        raise SystemExit(f"perfbench: no clearnav sources at {SRC}")
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import clearnav

    if os.path.dirname(os.path.dirname(os.path.abspath(clearnav.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported clearnav from {clearnav.__file__}, not {SRC}")
