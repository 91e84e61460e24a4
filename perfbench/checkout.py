"""Locating the checkout's opdiscord and recording the run environment."""

from __future__ import annotations

import ctypes
import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/opdiscord`` to benchmark."""


def load_opdiscord():
    """Import opdiscord from this checkout's ``src``, never from elsewhere.

    An installed copy would silently benchmark other code, so the import
    is refused unless the package resolves under ``src``.
    """
    if not (SRC / "opdiscord" / "__init__.py").is_file():
        raise MissingSource(f"no opdiscord package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    od = importlib.import_module("opdiscord")
    if Path(od.__file__).resolve().parent != SRC / "opdiscord":
        raise MissingSource(f"opdiscord resolved to {od.__file__}, not {SRC}")
    return od


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Interpreter, library and BLAS versions, BLAS threads and cores."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
