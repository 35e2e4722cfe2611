"""The environment record printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from typing import Dict

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library name.

    Empty where /proc/self/maps is unreadable or no OpenBLAS is loaded.
    """
    found: Dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def blas_library() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git repository, else ``unknown``."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(glm, root: str, workload: str, seed: int, source_digest: str) -> dict:
    import numpy as np
    import scipy
    return {
        "backend": glm.kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "GLM_THREADS": os.environ.get("GLM_THREADS"),
        "workload": workload,
        "seed": seed,
        "commit": git_commit(root),
        "source_sha256": source_digest,
    }
