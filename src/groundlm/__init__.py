"""groundlm: desk-scale visual grounding for language models.

Retrieval over image keys, scene/object/keyword association, a two-stage
cross-modal masked language model, and probe tasks, all on a small
reverse-mode autodiff core with its hot kernels in NumPy.
"""

import ctypes

from .kernels import backend_name
from .tensor import Tensor, ShapeError, no_grad

__version__ = "0.1.0"

__all__ = ["Tensor", "ShapeError", "no_grad", "backend_name", "__version__"]


def _pin_malloc(libc) -> None:
    """Keep a step's freed buffers in glibc's heap (README, "Memory"); a no-op without mallopt."""
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: the ceiling glibc's adaptive rule reaches
        libc.mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD: twice that, as the same rule sets it


_pin_malloc(ctypes.pythonapi)   # on POSIX, dlopen(NULL): the whole process, libc included
