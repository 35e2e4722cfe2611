"""groundlm: desk-scale visual grounding for language models.

Retrieval over image keys, scene/object/keyword association, a two-stage
cross-modal masked language model, and probe tasks, all on a small
reverse-mode autodiff core with its hot kernels in NumPy.
"""

from .kernels import backend_name
from .tensor import Tensor, ShapeError, no_grad

__version__ = "0.1.0"

__all__ = ["Tensor", "ShapeError", "no_grad", "backend_name", "__version__"]
