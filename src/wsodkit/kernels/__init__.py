"""Box-geometry kernels.

``iou_matrix`` and ``nms`` come from the compiled Cython extension when it
was built and from the NumPy module ``_py`` otherwise; both give identical
results. ``box_mean_pool`` has one implementation, the NumPy summed-area
table in ``_py``, on either backend, so pooled depths do not depend on
which one loaded.
"""

from wsodkit.kernels import _py

try:
    from wsodkit.kernels import _ext as _impl
except ImportError:
    _impl = _py

BACKEND = "cython" if _impl is not _py else "python"

iou_matrix = _impl.iou_matrix
nms = _impl.nms
box_mean_pool = _py.box_mean_pool

__all__ = ["BACKEND", "iou_matrix", "nms", "box_mean_pool"]
