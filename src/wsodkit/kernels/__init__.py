"""Box-geometry kernels.

``iou_matrix`` comes from the compiled Cython extension when it was built
and from the NumPy module ``_py`` otherwise. Both give identical results
unless an overlap area overflows (coordinates past about 1.3e154): that
pair's IoU is +0.0 from ``_py`` and NaN from the extension.
``nms`` and ``box_mean_pool`` have one implementation each, in ``_py``,
on either backend. ``nms`` settles many groups of boxes in one call
(``groups``), so its callers make one call per chunk of records or per
class instead of one per (image, class) group.
"""

from wsodkit.kernels import _py

try:
    from wsodkit.kernels import _ext as _impl
except ImportError:
    _impl = _py

BACKEND = "cython" if _impl is not _py else "python"

iou_matrix = _impl.iou_matrix
nms = _py.nms
box_mean_pool = _py.box_mean_pool

__all__ = ["BACKEND", "iou_matrix", "nms", "box_mean_pool"]
