"""Dense float64 building blocks: affine maps, softmaxes, SGD, checkpoints.

Every differentiable operation is an explicit forward/backward pair; callers
compose them in a fixed order and accumulate into ``Param.grad``: one
``add_in_order`` call adds the per-image gradient stacks of several
parameters, image by image. There is no tape. All arrays are plain numpy
float64.

``SGD`` owns its parameters' storage: it copies every value and gradient
into one flat buffer each and rebinds ``Param.value``/``Param.grad`` to
views of them, so a step is a few whole-buffer operations. A ``Param``
therefore belongs to one optimizer, and callers update its arrays in place
rather than assigning new ones.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from wsodkit.errors import CheckpointError, OptimizerError, ShapeError
from wsodkit.jsonio import as_array, as_int, as_number, as_type, read_json, require

# Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] before any log.
LOG_EPS = 1e-7


class Param:
    """A named value/grad pair updated in place by the optimizer."""

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise affine map ``x @ w + b`` over the last two axes of ``x``.

    ``x`` is one (n, d) matrix or a stack (..., n, d) of them; each matrix
    of the stack is mapped exactly as it would be on its own.
    """
    if x.ndim < 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError("affine expects x (..., n, d), w (d, m), b (m,)")
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"affine shapes do not conform: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    return x @ w + b


def add_in_order(
    totals: Sequence[np.ndarray], stacks: Sequence[np.ndarray], scale: float = 1.0
) -> None:
    """Add each stack's rows into its total in place, in stack order.

    ``stacks[j]`` is a (B, *totals[j].shape) stack of per-image terms, one
    B for all pairs. Bitwise equal to ``for g in stacks[j]: totals[j] +=
    scale * g`` for every pair (NaN payloads aside where two NaNs meet,
    which NumPy's own loops do not fix either). The stacks are flattened
    into one (B, P) block, scaled once, and its rows are added one at a
    time into the concatenated totals, which are then written back; every
    step is elementwise. ``sum`` and ``add.reduce`` may add a stack
    pairwise, which changes the bits. ``add.accumulate`` keeps them but
    costs more than B in-place row adds at a train step's sizes: about 25
    against 10 us on a (9, 660) block.
    """
    b = len(stacks[0])
    if len(totals) != len(stacks) or any(
        len(g) != b or g.shape[1:] != t.shape for t, g in zip(totals, stacks)
    ):
        raise ShapeError("add_in_order needs one (B, *total.shape) stack per total")
    pairs = zip(totals, stacks)
    block = np.concatenate([g.reshape(b, t.size) for t, g in pairs], axis=1)
    block *= scale
    acc = np.concatenate([t.reshape(-1) for t in totals])
    for row in block:
        acc += row
    start = 0
    for t in totals:
        t[...] = acc[start : start + t.size].reshape(t.shape)
        start += t.size


def affine_backward(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of ``x @ w + b`` given upstream ``g``.

    Over the last two axes: for a stack (..., n, d) of inputs the result is
    the stack of per-matrix gradients, (..., d, m) and (..., m), which the
    caller sums into ``Param.grad`` in the order it needs.
    """
    return np.swapaxes(x, -1, -2) @ g, g.sum(axis=-2)


def softmax_cols(s: np.ndarray) -> np.ndarray:
    """Softmax down each column (axis -2); every column sums to 1.

    The column max is subtracted before exponentiation so large scores
    cannot overflow. A stack of matrices is normalized matrix by matrix.
    """
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - s.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax along each row (axis -1); every row sums to 1."""
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cols_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    # ds = y * (g - <g, y>_col), the softmax Jacobian applied columnwise.
    return y * (g - (g * y).sum(axis=-2, keepdims=True))


def softmax_rows_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows: it is exp(-x) where x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def clamp_unit(p: np.ndarray) -> np.ndarray:
    """Clamp probabilities into [LOG_EPS, 1 - LOG_EPS]."""
    return np.clip(p, LOG_EPS, 1.0 - LOG_EPS)


def log_clamped(p: np.ndarray) -> np.ndarray:
    return np.log(clamp_unit(p))


def dlog_clamped(p: np.ndarray) -> np.ndarray:
    """d/dp of log_clamped: 1/p inside the clamp window, 0 where it binds."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p > LOG_EPS) & (p < 1.0 - LOG_EPS)
    safe = np.where(inside, p, 1.0)
    return np.where(inside, 1.0 / safe, 0.0)


class SGD:
    """Momentum SGD over a fixed parameter list.

    Each step applies ``v <- momentum * v - lr * grad; value <- value + v``
    and zeroes the gradients. Non-finite gradients abort the step, which
    then changes no value, gradient or velocity.

    The optimizer keeps every parameter's value, gradient and velocity in
    one flat buffer each, in parameter order; from construction on each
    ``Param.value`` and ``Param.grad`` is a view into the first two, and
    ``velocity`` is the third. The update is elementwise, so it gives the
    bits of one update per parameter.
    """

    def __init__(
        self, params: Sequence[Param], lr: float, momentum: float = 0.0
    ) -> None:
        if not np.isfinite(lr) or lr <= 0.0:
            raise OptimizerError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise OptimizerError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        sizes = [p.value.size for p in self.params]
        self._value = np.zeros(sum(sizes))
        self._grad = np.zeros_like(self._value)
        self.velocity = np.zeros_like(self._value)
        start = 0
        for p, size in zip(self.params, sizes):
            span, shape = slice(start, start + size), p.value.shape
            self._value[span] = p.value.reshape(-1)
            self._grad[span] = p.grad.reshape(-1)
            p.value = self._value[span].reshape(shape)
            p.grad = self._grad[span].reshape(shape)
            start += size

    def step(self) -> None:
        if not np.isfinite(self._grad).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise OptimizerError(f"non-finite gradient for parameter {bad.name!r}")
        v = self.velocity
        v *= self.momentum
        v -= self.lr * self._grad
        self._value += v
        self._grad[...] = 0.0


def _format_float(v: float) -> str:
    return format(float(v), ".17g")


def save_checkpoint(params: Iterable[Param], path: str | Path) -> None:
    """Write parameters as JSON name -> {shape, values}, row-major.

    Floats are rendered with 17 significant digits so the file is
    byte-stable and round-trips float64 exactly.
    """
    parts = []
    for p in params:
        shape = ",".join(str(int(d)) for d in p.value.shape)
        values = ",".join(_format_float(v) for v in p.value.reshape(-1))
        parts.append(f'"{p.name}":{{"shape":[{shape}],"values":[{values}]}}')
    Path(path).write_text("{" + ",".join(parts) + "}\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by save_checkpoint."""
    obj = read_json(path, "checkpoint", CheckpointError, CheckpointError)
    as_type(obj, dict, f"checkpoint {path} is not a JSON object", CheckpointError)
    out: dict[str, np.ndarray] = {}
    for name, entry in obj.items():
        bad = f"bad entry {name!r} in checkpoint {path}"
        raw_values = require(entry, "values", bad, CheckpointError)
        dims = as_type(entry.get("shape"), list, bad, CheckpointError)
        shape = tuple(
            as_int(as_number(d, bad, CheckpointError), bad, CheckpointError)
            for d in dims
        )
        values = as_array(raw_values, bad, CheckpointError)
        if min(shape, default=0) < 0 or values.size != math.prod(shape):
            raise CheckpointError(
                f"entry {name!r} has {values.size} values for shape {shape}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"entry {name!r} has non-finite values")
        out[name] = values.reshape(shape)
    return out
