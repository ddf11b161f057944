"""Dense float64 building blocks: affine maps, softmaxes, SGD, checkpoints.

Every differentiable operation is an explicit forward/backward pair; callers
compose them in a fixed order. There is one gradient path: a chain stacks
the per-image gradients of the parameters it trains into one (B, P) block
and ``add_in_order`` adds its rows, image by image, into the optimizer's
flat gradient buffer, through the ``GradSpan`` that ``SGD.grad_span``
found once per run. There is no tape. All arrays are plain numpy float64.

``SGD`` owns its parameters' storage: it copies every value and gradient
into one flat buffer each and rebinds ``Param.value``/``Param.grad`` to
views of them, so a step is a few whole-buffer operations and the
gradients of consecutive parameters are one 1-D span. A ``Param``
therefore belongs to one optimizer, and callers update its arrays in place
rather than assigning new ones.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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


class GradSpan(NamedTuple):
    """The gradients of consecutive parameters as one 1-D buffer view.

    ``flat`` is the slice of an optimizer's gradient buffer that the
    parameters occupy, and ``shapes`` are their shapes, in order.
    ``SGD.grad_span`` builds one.
    """

    flat: np.ndarray
    shapes: tuple[tuple[int, ...], ...]


def add_in_order(
    span: GradSpan, stacks: Sequence[np.ndarray], scale: float = 1.0
) -> None:
    """Add per-image gradient stacks into a span of gradients, image by image.

    ``stacks[j]`` is a (B, *span.shapes[j]) stack of per-image terms, one
    B >= 1 for all of them. Bitwise equal to ``for g in stacks[j]:
    grad_j += scale * g`` for every parameter j of the span (NaN payloads
    aside where two NaNs meet, which NumPy's own loops do not fix either).
    The stacks are flattened into one (B, P) block, scaled once, and its
    rows are added one at a time into the span's flat view; every step is
    elementwise. ``sum`` and ``add.reduce`` may add a stack pairwise, which
    changes the bits. ``add.accumulate`` keeps them but costs more than B
    in-place row adds at a train step's sizes.
    """
    b = len(stacks[0])
    if (
        b < 1
        or len(stacks) != len(span.shapes)
        or any(len(g) != b or g.shape[1:] != s for g, s in zip(stacks, span.shapes))
    ):
        raise ShapeError("add_in_order needs one (B, *shape) stack per span parameter")
    block = np.concatenate([g.reshape(b, -1) for g in stacks], axis=1)
    block *= scale
    flat = span.flat
    for row in block:
        flat += row


def affine_backward(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of ``x @ w + b`` given upstream ``g``.

    Over the last two axes: for a stack (..., n, d) of inputs the result is
    the stack of per-matrix gradients, (..., d, m) and (..., m), which the
    caller sums into ``Param.grad`` in the order it needs.
    """
    return np.swapaxes(x, -1, -2) @ g, np.add.reduce(g, axis=-2)


def softmax_cols(s: np.ndarray) -> np.ndarray:
    """Softmax down each column (axis -2); every column sums to 1.

    The column max is subtracted before exponentiation so large scores
    cannot overflow. A stack of matrices is normalized matrix by matrix.
    """
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - np.maximum.reduce(s, axis=-2, keepdims=True))
    return e / np.add.reduce(e, axis=-2, keepdims=True)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax along each row (axis -1); every row sums to 1.

    The row max folds over the C columns with C - 1 ``np.maximum`` calls.
    NumPy's reduce along a short contiguous axis pays a per-row setup that
    costs more than the comparisons: on one core of a 2-vCPU Xeon the max
    takes 10 against 5.6 us at (8, 20, 5) and 115 against 10 us at
    (1, 2000, 5). The fold is exact: a maximum does not depend on the
    order it is taken in, NaN propagates either way, and where it picks
    the other zero of a +0.0/-0.0 tie, ``exp(s - m)`` is still 1. The sum
    stays one reduce, because its order sets its bits.
    """
    s = np.asarray(s, dtype=np.float64)
    m = s[..., 0]
    for c in range(1, s.shape[-1]):
        m = np.maximum(m, s[..., c])
    e = np.exp(s - m[..., None])
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_cols_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    # ds = y * (g - <g, y>_col), the softmax Jacobian applied columnwise.
    return y * (g - np.add.reduce(g * y, axis=-2, keepdims=True))


def softmax_rows_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows: it is exp(-x) where x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def clamp_unit(p: np.ndarray) -> np.ndarray:
    """Clamp an array of probabilities into [LOG_EPS, 1 - LOG_EPS]."""
    return p.clip(LOG_EPS, 1.0 - LOG_EPS)


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
    bits of one update per parameter. Gradients reach the buffer through
    ``grad_span``: a chain takes the span of the parameters it trains once
    per run, and ``add_in_order`` adds its per-image rows into it.
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
        self._starts = []
        start = 0
        for p, size in zip(self.params, sizes):
            span, shape = slice(start, start + size), p.value.shape
            self._value[span] = p.value.reshape(-1)
            self._grad[span] = p.grad.reshape(-1)
            p.value = self._value[span].reshape(shape)
            p.grad = self._grad[span].reshape(shape)
            self._starts.append(start)
            start += size
        self._starts.append(start)

    def grad_span(self, params: Sequence[Param]) -> GradSpan:
        """The gradients of ``params`` as one span of the flat buffer.

        ``params`` must be a nonempty run of consecutive parameters of this
        optimizer, in its order.
        """
        params = list(params)
        k = next((i for i, p in enumerate(self.params) if p is params[0]), None)
        run = self.params[k : k + len(params)] if k is not None else []
        if len(run) != len(params) or any(a is not b for a, b in zip(run, params)):
            names = [p.name for p in params]
            raise OptimizerError(
                f"{names} are not consecutive parameters of this optimizer"
            )
        return GradSpan(
            self._grad[self._starts[k] : self._starts[k + len(params)]],
            tuple(p.grad.shape for p in params),
        )

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
