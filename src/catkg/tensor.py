"""Dense float64 arrays with tape-based reverse-mode differentiation.

The operation set is deliberately small: exactly what the geometry
branches, the manifold maps, and the link-prediction head need. Forward
values are plain numpy; gradients come from replaying a :class:`Tape` in
reverse. Everything is float64 — the manifold maps operate close to
domain boundaries and need the headroom.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np
from scipy.special import erf as _np_erf

from .errors import (ConfigError, IndexLookupError, NumericsError, ParseError,
                     ShapeError)

Array = np.ndarray
_M = TypeVar("_M")
_S = TypeVar("_S")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Added to the variance in layer_norm so constant rows have a gradient.
LAYER_NORM_EPS = 1e-5


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation.

    ``grad`` is populated (accumulated) on leaf tensors by
    :meth:`Tape.backward`; intermediate results do not keep gradients.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # Arithmetic sugar; scalars and ndarrays are promoted to constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        return swapaxes(self, axis1, axis2)


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list["Tape"] = []


_tapes = _TapeStack()


def _active_tape() -> "Tape | None":
    stack = _tapes.stack
    return stack[-1] if stack else None


def recording() -> bool:
    """Whether a :class:`Tape` is active on the calling thread."""
    return bool(_tapes.stack)


class Tape:
    """Ordered record of executed operations for one forward pass.

    Used as a context manager: ops executed inside the ``with`` block are
    recorded (when their output requires a gradient) in execution order,
    which is automatically topological. ``backward`` replays the record
    once, in reverse, then consumes the tape. Distinct tapes over disjoint
    tensors may run on different threads; the active-tape stack is
    thread-local.
    """

    def __init__(self):
        # Each node: (output, inputs, backward_fn) where backward_fn maps
        # the output gradient to one gradient (or None) per input.
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tapes.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tapes.stack.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape stack corrupted: unbalanced enter/exit")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, output: Tensor, inputs: tuple[Tensor, ...],
               backward_fn: Callable) -> None:
        self._nodes.append((output, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``grad`` of every leaf tensor.

        A leaf is any ``requires_grad`` tensor that was not produced by an
        operation recorded on this tape. The tape is consumed afterwards.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward()")
        if loss.data.size != 1:
            raise ShapeError(
                f"backward needs a scalar loss, got shape {loss.shape}")
        # id -> (tensor, gradient, whether this tape allocated the gradient).
        # Any other gradient came from a backward_fn and may alias a
        # caller's buffer or another input's gradient, so a leaf gets a
        # copy of it.
        pending: dict[int, tuple[Tensor, Array, bool]] = {
            id(loss): (loss, np.ones_like(loss.data), True)}
        for out, inputs, backward_fn in reversed(self._nodes):
            entry = pending.pop(id(out), None)
            if entry is None:
                continue  # not on any path to the loss
            for t, ig in zip(inputs, backward_fn(entry[1])):
                if ig is None or not t.requires_grad:
                    continue
                acc = pending.get(id(t))
                pending[id(t)] = ((t, ig, False) if acc is None
                                  else (t, acc[1] + ig, True))

        # Every recorded output was popped when its node ran, so what is
        # left is a leaf; an unpopped loss was not produced on this tape.
        if self._nodes and id(loss) in pending:
            raise RuntimeError(
                "loss was not produced on this tape; build it (including the"
                " final reduction) inside the tape context")
        for t, g, owned in pending.values():
            if t.requires_grad:
                if t.grad is not None:
                    t.grad = t.grad + g
                else:
                    t.grad = g if owned else g.copy()
        self._nodes.clear()
        self._consumed = True


def node(data, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """The output of one op over ``inputs``, holding ``data``.

    It needs a gradient when any input does, and only then is it recorded
    on the active tape. ``backward_fn`` maps the output gradient to one
    gradient (or None) per input. Every op, fused or not, builds its
    output here.
    """
    out = Tensor(data, any(t.requires_grad for t in inputs))
    if out.requires_grad:
        tape = _active_tape()
        if tape is not None:
            tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise and structural primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data + b.data, (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data - b.data, (a, b),
                lambda g: (_unbroadcast(g, a.shape),
                           _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data * b.data, (a, b),
                lambda g: (_unbroadcast(g * b.data, a.shape),
                           _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward_fn(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return node(a.data / b.data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return node(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """Matrix product for the two shapes the package uses.

    ``(..., m, k) @ (k, n)`` shares one weight over every leading index;
    ``(*batch, m, k) @ (*batch, k, n)`` needs equal batch dimensions. A 1-D
    operand becomes a row (left) or a column (right) whose added axis is
    dropped from the result, as in numpy. Nothing else broadcasts.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul operands must have at least 1 dimension")
    if a.ndim == 1 or b.ndim == 1:
        out = matmul(reshape(a, (1, a.size)) if a.ndim == 1 else a,
                     reshape(b, (b.size, 1)) if b.ndim == 1 else b)
        return reshape(out, a.shape[:-1] + b.shape[1:])
    k, n = b.shape[-2:]
    shared = b.ndim == 2
    if a.shape[-1] != k or not (shared or a.shape[:-2] == b.shape[:-2]):
        raise ShapeError(f"matmul needs (..., m, k) @ (k, n) or equal batch"
                         f" dimensions, got {a.shape} @ {b.shape}")

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if shared:  # one GEMM over every leading index of a
            return ga, a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, np.matmul(np.swapaxes(a.data, -1, -2), g)

    return node(np.matmul(a.data, b.data), (a, b), backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    return node(np.swapaxes(a.data, axis1, axis2), (a,),
                lambda g: (np.swapaxes(g, axis1, axis2),))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries of ``axis`` starting at ``start``."""
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return node(a.data[index], (a,), backward_fn)


def concat(a, b, axis: int = -1) -> Tensor:
    """Concatenate two tensors along ``axis``."""
    a, b = as_tensor(a), as_tensor(b)
    split = a.shape[axis if axis >= 0 else a.ndim + axis]
    return node(np.concatenate([a.data, b.data], axis=axis), (a, b),
                lambda g: tuple(np.split(g, [split], axis=axis)))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward_fn)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def _elementwise(a, fn, dfn) -> Tensor:
    a = as_tensor(a)
    y = fn(a.data)
    return node(y, (a,), lambda g: (g * dfn(a.data, y),))


def exp(a) -> Tensor:
    return _elementwise(a, np.exp, lambda x, y: y)


def log(a) -> Tensor:
    return _elementwise(a, np.log, lambda x, y: 1.0 / x)


def sqrt(a) -> Tensor:
    return _elementwise(a, np.sqrt, lambda x, y: 0.5 / y)


def tanh(a) -> Tensor:
    return _elementwise(a, np.tanh, lambda x, y: 1.0 - y * y)


def arctanh(a) -> Tensor:
    return _elementwise(a, np.arctanh, lambda x, y: 1.0 / (1.0 - x * x))


def sin(a) -> Tensor:
    return _elementwise(a, np.sin, lambda x, y: np.cos(x))


def cos(a) -> Tensor:
    return _elementwise(a, np.cos, lambda x, y: -np.sin(x))


def arccos(a) -> Tensor:
    return _elementwise(a, np.arccos,
                        lambda x, y: -1.0 / np.sqrt(1.0 - x * x))


def clip(a, lo=None, hi=None) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    a = as_tensor(a)

    def backward_fn(g):
        mask = np.ones_like(a.data)
        if lo is not None:
            mask *= a.data >= lo
        if hi is not None:
            mask *= a.data <= hi
        return (g * mask,)

    return node(np.clip(a.data, lo, hi), (a,), backward_fn)


def softmax(a, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, computed max-shifted."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return node(y, (a,), backward_fn)


def dropout(a, p: float, rng=None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by
    1/(1-p) so the expected output is the input; evaluation skips it.

    ``rng`` is the ``numpy.random.Generator`` the mask is drawn from.
    A draw without one (``None`` or an integer seed) raises
    :class:`ConfigError`: no run draws unseeded, and a seed would repeat
    one mask at every call.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    a = as_tensor(a)
    if p == 0.0:
        return a
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"training-mode dropout needs a numpy Generator, "
                          f"got {rng!r}")
    scale = (rng.random(a.shape) >= p) / (1.0 - p)
    return node(a.data * scale, (a,), lambda g: (g * scale,))


def index_array(indices, what: str = "index") -> Array:
    """``indices`` as an int64 array, refusing any non-integer dtype.

    A cast would truncate ``1.9`` to ``1`` without a word, so floats,
    bools and strings raise :class:`IndexLookupError`. Empty inputs pass
    whatever their dtype (numpy reads ``[]`` as float64).
    """
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise IndexLookupError(
            f"{what} indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def embedding(table, indices) -> Tensor:
    """Gather rows of a 2-D ``table``; gradient scatter-adds back."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    idx = index_array(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexLookupError(
            f"index out of bounds for table with {table.shape[0]} rows")

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return node(table.data[idx], (table,), backward_fn)


# ---------------------------------------------------------------------------
# Fused ops: one tape node each, closed-form backward
# ---------------------------------------------------------------------------

def affine(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` as one 2-D GEMM.

    Every leading axis of ``x`` becomes a row of the GEMM; ``w`` is
    (k, n) and ``b`` is (n,). The weight gradient is one GEMM too.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (x.ndim == 0 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"affine needs (..., k) @ (k, n) + (n,), got"
                         f" {x.shape} @ {w.shape} + {b.shape}")
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    y += b.data

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return node(y.reshape(x.shape[:-1] + (n,)), (x, w, b), backward_fn)


# Entries of a (B, n) array from which its work runs in two parts, the
# second beside the caller: inner's forward, smoothed_ce_loss's pass,
# AdamW's update of a parameter that large and the untaped eval-mode query
# as two row parts (in_halves), inner's backward as the query gradient
# beside the table gradient, and evaluate's finiteness scan beside its rank
# loop. evaluate also scores and ranks a batch from that size in the same
# two row parts (row_parts), one after the other, so that its score buffer
# holds only the first. FB15k-237's heads, eval batches (≥ 256 × 14,541)
# and entity table (14,541 × 64) reach it; UMLS's (≤ 661 × 135, and no
# parameter above 2¹⁶ entries) stay below, where a second thread costs
# more than it gives.
BESIDE_FROM = 2 ** 18

# Rows that row_parts aligns its first part to. A row that a narrow GEMM
# (the router's map to three logits) computes gets bits that depend on
# where it sits in its BLAS kernel's tile of 4 to 16 rows, and a one-row
# GEMM runs as a GEMV. So the first part is whole tiles and the second has
# at least two rows: each row of an eval-mode query then keeps the bits of
# one forward over all rows (rows [0, ⌈B/2⌉) instead change them at about
# half of all B).
TILE_ROWS = 16

# The one worker thread that runs beside the caller, and the id of the
# process that started it: a forked child cannot use its parent's.
_helper: ThreadPoolExecutor | None = None
_helper_pid = 0
# Marks the helper thread, where work handed to the helper would wait on
# itself.
_on_helper = threading.local()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_core() -> ThreadPoolExecutor | None:
    """The helper thread, or None when this process may run on one CPU or
    the caller is the helper itself, which would wait on its own job.

    Two threads that race to start it each get a working pool; the one
    not kept shuts down once its caller lets go of it.
    """
    global _helper, _helper_pid
    if getattr(_on_helper, "marked", False) or usable_cpus() < 2:
        return None
    if _helper_pid != os.getpid():
        _helper = ThreadPoolExecutor(
            1, thread_name_prefix="catkg-helper",
            initializer=lambda: setattr(_on_helper, "marked", True))
        _helper_pid = os.getpid()
    return _helper


def beside(main: Callable[[], _M], side: Callable[[], _S],
           size: int) -> tuple[_M, _S]:
    """``(main(), side())`` for work on ``size`` entries of a (B, n) array.

    From :data:`BESIDE_FROM` entries, and where the process may use a
    second CPU, ``side`` runs on the helper thread in a copy of the
    caller's context (so under its ``np.errstate``) while the caller runs
    ``main``; else, and when called on the helper thread itself, it
    runs after ``main`` in the caller's thread. Either way ``side`` is
    not running once this returns or raises, so the caller may then reuse
    whatever it reads. The two overlap only while they spend their time
    in numpy calls that release the GIL.
    """
    helper = _second_core() if size >= BESIDE_FROM else None
    if helper is None:
        return main(), side()
    pending = helper.submit(contextvars.copy_context().run, side)
    try:
        first = main()
    finally:
        second = pending.result()
    return first, second


def row_parts(rows: int, size: int) -> list[slice]:
    """The row slices of an array of ``rows`` rows and ``size`` entries
    that together cover every row once, in row order.

    From :data:`BESIDE_FROM` entries they are rows [0, h) and the rest,
    with h = 16·⌈rows/32⌉ (:data:`TILE_ROWS`), when the rest keeps two
    rows or more; else one slice of all rows. This is the one row
    partition of every two-part job. It depends only on the shape, so a
    result that depends on it does not depend on the number of CPUs.
    """
    half = TILE_ROWS * -(-rows // (2 * TILE_ROWS))
    if rows - half < 2 or size < BESIDE_FROM:
        return [slice(0, rows)]
    return [slice(0, half), slice(half, rows)]


def in_halves(work: Callable[[slice], object], rows: int,
              size: int) -> None:
    """Call ``work(part)`` on each of the :func:`row_parts` of an array of
    ``rows`` rows and ``size`` entries: on one part in the caller, on two
    with the second :func:`beside` the first. The two calls must write
    disjoint rows.
    """
    parts = row_parts(rows, size)
    if len(parts) == 1:
        work(parts[0])
    else:
        first, second = parts
        beside(lambda: work(first), lambda: work(second), size)


def inner(q, table, out: Array | None = None) -> Tensor:
    """``q @ tableᵀ``: (B, d) queries against every row of an (n, d) table.

    With ``out`` the (B, n) result is written into that float64,
    C-contiguous array (any other ``out`` is a :class:`ShapeError`, the
    one check ``kg.KgModel.score`` and ``kg.evaluate`` make of a score
    buffer), which the caller owns and may overwrite once the
    forward value has been read: the backward ``(g @ table, (qᵀ @ g)ᵀ)``
    reads only ``q``, ``table`` and the incoming gradient. The forward
    runs over the row parts of :func:`in_halves`, and the backward runs
    ``g @ table`` whole in the caller with ``(qᵀ @ g)ᵀ`` :func:`beside`
    it; each gradient is one GEMM either way.
    """
    q, table = as_tensor(q), as_tensor(table)
    if q.ndim != 2 or table.ndim != 2 or q.shape[1] != table.shape[1]:
        raise ShapeError(f"inner needs (B, d) and (n, d) operands, got"
                         f" {q.shape} and {table.shape}")
    (b, d), n = q.shape, table.shape[0]
    if out is not None and not (isinstance(out, np.ndarray)
                                and out.dtype == np.float64
                                and out.shape == (b, n)
                                and out.flags.c_contiguous):
        found = (f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray)
                 else type(out).__name__)
        raise ShapeError(f"inner needs a C-contiguous float64 {(b, n)} out"
                         f" buffer, got {found}")
    y = np.empty((b, n)) if out is None else out
    # numpy releases the GIL inside BLAS.
    in_halves(lambda rows: np.matmul(q.data[rows], table.data.T,
                                     out=y[rows]), b, b * n)

    def backward_fn(g):
        # Both outputs are allocated here, so the helper allocates nothing.
        gq, gt = np.empty((b, d)), np.empty((d, n))

        def query_grad():
            np.matmul(g, table.data, out=gq)

        def table_grad():
            np.matmul(q.data.T, g, out=gt)

        beside(query_grad, table_grad, b * n)
        return gq, gt.T

    return node(y, (q, table), backward_fn)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    :data:`LAYER_NORM_EPS` keeps the gradient defined for constant rows.
    The backward is the closed form ``(gn - mean(gn) - x̂·mean(gn·x̂)) / std``
    with ``gn = g·gamma`` (Ba et al. 2016).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    inv_d = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_d
                  + LAYER_NORM_EPS)
    normed = np.divide(centered, std, out=centered)
    y = normed * gamma.data
    y += beta.data

    def backward_fn(g):
        gn = g * gamma.data
        gx = gn - gn.mean(axis=-1, keepdims=True)
        gx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
        gx /= std
        return (gx, _unbroadcast(g * normed, gamma.shape),
                _unbroadcast(g, beta.shape))

    return node(y, (x, gamma, beta), backward_fn)


def gelu(x) -> Tensor:
    """Gaussian-error linear unit ``x·Φ(x)`` (erf form; smooth everywhere).

    The backward reuses the forward's ``2·Φ(x) = 1 + erf(x/√2)``.
    """
    x = as_tensor(x)
    two_cdf = 1.0 + _np_erf(x.data * _INV_SQRT2)

    def backward_fn(g):
        slope = np.exp(x.data * x.data * -0.5)
        slope *= x.data * _INV_SQRT_2PI  # x·φ(x)
        slope += 0.5 * two_cdf           # + Φ(x)
        slope *= g
        return (slope,)

    return node(x.data * 0.5 * two_cdf, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------

def derive_seeds(seed: int, n: int) -> list[int]:
    """Deterministically expand one seed into ``n`` independent seeds."""
    state = np.random.SeedSequence(int(seed)).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def xavier_uniform(shape: Sequence[int], seed: int) -> Tensor:
    """Uniform init on [-a, a] with a = sqrt(6 / (shape[0] + shape[1])).

    Applies to weight matrices (fan_in, fan_out) and embedding tables
    (rows, dim) alike; the bound is symmetric in the two extents.
    Deterministic for a fixed (shape, seed). A shape whose float64 bytes
    exceed ``np.intp`` raises :class:`MemoryError`, naming the shape.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise ShapeError(f"xavier_uniform needs a 2-D shape, got {shape}")
    if min(shape) <= 0:
        raise ShapeError(f"xavier_uniform shape has a zero dimension: {shape}")
    # numpy refuses a larger array with a ValueError before allocating.
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a float64 {shape} table does not fit in the"
                          f" address space")
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-bound, bound, size=shape))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(fn, inputs, step: float = 1e-5) -> float:
    """Compare tape gradients of a scalar ``fn`` against central differences.

    Returns ``max |analytic - numeric| / max(1, |numeric|)`` over every
    entry of every input tensor. Non-finite function values are reported
    as ``inf`` (a failed check) rather than raised. Inputs are modified in
    place (requires_grad forced on, ``grad`` cleared), so pass dedicated
    tensors.
    """
    if step <= 0:
        raise ConfigError(f"grad_check step must be positive, got {step}")
    inputs = [as_tensor(x) for x in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        out = fn(*inputs)
    if out.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar fn, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        return math.inf
    tape.backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad
                for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn(*inputs).data
            flat[i] = orig - step
            f_minus = fn(*inputs).data
            flat[i] = orig
            if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
                return math.inf
            numeric = float((f_plus - f_minus).reshape(())) / (2.0 * step)
            err = abs(float(ana_flat[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Binary layout (all integers little-endian):
#   magic "CATW" | version u32 | tensor count u32
#   per tensor: name length u32 | UTF-8 name | rank u32 |
#               extents u64 * rank | values f64 * prod(extents)

CHECKPOINT_MAGIC = b"CATW"
CHECKPOINT_VERSION = 1


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a temp file beside ``path`` that replaces it on a clean exit.

    If the block raises, the temp file is removed and ``path`` keeps its
    previous content. A process killed mid-write leaves ``path`` whole,
    old or new, and at most a stale temp file beside it.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, tensors: dict) -> None:
    """Write named tensors to ``path`` in the CATW binary format, atomically."""
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name, value in tensors.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            arr = np.asarray(arr, dtype="<f8")  # keeps 0-d shapes intact
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, Array]:
    """Read a CATW checkpoint back into a name -> float64 array dict.

    Every declared length is checked against the bytes left in the file
    before it is read, so a corrupt header ends in :class:`ParseError`,
    as do a repeated tensor name and bytes after the last tensor.
    A tensor holding a NaN or an infinity raises :class:`NumericsError`.
    """
    out: dict[str, Array] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n, what):
            left = size - fh.tell()
            if n > left:
                raise ParseError(f"{path}: checkpoint truncated while reading"
                                 f" {what}: {n} bytes declared, {left} left")
            return fh.read(n)

        if read(4, "magic") != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a CATW checkpoint (bad magic)")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4, "name length"))
            raw_name = read(name_len, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: tensor name is not UTF-8") from exc
            if name in out:
                raise ParseError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", read(4, "rank"))
            extents = struct.unpack(f"<{rank}Q", read(8 * rank, "extents"))
            raw = read(8 * math.prod(extents), f"values of {name!r}")
            try:  # an empty tensor can still declare extents numpy refuses
                values = np.frombuffer(raw, dtype="<f8").reshape(extents)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: invalid extents {extents} for {name!r}") from exc
            if not np.isfinite(values).all():
                raise NumericsError(
                    f"{path}: tensor {name!r} holds non-finite values")
            out[name] = values.copy()
        if fh.tell() != size:
            raise ParseError(f"{path}: {size - fh.tell()} bytes after the"
                             f" last of {count} tensors")
    return out
