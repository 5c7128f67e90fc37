"""Reverse-mode autodiff over numpy arrays.

A `Tape` records primitive applications while active; `backward` replays it
in reverse, accumulating gradients into the leaves. Only what the debugger
model needs is implemented, each primitive with an explicit closed-form
backward. dtype is preserved end to end and mixing f32/f64 is an error, so
float64 runs stay bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    out: Tensor
    inputs: tuple[Tensor, ...]
    bwd: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


@dataclass
class Tape:
    nodes: list[_Node] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must nest"


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, inputs: Sequence[Tensor], bwd) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(out, tuple(inputs), bwd))
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != like.dtype:
            raise ValueError(f"dtype mismatch: {x.dtype} vs {like.dtype}")
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into each leaf's `.grad`."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    produced = {id(node.out) for node in tape.nodes}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        input_grads = node.bwd(g)
        for inp, gi in zip(node.inputs, input_grads):
            if gi is None:
                continue
            if id(inp) in produced:
                key = id(inp)
                grads[key] = grads[key] + gi if key in grads else gi
            elif inp.requires_grad:
                inp.grad = gi if inp.grad is None else inp.grad + gi


# --- arithmetic -------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data * b.data)
    return _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return _record(Tensor(-a.data), (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    return _record(Tensor(a.data * s), (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.dtype != b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = g @ b.data.swapaxes(-1, -2)
        gb = a.data.swapaxes(-1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """`x @ w + b` as one node: leading axes of `x` flatten into a single 2-D GEMM."""
    dtypes = {t.dtype for t in (x, w, b) if t is not None}
    if len(dtypes) > 1:
        raise ValueError(f"dtype mismatch in linear: {dtypes}")
    x2 = x.data.reshape(-1, x.shape[-1])
    y = x2 @ w.data
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(*x.shape[:-1], w.shape[1]))

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        grads = ((g2 @ w.data.T).reshape(x.shape), x2.T @ g2)
        return grads if b is None else (*grads, g2.sum(0))

    return _record(out, (x, w) if b is None else (x, w, b), bwd)


# --- shape ------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return _record(out, (a,), lambda g: (g.transpose(inverse),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    dtypes = {p.dtype for p in parts}
    if len(dtypes) > 1:
        raise ValueError(f"dtype mismatch in concat: {dtypes}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def bwd(g):
        return tuple(np.split(g, np.cumsum([p.shape[axis] for p in parts])[:-1], axis=axis))

    return _record(out, tuple(parts), bwd)


def slice_(a: Tensor, key) -> Tensor:
    out = Tensor(a.data[key])

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return _record(out, (a,), bwd)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _record(out, (table,), bwd)


def gather(a: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    indices = np.asarray(indices)
    out = Tensor(np.take_along_axis(a.data, indices, axis=axis))

    def bwd(g):
        full = np.zeros_like(a.data)
        grids = list(np.meshgrid(*[np.arange(s) for s in indices.shape], indexing="ij"))
        grids[axis] = indices
        np.add.at(full, tuple(grids), g)
        return (full,)

    return _record(out, (a,), bwd)


# --- reductions ---------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _record(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# --- nonlinearities -------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), bwd)


def layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    # the sums and divisions of `mean` and `var`, without their Python-level overhead
    n = a.shape[axis]
    xc = a.data - np.add.reduce(a.data, axis=axis, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    out = Tensor(xhat)

    def bwd(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        return ((g - gm - xhat * gx) * inv,)

    return _record(out, (a,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bwd(g):
        dt = (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return _record(out, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(a.dtype.type(0), a.data))

    def bwd(g):
        s = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
        s = np.where(a.data >= 0, s, 1.0 - s)
        return (g * s,)

    return _record(out, (a,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, keep: np.ndarray | None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    `q` is (B, Tq, D), `k` and `v` are (B, Tk, D); heads are split and merged
    as views. `keep` broadcasts to (B, H, Tq, Tk) with 1 = attend and 0 = a
    logit pushed to -1e9; None attends to all. Backward reuses the softmax
    output P: dS = P * (dP - rowsum(dP * P)).
    """
    dtypes = {q.dtype, k.dtype, v.dtype}
    if len(dtypes) > 1:
        raise ValueError(f"dtype mismatch in attention: {dtypes}")
    b, d = q.shape[0], q.shape[2]
    dh = d // n_heads

    def split(x: np.ndarray) -> np.ndarray:  # (B, T, D) -> (B, H, T, D/H)
        return x.reshape(b, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, H, T, D/H) -> (B, T, D)
        return x.transpose(0, 2, 1, 3).reshape(b, -1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = q.dtype.type(1.0 / math.sqrt(dh))
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * s
    if keep is not None:
        scores = scores + (1.0 - np.asarray(keep, dtype=q.dtype)) * q.dtype.type(-1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(merge(p @ vh))

    def bwd(g):
        gh = split(g)
        dp = gh @ vh.transpose(0, 1, 3, 2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * s
        return merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh), merge(p.transpose(0, 1, 3, 2) @ gh)

    return _record(out, (q, k, v), bwd)


def check_finite(t: Tensor, what: str) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {what}")
    return t
