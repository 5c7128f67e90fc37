"""Reverse-mode autodiff over numpy arrays.

A `Tape` records primitive applications while active; `backward` replays it
in reverse, accumulating gradients into the leaves. Only what the debugger
model needs is implemented, each primitive with an explicit closed-form
backward. dtype is preserved end to end and mixing f32/f64 is an error, so
float64 runs stay bit-reproducible.

A tape owns only what backward reads. Each node holds the never-reused key of
its output, its inputs' keys (or, for a leaf, the leaf itself) and a closure;
a closure holds only the arrays and shapes its backward reads, so an output no
backward reads is freed as soon as the caller drops it. `backward` uses up the
tape: it drops each closure as it passes, freeing activations on the way back
to the inputs, and a second `backward` on the same tape is an error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

_TAPE_STACK: list["Tape"] = []
_KEYS = itertools.count()  # keys, not `id()`s: an id is reused once its output dies


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.key: int | None = None  # set when a tape records this tensor as an output

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    out: int
    inputs: tuple[int | Tensor, ...]  # the key of an input this tape made, else the leaf itself
    bwd: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None  # None once backward has passed


@dataclass
class Tape:
    nodes: list[_Node] = field(default_factory=list)
    made: set[int] = field(default_factory=set)

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
        out.key = next(_KEYS)
        tape.made.add(out.key)
        tape.nodes.append(_Node(out.key, tuple(i.key if i.key in tape.made else i for i in inputs), bwd))
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
    """Accumulate d(loss)/d(leaf) into each leaf's `.grad`, using up `tape`.

    Each node's closure is dropped as the pass reaches it, so the tape keeps
    its nodes but can run backward only once.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if tape.nodes and tape.nodes[-1].bwd is None:
        raise ValueError("backward already ran on this tape")
    grads: dict[int | None, np.ndarray] = {loss.key: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        bwd, node.bwd = node.bwd, None
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, bwd(g)):
            if gi is None:
                continue
            if not isinstance(inp, Tensor):
                grads[inp] = grads[inp] + gi if inp in grads else gi
            elif inp.requires_grad:
                inp.grad = gi if inp.grad is None else inp.grad + gi


# --- arithmetic -------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


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


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    dtypes = {p.dtype for p in parts}
    if len(dtypes) > 1:
        raise ValueError(f"dtype mismatch in concat: {dtypes}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _record(out, tuple(parts), bwd)


def slice_(a: Tensor, key) -> Tensor:
    """`a[key]` for a basic-slice `key` (ints and slices only).

    A basic slice cannot select an element twice, so the backward pass
    assigns the gradient into zeros rather than accumulating it.
    """
    out = Tensor(a.data[key])
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[key] = g
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


# --- nonlinearities -------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

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


# --- losses -------------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: np.ndarray, keep: np.ndarray) -> Tensor:
    """Softmax cross entropy of (B, T, K) logits at (B, T) class `targets`, as one node.

    The mean over rows of each row's mean -log softmax at the target, over
    the positions `keep` marks with 1; every row must keep one.
    """
    targets = np.asarray(targets)
    k = np.asarray(keep, dtype=logits.dtype)
    counts = k.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("cross entropy needs a kept position in every row")
    inv = (1.0 / counts).astype(logits.dtype)
    s = logits.dtype.type(1.0 / targets.shape[0])
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))  # log softmax
    at = (*np.indices(targets.shape, sparse=True), targets)
    out = Tensor(-(((y[at] * k).sum(axis=1) * inv).sum() * s))

    def bwd(g):
        full = np.zeros_like(y)
        full[at] += ((-g * s) * inv)[:, None] * k  # adds, so a masked -0.0 lands as +0.0
        return (full - np.exp(y) * full.sum(axis=-1, keepdims=True),)

    return _record(out, (logits,), bwd)


def binary_cross_entropy(logits: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """`sum(w * (softplus(z) - z * y)) / sum(w)` over logits z, labels y and weights w, as one node.

    Weights are non-negative. When they sum to zero the loss is +0.0 and
    its gradient zero.
    """
    z = logits.data
    y = np.asarray(labels, dtype=logits.dtype)
    w = np.asarray(weights, dtype=logits.dtype)
    wsum = float(w.sum())
    if wsum == 0:
        return _record(Tensor(np.zeros((), logits.dtype)), (logits,), lambda g: (np.zeros_like(z),))
    s = logits.dtype.type(1.0 / wsum)
    out = Tensor(((np.logaddexp(logits.dtype.type(0), z) - z * y) * w).sum() * s)

    def bwd(g):
        ge = (g * s) * w
        sig = 1.0 / (1.0 + np.exp(-np.abs(z)))  # the sigmoid, without overflow
        sig = np.where(z >= 0, sig, 1.0 - sig)
        return ((-ge) * y + ge * sig,)

    return _record(out, (logits,), bwd)


def check_finite(t: Tensor, what: str) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite values in {what}")
    return t
