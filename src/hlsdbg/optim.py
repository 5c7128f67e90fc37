"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import NumericError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`.

    Each gradient is replaced by a scaled copy, never scaled in place:
    `backward` can hand two leaves one array, or views of one.
    """
    total = 0.0
    for p in params.values():
        g = p.grad
        if g is not None:
            # `vdot` squares and sums without a temporary; f32 is upcast to sum in f64
            g = g if g.dtype == np.float64 else g.astype(np.float64)
            total += float(np.vdot(g, g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * p.grad.dtype.type(factor)
    return norm


def _add_moments(params: dict[str, Tensor], state: AdamState) -> None:
    """Zero moments for each parameter with its first gradient, as views into one block per dtype.

    A block past glibc's mmap threshold is mapped and returned whole rather
    than scattered through the heap that the activations churn. The threshold
    rises as large mapped chunks are freed, up to 32 MiB on 64-bit, so only a
    block above 32 MiB (one dtype's parameters) is sure to be mapped; a
    smaller one may land in the heap, as separate moments did.
    """
    new = [(name, p.data) for name, p in params.items() if p.grad is not None and name not in state.m]
    for dt in {data.dtype for _, data in new}:
        group = [(name, data) for name, data in new if data.dtype == dt]
        for moments in (state.m, state.v):
            block = np.zeros(sum(data.size for _, data in group), dt)
            at = 0
            for name, data in group:
                moments[name] = block[at : at + data.size].reshape(data.shape)
                at += data.size


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; parameters without grads are skipped."""
    state.t += 1
    t = state.t
    _add_moments(params, state)
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        dt = p.data.dtype
        m = state.m[name]
        v = state.v[name]
        m *= dt.type(BETA1)
        m += dt.type(1 - BETA1) * g
        v *= dt.type(BETA2)
        v += dt.type(1 - BETA2) * (g * g)
        m_hat = m / dt.type(1 - BETA1**t)
        v_hat = v / dt.type(1 - BETA2**t)
        p.data -= dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(EPS))
