"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import NumericError


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`."""
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
                p.grad *= p.grad.dtype.type(factor)
    return norm


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update; parameters without grads are skipped."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        dt = p.data.dtype
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= dt.type(beta1)
        m += dt.type(1 - beta1) * g
        v *= dt.type(beta2)
        v += dt.type(1 - beta2) * (g * g)
        m_hat = m / dt.type(1 - beta1**t)
        v_hat = v / dt.type(1 - beta2**t)
        p.data -= dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(eps))
