"""Central-difference verification of tape gradients.

Kept as a test oracle: `tests/test_autodiff.py` and acceptance criterion 2
compare every primitive's closed-form backward against it, reducing a
primitive's output to a scalar with `weighted_sum`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from hlsdbg import autodiff as ad
from hlsdbg.autodiff import Tape, Tensor, backward


def weighted_sum(t: Tensor, w) -> Tensor:
    """The scalar `sum(t * w)` for a constant `w` that broadcasts to `t`, built from `reshape` and `linear`."""
    col = np.broadcast_to(np.asarray(w, dtype=t.dtype), t.shape).reshape(-1, 1)
    return ad.reshape(ad.linear(ad.reshape(t, (1, -1)), Tensor(col)), ())


def check_gradients(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Max relative error between tape and numeric gradients of scalar `f`.

    `f` is a zero-argument closure over `tensors`, re-evaluated for every
    perturbed entry, so it must be deterministic. Relative error uses
    `|a - n| / max(1, |a|, |n|)`. float64 only — float32 drowns the
    difference quotient in rounding noise.
    """
    for t in tensors:
        if t.dtype != np.float64:
            raise ValueError("gradient checks require float64 tensors")
        t.zero_grad()
    with Tape() as tape:
        loss = f()
    if loss.data.size != 1:
        raise ValueError("f must return a scalar")
    backward(tape, loss)

    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        analytic = analytic.reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(f().data)
            flat[i] = orig - h
            lm = float(f().data)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            a = float(analytic[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
    return worst
