"""Central finite-difference verification of backprop gradients."""

from __future__ import annotations

import numpy as np

from .params import Parameter


def finite_difference_check(
    loss_fn,
    params: list[Parameter],
    eps: float = 1e-5,
    n_coords: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare backprop gradients with central differences on sampled coordinates.

    ``loss_fn`` recomputes the scalar loss Tensor from the current parameter
    values; it must be deterministic. Returns the max relative error over the
    sampled coordinates: |a - n| / max(|a|, |n|, 1e-6). Frozen parameters
    have no analytic gradient and are not sampled.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    candidates = [p for p in params if not p.frozen]
    if not candidates:
        raise ValueError("no parameters to check")

    for p in candidates:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for p in candidates}

    sizes = np.array([p.data.size for p in candidates], dtype=np.float64)
    probs = sizes / sizes.sum()
    max_rel = 0.0
    for _ in range(n_coords):
        p = candidates[rng.choice(len(candidates), p=probs)]
        flat = p.tensor.data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = loss_fn().item()
        flat[i] = orig - eps
        f_minus = loss_fn().item()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = analytic[id(p)].reshape(-1)[i]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel
