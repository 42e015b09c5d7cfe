"""AdamW with linear warmup, global-norm clipping and gradient accumulation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import Parameter


@dataclass
class AdamWConfig:
    lr: float = 3e-5
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    warmup_steps: int = 0
    max_grad_norm: float = 1.0
    grad_accum: int = 1


class AdamW:
    """Decoupled weight decay Adam over non-frozen parameters.

    The training loop accumulates gradients over ``grad_accum`` microbatches
    (plain summation via repeated ``backward()``), then calls ``step()``.
    ``step()`` divides by the accumulation factor, clips the global norm, and
    applies the update. Frozen parameters are never touched; their moment
    accumulators do not exist.
    """

    def __init__(self, params: list[Parameter], config: AdamWConfig):
        self.config = config
        self.params = [p for p in params if not p.frozen]
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def current_lr(self) -> float:
        """Linear warmup from 0 to lr, constant afterwards (uses the next step index)."""
        cfg = self.config
        t = self.t + 1
        if cfg.warmup_steps > 0 and t <= cfg.warmup_steps:
            return cfg.lr * t / cfg.warmup_steps
        return cfg.lr

    def clip_global_norm(self) -> float:
        """Scale all gradients so the global L2 norm is at most max_grad_norm.

        A NaN or infinite norm raises FloatingPointError (naming the step and
        the first parameter whose gradient is not finite) before anything is
        updated: a comparison with NaN is False, so clipping alone would let
        it through into the parameters.
        """
        total = 0.0
        for p in self.params:
            total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if not np.isfinite(norm):
            culprit = next((p.name for p in self.params if not np.all(np.isfinite(p.grad))),
                           "none (the squared norm overflows)")
            raise FloatingPointError(
                f"non-finite gradient norm {norm} at optimizer step {self.t + 1}; "
                f"first non-finite gradient: {culprit}")
        limit = self.config.max_grad_norm
        if limit > 0 and norm > limit:
            factor = limit / norm
            for p in self.params:
                p.tensor.grad = p.grad * factor
        return norm

    def step(self):
        cfg = self.config
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"missing gradient on trainable parameter {p.name!r}")
        if cfg.grad_accum != 1:
            for p in self.params:
                p.tensor.grad = p.grad / cfg.grad_accum
        self.clip_global_norm()
        lr = self.current_lr()
        self.t += 1
        b1, b2 = cfg.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name] = b1 * self.m[p.name] + (1 - b1) * g
            v = self.v[p.name] = b2 * self.v[p.name] + (1 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            p.tensor.data = p.data - lr * update - lr * cfg.weight_decay * p.data

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def state(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state(self, state: dict):
        self.t = int(state["t"])
        for k in self.m:
            self.m[k] = np.asarray(state["m"][k], dtype=np.float64).copy()
            self.v[k] = np.asarray(state["v"][k], dtype=np.float64).copy()
