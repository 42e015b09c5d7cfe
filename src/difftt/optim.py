"""The training recipe (``TrainConfig``), AdamW with linear warmup,
global-norm clipping and gradient accumulation, and ``fit``, the one training
loop every trainer runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import check_fields
from .params import Parameter, ParamStore

# AdamW's moment decay rates and denominator guard; every stage uses these
BETAS = (0.9, 0.999)
EPS = 1e-8


@dataclass
class TrainConfig:
    """Optimization settings; the defaults are the translator's recipe, which
    ``ExperimentConfig.train_config`` changes per stage. ``max_grad_norm=0``
    means no clipping; ``warmup_steps=0`` means none."""
    epochs: int = 10
    batch_size: int = 8
    lr: float = 3e-5
    warmup_steps: int = 500
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    grad_accum: int = 2
    seed: int = 0

    def __post_init__(self):
        check_fields(self, at_least=dict(epochs=1, batch_size=1, grad_accum=1, lr=0, seed=0,
                                         warmup_steps=0, weight_decay=0, max_grad_norm=0))


class AdamW:
    """Decoupled weight decay Adam over non-frozen parameters.

    The training loop accumulates gradients over ``grad_accum`` microbatches
    (plain summation via repeated ``backward()``), then calls ``step()``.
    ``step()`` divides by the number of microbatches summed (``grad_accum``
    unless given, as for a shorter remainder), clips the global norm, and
    applies the update. It reads ``lr``, ``weight_decay``, ``warmup_steps``,
    ``max_grad_norm`` and ``grad_accum`` from the run's ``TrainConfig``; the
    betas and eps are ``BETAS`` and ``EPS``. Frozen parameters are never
    touched; their moment accumulators do not exist.
    """

    def __init__(self, params: list[Parameter], config: TrainConfig):
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
        """Scale all gradients so the global L2 norm is at most max_grad_norm
        (0: no clipping); returns the norm before clipping.

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

    def step(self, micro_batches: int | None = None):
        cfg = self.config
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"missing gradient on trainable parameter {p.name!r}")
        n = cfg.grad_accum if micro_batches is None else micro_batches
        if n != 1:
            for p in self.params:
                p.tensor.grad = p.grad / n
        self.clip_global_norm()
        lr = self.current_lr()
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name] = b1 * self.m[p.name] + (1 - b1) * g
            v = self.v[p.name] = b2 * self.v[p.name] + (1 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.tensor.data = p.data - lr * update - lr * cfg.weight_decay * p.data

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class FitResult:
    train_loss: list[float] = field(default_factory=list)   # mean micro-batch loss per epoch
    val_metric: list[float] = field(default_factory=list)   # validation score per epoch
    best_epoch: int = -1
    checkpoint_paths: list[str] = field(default_factory=list)


def fit(stores: list[ParamStore], n: int, batch_loss, evaluate, cfg: TrainConfig,
        checkpoint=None) -> FitResult:
    """Train the non-frozen parameters of ``stores`` on ``n`` samples.

    Each of ``cfg.epochs`` epochs permutes the samples, runs micro-batches of
    ``cfg.batch_size`` through ``batch_loss(indices) -> scalar loss Tensor``
    and sums their gradients, steps AdamW on the mean gradient of every
    ``cfg.grad_accum`` micro-batches (and of a shorter remainder), scores
    the epoch with ``evaluate() -> float`` and, when given, calls
    ``checkpoint(epoch, metric) -> path``. The stores end at the best-scoring epoch's state (the
    first one on ties). ``cfg`` is the run's ``TrainConfig``, which AdamW reads too.
    """
    if n < 1:
        raise ValueError("empty training set: fit needs at least one sample")
    opt = AdamW([p for store in stores for p in store.trainable()], cfg)
    rng = np.random.default_rng(cfg.seed)
    result = FitResult()
    best_metric, best_states = -1.0, None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            loss = batch_loss(order[start:start + cfg.batch_size])
            loss.backward()
            losses.append(loss.item())
            if len(losses) % cfg.grad_accum == 0:
                opt.step()
                opt.zero_grad()
        if len(losses) % cfg.grad_accum != 0:
            opt.step(len(losses) % cfg.grad_accum)
            opt.zero_grad()
        result.train_loss.append(float(np.mean(losses)))
        metric = evaluate()
        result.val_metric.append(metric)
        if checkpoint is not None:
            result.checkpoint_paths.append(checkpoint(epoch, metric))
        if metric > best_metric:
            best_metric, result.best_epoch = metric, epoch
            best_states = [store.state() for store in stores]
    if best_states is not None:
        for store, state in zip(stores, best_states):
            store.load_state(state)
    return result
