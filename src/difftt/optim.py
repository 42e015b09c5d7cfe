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
# floats per pass of AdamW's update loop, so that its operands stay in cache:
# on the benchmark's 155,412 floats 16,384 was as fast as 24,576 or 32,768, with
# the narrowest spread, and faster than 8,192 or one pass
CHUNK = 16384


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

    The moments live in two flat float64 buffers laid out in parameter order;
    ``m`` and ``v`` map each name to its view. A step copies the gradients
    into a third such buffer, which each ``p.grad`` then views until the next
    step, and writes the new values into a fresh flat buffer, which each
    parameter's array then views. A parameter whose array was replaced since
    the last step (``ParamStore.load_state``) is read from its new array.
    """

    def __init__(self, params: list[Parameter], config: TrainConfig):
        self.config = config
        self.params = [p for p in params if not p.frozen]
        self.t = 0
        self._shapes = [p.data.shape for p in self.params]
        stops = np.cumsum([p.data.size for p in self.params], dtype=int).tolist()
        self._bounds = list(zip([0] + stops, stops))  # each parameter's slice of a flat buffer
        size = stops[-1] if stops else 0
        self._m, self._v, self._grad = np.zeros(size), np.zeros(size), np.zeros(size)
        self.m = dict(zip((p.name for p in self.params), self._views(self._m)))
        self.v = dict(zip((p.name for p in self.params), self._views(self._v)))
        self._grads = self._views(self._grad)
        self._values, self._value_views = None, []  # the last step's output and its views

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of the flat buffer ``flat``."""
        return [flat[start:stop].reshape(shape)
                for (start, stop), shape in zip(self._bounds, self._shapes)]

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
        # each gradient's squared sum, added as a Python float; the gradients
        # that view the flat buffer are squared there in one pass
        squares = np.square(self._grad)
        total = 0.0
        for p, view, (start, stop) in zip(self.params, self._grads, self._bounds):
            total += float((squares[start:stop] if p.grad is view else p.grad ** 2).sum())
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
            self._grad *= factor  # the gradients that view the buffer, and a step's copies
            for p, view in zip(self.params, self._grads):
                if p.grad is not view:
                    p.tensor.grad = p.grad * factor
        return norm

    def _gather_grads(self, n: int):
        """Copy every gradient into the flat buffer and divide it by ``n``.
        Each ``p.grad`` becomes its view of the buffer, except a gradient
        that is not C-contiguous: that one becomes ``p.grad / n`` as before,
        so that its squared sum in ``clip_global_norm`` runs over its own
        memory order and the norm keeps its bits."""
        for p, view in zip(self.params, self._grads):
            g = p.grad
            if g is None:
                raise ValueError(f"missing gradient on trainable parameter {p.name!r}")
            if g is not view:  # else the last step's gradient, still in the buffer
                view[...] = g
                if g.flags.c_contiguous:
                    p.tensor.grad = view
                elif n != 1:
                    p.tensor.grad = g / n
        if n != 1:
            self._grad /= n

    def _gather_values(self) -> np.ndarray:
        """The parameter values as one flat buffer: the last step's output
        while every parameter still views it, else a copy gathered from the
        parameters' arrays."""
        if self._values is not None and all(
                p.data is view for p, view in zip(self.params, self._value_views)):
            return self._values
        flat = np.empty_like(self._grad)
        for p, view in zip(self.params, self._views(flat)):
            view[...] = p.data
        return flat

    def step(self, micro_batches: int | None = None) -> float:
        """One update of every trainable parameter; returns the global
        gradient norm before clipping. The update runs over ``CHUNK``-float
        slices of the flat buffers, op by op as the per-parameter
        expressions order them, so every float is that of the expressions."""
        cfg = self.config
        self._gather_grads(cfg.grad_accum if micro_batches is None else micro_batches)
        norm = self.clip_global_norm()
        lr = self.current_lr()
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = lr * cfg.weight_decay
        values = self._gather_values()
        out = np.empty_like(values)
        scratch = np.empty((2, min(CHUNK, out.size)))
        for start in range(0, out.size, CHUNK):
            span = slice(start, start + CHUNK)
            g, m, v, p, new = (a[span] for a in (self._grad, self._m, self._v, values, out))
            s, u = scratch[:, :g.size]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, 1 - b1, out=s)
            m += s
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(g, g, out=s)
            s *= 1 - b2
            v *= b2
            v += s
            # update = (m / bc1) / (sqrt(v / bc2) + EPS)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            np.divide(m, bc1, out=u)
            u /= s
            # new = p - lr * update - lr * weight_decay * p
            u *= lr
            np.subtract(p, u, out=new)
            np.multiply(p, decay, out=u)
            new -= u
        self._values, self._value_views = out, self._views(out)
        for p, view in zip(self.params, self._value_views):
            p.tensor.data = view
        return norm

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
