"""Optimizer semantics: hand-computed single-step oracle, warmup schedule,
clipping, accumulation averaging, the frozen-parameter contract, the flat
buffers against the per-parameter loop they replaced, the ``fit`` loop's
accumulation and best-epoch restore, and the effect of every ``TrainConfig``
field."""

import dataclasses
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt import optim
from difftt.mt import TrainConfig
from difftt.optim import BETAS, EPS, AdamW, fit
from difftt.params import Parameter, ParamStore


def make_param(values, name="p", frozen=False):
    p = Parameter(name, np.asarray(values, dtype=np.float64), frozen=frozen)
    return p


def set_grad(p, g):
    p.tensor.grad = np.asarray(g, dtype=np.float64)


def test_single_step_matches_hand_computation():
    # one step of AdamW from zero moments, no warmup, no clipping
    lr, wd, (b1, b2), eps = 0.1, 0.01, BETAS, EPS
    x0, g = 2.0, 0.5
    p = make_param([x0])
    opt = AdamW([p], TrainConfig(lr=lr, weight_decay=wd, max_grad_norm=0.0,
                                 warmup_steps=0, grad_accum=1))
    set_grad(p, [g])
    opt.step()
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    want = x0 - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * x0
    assert abs(float(p.data[0]) - want) < 1e-15


def test_zero_grad_step_only_decays():
    p = make_param([3.0])
    opt = AdamW([p], TrainConfig(lr=0.1, weight_decay=0.5, max_grad_norm=0.0,
                                 warmup_steps=0, grad_accum=1))
    set_grad(p, [0.0])
    opt.step()
    assert abs(float(p.data[0]) - 3.0 * (1 - 0.1 * 0.5)) < 1e-15


def test_frozen_parameter_never_updates():
    frozen = make_param([1.0, 2.0], name="fz", frozen=True)
    live = make_param([1.0, 2.0], name="lv")
    before = frozen.data.copy()
    opt = AdamW([frozen, live], TrainConfig(lr=0.1, warmup_steps=0, grad_accum=1))
    set_grad(live, [1.0, -1.0])
    set_grad(frozen, [5.0, 5.0])  # even with a gradient present
    for _ in range(10):
        opt.step()
    assert np.array_equal(frozen.data, before)
    assert not np.array_equal(live.data, before)
    assert "fz" not in opt.m  # no moment accumulators for frozen params


def test_missing_gradient_raises():
    p = make_param([1.0])
    opt = AdamW([p], TrainConfig(warmup_steps=0, grad_accum=1))
    with pytest.raises(ValueError, match="missing gradient"):
        opt.step()


def test_warmup_schedule_linear_then_constant():
    p = make_param([0.0])
    opt = AdamW([p], TrainConfig(lr=1.0, warmup_steps=4, grad_accum=1))
    lrs = []
    for _ in range(6):
        lrs.append(opt.current_lr())
        set_grad(p, [1.0])
        opt.step()
    assert lrs == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.0, 1.0])


def test_global_norm_clipping():
    a = make_param([0.0], name="a")
    b = make_param([0.0, 0.0], name="b")
    opt = AdamW([a, b], TrainConfig(max_grad_norm=1.0, warmup_steps=0, grad_accum=1))
    set_grad(a, [3.0])
    set_grad(b, [0.0, 4.0])
    norm = opt.clip_global_norm()
    assert norm == pytest.approx(5.0)
    total = float((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert np.sqrt(total) == pytest.approx(1.0)
    # direction preserved
    assert a.grad[0] / b.grad[1] == pytest.approx(3.0 / 4.0)


def test_clipping_noop_below_threshold():
    p = make_param([0.0])
    opt = AdamW([p], TrainConfig(max_grad_norm=10.0, warmup_steps=0, grad_accum=1))
    set_grad(p, [0.5])
    opt.clip_global_norm()
    assert p.grad[0] == 0.5


def test_grad_accum_divides_before_clip():
    # two accumulated microbatches of gradient 1.0 each behave like one of 1.0
    def run(accum, grads):
        p = make_param([1.0])
        opt = AdamW([p], TrainConfig(lr=0.1, grad_accum=accum, weight_decay=0.0, warmup_steps=0))
        g = np.zeros(1)
        for val in grads:
            g = g + val
        set_grad(p, g)
        opt.step()
        return float(p.data[0])

    assert run(2, [1.0, 1.0]) == pytest.approx(run(1, [1.0]))


def test_determinism():
    def train(steps):
        p = make_param(np.linspace(-1, 1, 5))
        opt = AdamW([p], TrainConfig(lr=0.05, weight_decay=0.01, warmup_steps=0, grad_accum=1))
        rng = np.random.default_rng(7)
        for _ in range(steps):
            set_grad(p, rng.normal(size=5))
            opt.step()
        return p.data.copy()

    assert np.array_equal(train(10), train(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_raises_before_any_update(bad):
    p = make_param([1.0, 2.0], name="w")
    q = make_param([3.0], name="u")
    opt = AdamW([p, q], TrainConfig(lr=0.1, max_grad_norm=1.0, warmup_steps=0, grad_accum=1))
    set_grad(p, [0.5, -0.5])
    set_grad(q, [0.1])
    opt.step()
    moments = {name: (opt.m[name].copy(), opt.v[name].copy()) for name in opt.m}
    values = p.data.copy(), q.data.copy()
    set_grad(p, [0.5, bad])
    set_grad(q, [0.1])
    with pytest.raises(FloatingPointError, match=r"step 2.*'?w'?"):
        opt.step()
    assert opt.t == 1 and opt.m.keys() == opt.v.keys() == moments.keys()
    for name, (m, v) in moments.items():
        assert np.array_equal(opt.m[name], m) and np.array_equal(opt.v[name], v)
    assert np.array_equal(p.data, values[0]) and np.array_equal(q.data, values[1])


def test_step_returns_the_global_norm_before_clipping():
    grads = {"a": np.asarray([[3.0, -1.0], [0.5, 2.0]]), "b": np.asarray([4.0, 0.25, -6.0])}
    cfg = TrainConfig(max_grad_norm=1.0, warmup_steps=0, grad_accum=2)
    stepped = [make_param(np.zeros(g.shape), name) for name, g in grads.items()]
    clipped = [make_param(np.zeros(g.shape), name) for name, g in grads.items()]
    for p in stepped:
        set_grad(p, grads[p.name])
    for p in clipped:
        set_grad(p, grads[p.name] / 2)  # step divides by its two micro-batches
    norm = AdamW(stepped, cfg).step()
    assert norm == AdamW(clipped, cfg).clip_global_norm() > cfg.max_grad_norm


class LoopAdamW:
    """The per-parameter AdamW that the flat buffers replaced, kept as their
    oracle: every array of a step is a new one, computed by the expressions
    ``AdamW.step`` evaluates chunk by chunk."""

    current_lr = AdamW.current_lr

    def __init__(self, params, config):
        self.config = config
        self.params = [p for p in params if not p.frozen]
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def clip_global_norm(self):
        total = 0.0
        for p in self.params:
            total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        limit = self.config.max_grad_norm
        if limit > 0 and norm > limit:
            factor = limit / norm
            for p in self.params:
                p.tensor.grad = p.grad * factor
        return norm

    def step(self, micro_batches=None):
        cfg = self.config
        n = cfg.grad_accum if micro_batches is None else micro_batches
        if n != 1:
            for p in self.params:
                p.tensor.grad = p.grad / n
        norm = self.clip_global_norm()
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
        return norm


def laid_out(values, layout):
    """``values`` in a C-ordered or F-ordered array, or as a strided or
    reversed view of a larger buffer."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":  # every other float of a buffer twice the size
        wide = np.zeros(values.shape + (2,))
        wide[..., 0] = values
        return wide[..., 0]
    if layout == "reversed":  # negative strides along the first axis
        return values[::-1].copy()[::-1]
    return np.ascontiguousarray(values)


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


LAYOUTS = ["C", "F", "strided", "reversed"]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_flat_buffers_equal_the_per_parameter_loop_bitwise(data):
    draw = data.draw
    shapes = draw(st.lists(st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
                           min_size=1, max_size=5))
    frozen = draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)))
    accum = draw(st.integers(1, 3))
    cfg = TrainConfig(lr=draw(st.sampled_from([1e-3, 0.1])), grad_accum=accum,
                      warmup_steps=draw(st.integers(0, 3)),
                      weight_decay=draw(st.sampled_from([0.0, 0.01])),
                      max_grad_norm=draw(st.sampled_from([0.0, 0.05, 100.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stores = [ParamStore(np.random.default_rng(0)) for _ in range(2)]
    for i, shape in enumerate(shapes):
        values = rng.normal(size=shape)
        for store in stores:
            store.register(f"p{i}", values.copy(), "g")
            store[f"p{i}"].frozen = frozen[i]
    flat, loop = (store.parameters() for store in stores)
    # a small chunk makes the update loop cross parameters and end mid-chunk
    with patch.object(optim, "CHUNK", draw(st.sampled_from([1, 5, 16, optim.CHUNK]))):
        opt, oracle = AdamW(flat, cfg), LoopAdamW(loop, cfg)
        for step in range(draw(st.integers(1, 4))):
            if step == 0 or draw(st.booleans()):  # else the last step's gradients again
                scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
                for p, q in zip(flat, loop):
                    g, layout = rng.normal(size=p.data.shape) * scale, draw(st.sampled_from(LAYOUTS))
                    p.tensor.grad, q.tensor.grad = laid_out(g, layout), laid_out(g, layout)
            change = draw(st.sampled_from(["none", "load_state", "assign", "in_place"]))
            if change == "load_state":
                state = {name: values + rng.normal(size=values.shape)
                         for name, values in stores[1].state().items()}
                for store in stores:
                    store.load_state(state)
            elif change == "assign":
                values = rng.normal(size=flat[0].data.shape)
                for p in (flat[0], loop[0]):
                    p.tensor.data = laid_out(values, draw(st.sampled_from(LAYOUTS)))
            elif change == "in_place":
                for p in (flat[-1], loop[-1]):
                    p.data[...] *= -0.5
            micro_batches = draw(st.sampled_from([None] + list(range(1, accum + 1))))
            assert opt.step(micro_batches) == oracle.step(micro_batches)
            assert opt.t == oracle.t and opt.m.keys() == oracle.m.keys()
            for name in oracle.m:
                assert same_bits(opt.m[name], oracle.m[name])
                assert same_bits(opt.v[name], oracle.v[name])
            for p, q in zip(flat, loop):
                assert same_bits(p.data, q.data), p.name
                assert (p.grad is None) == (q.grad is None)
                if p.grad is not None:
                    assert same_bits(p.grad, q.grad), p.name


def one_param_store(values) -> ParamStore:
    store = ParamStore(np.random.default_rng(0))
    store.register("w", np.asarray(values, dtype=np.float64), "g")
    return store


def weighted_sum_loss(stores, weights, seen=None):
    """batch_loss whose gradient on every store's ``w`` is the batch's summed weight."""
    def batch_loss(idx):
        if seen is not None:
            seen.append(list(idx))
        c = float(weights[idx].sum())
        terms = [ad.sum_all(ad.scale(store["w"].tensor, c)) for store in stores]
        return terms[0] if len(terms) == 1 else ad.add(*terms)
    return batch_loss


def test_fit_accumulates_and_steps_on_the_remainder(monkeypatch):
    # 5 samples at batch 2 make micro-batches of 2, 2 and 1; with grad_accum=2
    # the first two share a step and the remainder gets one of its own
    stepped = []
    original = AdamW.step

    def recording_step(self, *args):
        stepped.append(self.params[0].grad.copy())
        original(self, *args)

    monkeypatch.setattr(AdamW, "step", recording_step)
    store = one_param_store([1.0, -1.0])
    weights = np.asarray([1.0, 10.0, 100.0, 1000.0, 10000.0])
    seen = []
    cfg = TrainConfig(epochs=3, batch_size=2, grad_accum=2, lr=0.1, warmup_steps=0, seed=0)
    result = fit([store], 5, weighted_sum_loss([store], weights, seen),
                 lambda: float(len(stepped)), cfg)
    assert result.val_metric == [2.0, 4.0, 6.0]
    assert [len(idx) for idx in seen] == [2, 2, 1] * 3
    for epoch in range(3):
        first, second, rest = seen[3 * epoch: 3 * epoch + 3]
        # gradients sum over a step's micro-batches and start from zero after it
        assert np.array_equal(stepped[2 * epoch], np.full(2, weights[first + second].sum()))
        assert np.array_equal(stepped[2 * epoch + 1], np.full(2, weights[rest].sum()))
    assert store["w"].grad is None


def test_fit_remainder_step_averages_its_own_micro_batches(monkeypatch):
    # 3 samples at batch 1 with grad_accum=2 make a step of two micro-batches
    # and a remainder step of one; every micro-batch gives gradient 1.0, so
    # both steps must apply the mean, 1.0 (not 2/2 then 1/2)
    applied = []
    original = AdamW.clip_global_norm

    def recording_clip(self):
        applied.append(self.params[0].grad.copy())
        return original(self)

    monkeypatch.setattr(AdamW, "clip_global_norm", recording_clip)
    store = one_param_store([1.0])
    cfg = TrainConfig(epochs=1, batch_size=1, grad_accum=2, lr=0.1, warmup_steps=0, seed=0)
    fit([store], 3, weighted_sum_loss([store], np.ones(3)), lambda: 0.0, cfg)
    assert [g.tolist() for g in applied] == [[1.0], [1.0]]


def test_fit_restores_every_store_to_the_best_epoch():
    a, b = one_param_store([1.0, 2.0]), one_param_store([-3.0])
    scripted = iter([0.2, 0.9, 0.5])
    snapshots = []

    def evaluate():
        snapshots.append([a.state(), b.state()])
        return next(scripted)

    cfg = TrainConfig(epochs=3, batch_size=2, grad_accum=1, lr=0.1, warmup_steps=0, seed=0)
    result = fit([a, b], 4, weighted_sum_loss([a, b], np.ones(4)), evaluate, cfg)
    assert result.val_metric == [0.2, 0.9, 0.5] and result.best_epoch == 1
    for store, best in zip((a, b), snapshots[1]):
        assert np.array_equal(store["w"].data, best["w"])
    # training moved on after epoch 1, so the restore is what put them back
    for store, last in zip((a, b), snapshots[2]):
        assert not np.array_equal(store["w"].data, last["w"])


# A base run and, per TrainConfig field, a value that differs from it. A field
# added to TrainConfig without a row here fails the test below.
BASE_RUN = dict(epochs=2, batch_size=2, lr=0.05, warmup_steps=2, weight_decay=0.1,
                max_grad_norm=1.0, grad_accum=2, seed=0)
FIELD_CHANGES = dict(epochs=3, batch_size=3, lr=0.02, warmup_steps=0, weight_decay=0.0,
                     max_grad_norm=0.0, grad_accum=1, seed=1)


def fit_least_squares(cfg: TrainConfig) -> np.ndarray:
    """The weights ``fit`` trains under ``cfg`` on a 7-sample least-squares problem."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 2))
    y = x @ np.asarray([[3.0], [-2.0]]) + rng.normal(scale=0.1, size=(7, 1))
    store = one_param_store([[1.0], [-1.0]])

    def batch_loss(idx):
        diff = ad.sub(ad.matmul(ad.Tensor(x[idx]), store["w"].tensor), ad.Tensor(y[idx]))
        return ad.mean_all(ad.mul(diff, diff))

    epoch = iter(range(cfg.epochs))  # each epoch scores higher, so the last is kept
    fit([store], len(x), batch_loss, lambda: float(next(epoch)), cfg)
    return store["w"].data


def test_every_train_config_field_changes_the_trained_parameters():
    assert FIELD_CHANGES.keys() == BASE_RUN.keys() == \
        {f.name for f in dataclasses.fields(TrainConfig)}
    base = fit_least_squares(TrainConfig(**BASE_RUN))
    for name, value in FIELD_CHANGES.items():
        changed = fit_least_squares(TrainConfig(**{**BASE_RUN, name: value}))
        assert not np.array_equal(changed, base), f"TrainConfig.{name} has no effect"


@pytest.mark.parametrize("field,value", [("warmup_steps", -1), ("weight_decay", -0.01),
                                         ("max_grad_norm", -1.0)])
def test_negative_schedule_decay_and_clip_settings_rejected(field, value):
    # a negative warmup acted as none, a negative decay grew the weights and a
    # negative clip norm turned clipping off as 0 does
    with pytest.raises(ValueError, match=f"TrainConfig.{field}={value}: must be >= 0"):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: 0}), field) == 0


def test_zero_max_grad_norm_means_no_clipping():
    p = make_param([0.0, 0.0])
    set_grad(p, [300.0, 400.0])
    opt = AdamW([p], TrainConfig(max_grad_norm=0.0, warmup_steps=0, grad_accum=1))
    assert opt.clip_global_norm() == 500.0
    assert np.array_equal(p.grad, [300.0, 400.0])
