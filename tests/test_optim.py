"""Optimizer semantics: hand-computed single-step oracle, warmup schedule,
clipping, accumulation averaging, and the frozen-parameter contract."""

import numpy as np
import pytest

from difftt.optim import AdamW, AdamWConfig
from difftt.params import Parameter


def make_param(values, name="p", frozen=False):
    p = Parameter(name, np.asarray(values, dtype=np.float64), frozen=frozen)
    return p


def set_grad(p, g):
    p.tensor.grad = np.asarray(g, dtype=np.float64)


def test_single_step_matches_hand_computation():
    # one step of AdamW from zero moments, no warmup, no clipping
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    x0, g = 2.0, 0.5
    p = make_param([x0])
    opt = AdamW([p], AdamWConfig(lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd,
                                 max_grad_norm=0.0))
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
    opt = AdamW([p], AdamWConfig(lr=0.1, weight_decay=0.5, max_grad_norm=0.0))
    set_grad(p, [0.0])
    opt.step()
    assert abs(float(p.data[0]) - 3.0 * (1 - 0.1 * 0.5)) < 1e-15


def test_frozen_parameter_never_updates():
    frozen = make_param([1.0, 2.0], name="fz", frozen=True)
    live = make_param([1.0, 2.0], name="lv")
    before = frozen.data.copy()
    opt = AdamW([frozen, live], AdamWConfig(lr=0.1))
    set_grad(live, [1.0, -1.0])
    set_grad(frozen, [5.0, 5.0])  # even with a gradient present
    for _ in range(10):
        opt.step()
    assert np.array_equal(frozen.data, before)
    assert not np.array_equal(live.data, before)
    assert "fz" not in opt.m  # no moment accumulators for frozen params


def test_missing_gradient_raises():
    p = make_param([1.0])
    opt = AdamW([p], AdamWConfig())
    with pytest.raises(ValueError, match="missing gradient"):
        opt.step()


def test_warmup_schedule_linear_then_constant():
    p = make_param([0.0])
    opt = AdamW([p], AdamWConfig(lr=1.0, warmup_steps=4))
    lrs = []
    for _ in range(6):
        lrs.append(opt.current_lr())
        set_grad(p, [1.0])
        opt.step()
    assert lrs == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.0, 1.0])


def test_global_norm_clipping():
    a = make_param([0.0], name="a")
    b = make_param([0.0, 0.0], name="b")
    opt = AdamW([a, b], AdamWConfig(max_grad_norm=1.0))
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
    opt = AdamW([p], AdamWConfig(max_grad_norm=10.0))
    set_grad(p, [0.5])
    opt.clip_global_norm()
    assert p.grad[0] == 0.5


def test_grad_accum_divides_before_clip():
    # two accumulated microbatches of gradient 1.0 each behave like one of 1.0
    def run(accum, grads):
        p = make_param([1.0])
        opt = AdamW([p], AdamWConfig(lr=0.1, grad_accum=accum, weight_decay=0.0))
        g = np.zeros(1)
        for val in grads:
            g = g + val
        set_grad(p, g)
        opt.step()
        return float(p.data[0])

    assert run(2, [1.0, 1.0]) == pytest.approx(run(1, [1.0]))


def test_determinism_and_state_roundtrip():
    def train(steps, reload_at=None):
        p = make_param(np.linspace(-1, 1, 5))
        opt = AdamW([p], AdamWConfig(lr=0.05, weight_decay=0.01))
        rng = np.random.default_rng(7)
        saved = None
        for t in range(steps):
            set_grad(p, rng.normal(size=5))
            opt.step()
            if reload_at is not None and t == reload_at:
                saved = (p.data.copy(), opt.state())
        return p.data.copy(), saved

    a, _ = train(10)
    b, _ = train(10)
    assert np.array_equal(a, b)

    # resume from a mid-run snapshot and land on identical values
    _, (values, state) = train(10, reload_at=4)
    p = make_param(values)
    opt = AdamW([p], AdamWConfig(lr=0.05, weight_decay=0.01))
    opt.load_state(state)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rng.normal(size=5)
    for _ in range(5):
        set_grad(p, rng.normal(size=5))
        opt.step()
    assert np.array_equal(p.data, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_raises_before_any_update(bad):
    p = make_param([1.0, 2.0], name="w")
    q = make_param([3.0], name="u")
    opt = AdamW([p, q], AdamWConfig(lr=0.1, max_grad_norm=1.0))
    set_grad(p, [0.5, -0.5])
    set_grad(q, [0.1])
    opt.step()
    before = opt.state(), p.data.copy(), q.data.copy()
    set_grad(p, [0.5, bad])
    set_grad(q, [0.1])
    with pytest.raises(FloatingPointError, match=r"step 2.*'?w'?"):
        opt.step()
    after = opt.state()
    assert after["t"] == before[0]["t"] == 1
    for k in ("m", "v"):
        for name in after[k]:
            assert np.array_equal(after[k][name], before[0][k][name])
    assert np.array_equal(p.data, before[1]) and np.array_equal(q.data, before[2])
