"""Finite-difference verification of every autodiff primitive, plus the
algebraic properties the engine promises (simplex softmax, masking, loss
values against closed forms)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt.autodiff import ShapeError, Tensor, no_grad
from difftt.gradcheck import finite_difference_check
from difftt.layers import causal_attention_mask, pad_attention_mask
from difftt.params import Parameter


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x (dense, all coordinates)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_op(build, inputs, tol=1e-7, eps=1e-6):
    """build(tensors) -> output Tensor; checks d(sum w*out)/d(input) for all inputs."""
    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    out = build(*tensors)
    w = np.random.default_rng(42).normal(size=out.data.shape)
    out.backward(w)
    for t, x in zip(tensors, inputs):
        def scalar():
            with no_grad():
                return float((build(*tensors).data * w).sum())
        num = numeric_grad(scalar, t.data, eps=eps)
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        assert np.allclose(analytic, num, rtol=tol, atol=tol), \
            f"gradient mismatch: max abs diff {np.abs(analytic - num).max():.3g}"


CASES = 12  # random shapes per op; each case checks every coordinate


def shapes(rng, broadcastable=False):
    a = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
    if not broadcastable:
        return a, a
    b = tuple(1 if rng.random() < 0.3 else d for d in a)
    return a, b


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
def test_binary_ops(op, rng):
    for _ in range(CASES):
        sa, sb = shapes(rng, broadcastable=True)
        check_op(op, [rng.normal(size=sa), rng.normal(size=sb)])


def test_scale_shift(rng):
    for _ in range(CASES):
        s, _ = shapes(rng)
        c = float(rng.normal())
        offset = rng.normal(size=s)
        check_op(lambda a: ad.scale(a, c), [rng.normal(size=s)])
        check_op(lambda a: ad.shift(a, offset), [rng.normal(size=s)])


def test_matmul(rng):
    for _ in range(CASES):
        m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
        check_op(ad.matmul, [rng.normal(size=(m, k)), rng.normal(size=(k, n))])
        # batched @ 2-D (the bridge's (m, V) @ (V, d) and attention shapes)
        b = int(rng.integers(1, 3))
        check_op(ad.matmul, [rng.normal(size=(b, m, k)), rng.normal(size=(b, k, n))])
        check_op(ad.matmul, [rng.normal(size=(b, m, k)), rng.normal(size=(k, n))])
    # a 1-D operand has no row or column axis to take a gradient along
    for shapes in (((3,), (3, 2)), ((2, 3), (3,))):
        with pytest.raises(ShapeError, match="2 or more dimensions"):
            ad.matmul(*(Tensor(rng.normal(size=s)) for s in shapes))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_affine(rng):
    for _ in range(CASES):
        b, t, i, o = (int(rng.integers(1, 4)) for _ in range(4))
        check_op(ad.affine, [rng.normal(size=(b, t, i)),
                             rng.normal(size=(i, o)), rng.normal(size=(o,))])
    with pytest.raises(ShapeError):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


def test_embedding(rng):
    for _ in range(CASES):
        v, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        ids = rng.integers(v, size=(2, 3))
        check_op(lambda t: ad.embedding(t, ids), [rng.normal(size=(v, d))])
    with pytest.raises(ShapeError):
        ad.embedding(Tensor(np.zeros((3, 2))), np.asarray([3]))


def test_embedding_repeated_ids_accumulate():
    table = Tensor(np.eye(3), requires_grad=True)
    out = ad.embedding(table, np.asarray([1, 1, 1]))
    out.backward(np.ones((3, 3)))
    assert np.array_equal(table.grad[1], [3.0, 3.0, 3.0])
    assert np.array_equal(table.grad[0], [0.0, 0.0, 0.0])


def test_softmax_grad(rng):
    for _ in range(CASES):
        s, _ = shapes(rng)
        temp = float(rng.uniform(0.3, 3.0))
        check_op(lambda a: ad.softmax(a, temperature=temp), [rng.normal(size=s)])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(0.1, 10.0))
def test_softmax_simplex(row, temp):
    p = ad.softmax(Tensor(np.asarray(row)), temperature=temp).data
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(row, c):
    x = np.asarray(row)
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + c)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_rejects_bad_temperature():
    for temperature in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="temperature must be positive"):
            ad.softmax(Tensor(np.zeros(3)), temperature=temperature)


def test_layer_norm(rng):
    for _ in range(CASES):
        b, d = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        check_op(ad.layer_norm, [rng.normal(size=(b, d)),
                                 rng.uniform(0.5, 2.0, size=d), rng.normal(size=d)],
                 tol=1e-5)
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)), Tensor(np.zeros(4)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(-1e4, 1e4))
def test_layer_norm_bitwise_equals_np_var_reference(seed, width, offset):
    # layer_norm centres once; np.var does the same reductions internally
    rng = np.random.default_rng(seed)
    x = offset + rng.normal(size=(3, 2, width)) * rng.uniform(1e-3, 1e3)
    gamma, beta = rng.normal(size=width), rng.normal(size=width)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    reference = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * gamma + beta
    out = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    assert np.array_equal(out, reference)


def unfused_attention(q, k, v, scale, mask):
    """The op chain that ``ad.attention`` fuses."""
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
    if mask is not None:
        scores = ad.shift(scores, mask)
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def attention_case(seed, mask_kind):
    """(q, k, v, mask) arrays in the layouts attention sees: heads split
    from (B, T, H, d) by a transposed view, PAD-masked, causal or unmasked
    keys, and the (B, H, 1, d) query of a cached decode step."""
    rng = np.random.default_rng(seed)
    b, h, d = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
    tk = int(rng.integers(1, 6))
    tq = 1 if mask_kind == "cached" else tk
    ids = rng.integers(0, 3, size=(b, tk))
    ids[:, 0] = 1                        # every row keeps a visible key
    mask = None if mask_kind == "none" else pad_attention_mask(ids, pad_id=0)
    if mask_kind == "causal":
        mask = causal_attention_mask(tk) + mask

    def heads(t):
        return np.transpose(rng.normal(size=(b, t, h, d)), (0, 2, 1, 3))

    return heads(tq), heads(tk), heads(tk), mask


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "pad", "causal", "cached"]),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_attention_bitwise_equals_unfused_chain(seed, mask_kind, needs_grad):
    q, k, v, mask = attention_case(seed, mask_kind)
    scale = 1.0 / np.sqrt(q.shape[-1])
    results = []
    for op in (ad.attention, unfused_attention):
        tensors = [Tensor(x, requires_grad=r) for x, r in zip((q, k, v), needs_grad)]
        out = op(*tensors, scale, mask)
        if out.requires_grad:
            out.backward(np.random.default_rng(seed).normal(size=out.shape))
        results.append([out.data] + [t.grad for t in tensors])
    fused, chain = results
    assert np.array_equal(fused[0], chain[0])
    for r, gf, gc in zip(needs_grad, fused[1:], chain[1:]):
        assert (gf is None) == (gc is None) == (not r)
        assert gf is None or np.array_equal(gf, gc)


@pytest.mark.parametrize("mask_kind", ["none", "pad", "causal", "cached"])
def test_attention_gradcheck(mask_kind):
    q, k, v, mask = attention_case(11, mask_kind)
    params = [Parameter(name, np.ascontiguousarray(x)) for name, x in zip("qkv", (q, k, v))]
    w = np.random.default_rng(3).normal(size=q.shape)

    def loss():
        out = ad.attention(*(p.tensor for p in params), 0.7, mask)
        return ad.sum_all(ad.mul(out, Tensor(w)))

    assert finite_difference_check(loss, params, n_coords=60) < 1e-6


def test_attention_shape_error():
    with pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros((1, 1, 2, 3))), Tensor(np.zeros((1, 1, 2, 4))),
                     Tensor(np.zeros((1, 1, 2, 3))), 1.0)


def test_relu_gelu(rng):
    for _ in range(CASES):
        s, _ = shapes(rng)
        x = rng.normal(size=s) + 0.05  # keep away from the relu kink
        check_op(ad.relu, [x])
        check_op(ad.gelu, [rng.normal(size=s)], tol=1e-6)


GELU_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308,
              -2.2e-308, 1e-10, -1e-10, 0.5, -0.5, 6.0, -6.0, 26.0, -26.0, 1e300, -1e300]


@pytest.mark.parametrize("on_tape", [False, True])
def test_gelu_equals_the_signed_erf_form_bitwise(rng, on_tape):
    # gelu takes erf of |x| and puts x's sign back; the cdf, and so the output
    # and the gradient, keep the bits of 0.5 * (1.0 + erf(x * (1 / sqrt(2)))),
    # NaN's sign included
    x = np.concatenate([np.array(GELU_EDGES), rng.normal(size=2000) * 4.0,
                        rng.standard_cauchy(size=2000)])
    with np.errstate(invalid="ignore", over="ignore"):  # x * x at 1e300, inf * 0
        cdf = 0.5 * (1.0 + ad.erf(x * (1.0 / math.sqrt(2.0))))
        pdf = 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x)
        t = Tensor(x, requires_grad=on_tape)
        out = ad.gelu(t)
        assert out.data.tobytes() == (x * cdf).tobytes()
        if on_tape:
            ad.sum_all(out).backward()
            assert t.grad.tobytes() == (np.ones_like(x) * (cdf + x * pdf)).tobytes()


def test_masked_mean_pool(rng):
    for _ in range(CASES):
        b, t, d = (int(rng.integers(1, 4)) for _ in range(3))
        mask = rng.integers(2, size=(b, t)).astype(float)
        mask[:, 0] = 1.0
        check_op(lambda x: ad.masked_mean_pool(x, mask), [rng.normal(size=(b, t, d))])
    with pytest.raises(ValueError):
        ad.masked_mean_pool(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        ad.masked_mean_pool(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 3)))


def test_concat_reshape_transpose(rng):
    for _ in range(CASES):
        b, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t1, t2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        check_op(lambda a, c: ad.concat([a, c], axis=1),
                 [rng.normal(size=(b, t1, d)), rng.normal(size=(b, t2, d))])
        check_op(lambda a: ad.reshape(a, (b * t1, d)), [rng.normal(size=(b, t1, d))])
        check_op(lambda a: ad.transpose(a, (1, 0, 2)), [rng.normal(size=(b, t1, d))])


def test_dropout_identity_and_scaling(rng):
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    assert ad.dropout(x, 0.0, rng) is x
    out = ad.dropout(x, 0.5, np.random.default_rng(1))
    kept = out.data != 0
    assert np.allclose(out.data[kept], 2.0 * x.data[kept])


def test_sum_mean(rng):
    for _ in range(CASES):
        s, _ = shapes(rng)
        check_op(ad.sum_all, [rng.normal(size=s)])
        check_op(ad.mean_all, [rng.normal(size=s)])


def test_cross_entropy_value_and_grad(rng):
    # closed form for a single position
    logits = np.asarray([[1.0, 2.0, 0.5]])
    want = -(logits[0, 1] - math.log(np.exp(logits[0]).sum()))
    loss = ad.cross_entropy(Tensor(logits), np.asarray([1]))
    assert abs(loss.item() - want) < 1e-12
    for _ in range(CASES):
        b, t, c = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        targets = rng.integers(c, size=(b, t))
        mask = rng.integers(2, size=(b, t)).astype(float)
        mask[:, 0] = 1.0
        check_op(lambda l: ad.cross_entropy(l, targets, mask=mask),
                 [rng.normal(size=(b, t, c))])


def test_cross_entropy_masked_positions_ignored(rng):
    logits = rng.normal(size=(1, 3, 4))
    mask = np.asarray([[1.0, 1.0, 0.0]])
    a = ad.cross_entropy(Tensor(logits), np.asarray([[1, 2, 3]]), mask=mask).item()
    poisoned = np.asarray([[1, 2, 0]])  # masked target changed
    b = ad.cross_entropy(Tensor(logits), poisoned, mask=mask).item()
    assert a == b


def test_cross_entropy_errors():
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros((1, 3))), np.asarray([3]))
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros((1, 2, 3))), np.asarray([[0, 0]]),
                         mask=np.zeros((1, 2)))


def test_binary_cross_entropy(rng):
    # closed form: z=0, t=1 -> log 2
    loss = ad.binary_cross_entropy_per_label(Tensor(np.zeros((1, 1))), np.ones((1, 1)))
    assert abs(loss.item() - math.log(2.0)) < 1e-12
    for _ in range(CASES):
        n, l = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        targets = rng.integers(2, size=(n, l)).astype(float)
        check_op(lambda z: ad.binary_cross_entropy_per_label(z, targets),
                 [rng.normal(size=(n, l))])
    with pytest.raises(ValueError):
        ad.binary_cross_entropy_per_label(Tensor(np.zeros((1, 2))),
                                          np.asarray([[0.5, 1.0]]))


def test_sigmoid_values_stable():
    z = np.asarray([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = ad.sigmoid_values(z)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    assert np.allclose(s + ad.sigmoid_values(-z), 1.0)


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = ad.scale(x, 2.0)
    assert y._backward is None and not y.requires_grad
    y2 = ad.scale(x, 2.0)
    assert y2.requires_grad


def test_backward_releases_op_outputs_and_runs_once():
    x = Tensor(np.arange(3.0), requires_grad=True)
    h = ad.scale(x, 2.0)
    ad.sum_all(ad.mul(h, h)).backward()
    assert np.array_equal(x.grad, 8.0 * x.data)
    assert h.grad is None and h._parents == ()
    # a new graph that reaches a released op output cannot backpropagate
    with pytest.raises(RuntimeError, match="already backpropagated"):
        ad.sum_all(h).backward()
    # a leaf starts graphs as often as it likes, its gradient accumulating
    ad.sum_all(ad.scale(x, 3.0)).backward()
    assert np.array_equal(x.grad, 8.0 * x.data + 3.0)


def test_backward_accumulates_through_shared_node(rng):
    # y = x*x computed via mul sharing the same tensor twice
    x = Tensor(np.asarray(3.0), requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert abs(float(x.grad) - 6.0) < 1e-12
