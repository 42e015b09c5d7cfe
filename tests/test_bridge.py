"""Expected-embedding bridge: exact algebraic properties of p @ E."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt.autodiff import ShapeError, Tensor
from difftt.bridge import expected_embedding

from conftest import micro_tc, micro_vocab


def random_simplex(rng, shape):
    x = rng.random(shape) + 1e-9
    return x / x.sum(axis=-1, keepdims=True)


def test_one_hot_recovers_exact_row(rng):
    v, d = 11, 6
    emb = Tensor(rng.normal(size=(v, d)))
    for i in range(v):
        p = np.zeros(v)
        p[i] = 1.0
        out = expected_embedding(Tensor(p), emb).data
        assert np.array_equal(out, emb.data[i])  # bitwise


def test_uniform_gives_column_mean(rng):
    v, d = 8, 5
    emb = Tensor(rng.normal(size=(v, d)))
    p = np.full(v, 1.0 / v)
    out = expected_embedding(Tensor(p), emb).data
    assert np.allclose(out, emb.data.mean(axis=0), atol=1e-12)


def test_two_token_closed_form():
    emb = Tensor(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
    p = Tensor(np.asarray([0.3, 0.7]))
    out = expected_embedding(p, emb).data
    assert np.allclose(out, [0.3, 0.7], atol=1e-15)


def test_linearity_10000_cases(rng):
    # convex combinations of distributions map to the same combination of outputs
    v, d = 12, 4
    emb = Tensor(rng.normal(size=(v, d)))
    for _ in range(10_000):
        p1 = random_simplex(rng, v)
        p2 = random_simplex(rng, v)
        lam = rng.random()
        mix = lam * p1 + (1 - lam) * p2
        lhs = expected_embedding(Tensor(mix), emb).data
        rhs = lam * expected_embedding(Tensor(p1), emb).data \
            + (1 - lam) * expected_embedding(Tensor(p2), emb).data
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_convex_hull_norm_bound(rng):
    v, d = 9, 7
    emb = Tensor(rng.normal(size=(v, d)))
    max_row_norm = np.linalg.norm(emb.data, axis=1).max()
    for _ in range(500):
        p = random_simplex(rng, v)
        out = expected_embedding(Tensor(p), emb).data
        assert np.linalg.norm(out) <= max_row_norm + 1e-12


def test_off_simplex_rejected(rng):
    emb = Tensor(rng.normal(size=(4, 3)))
    with pytest.raises(ValueError, match="simplex"):
        expected_embedding(Tensor(np.asarray([0.5, 0.5, 0.5, 0.5])), emb)
    with pytest.raises(ValueError, match="simplex"):
        expected_embedding(Tensor(np.asarray([1.5, -0.5, 0.0, 0.0])), emb)
    # NaN fails every comparison, so a check written as "reject if off by more
    # than the tolerance" would let this row through
    p = np.full((2, 4), 0.25)
    p[1, 2] = np.nan
    with pytest.raises(ValueError, match="simplex"):
        expected_embedding(Tensor(p), emb)


def test_shape_mismatch_rejected(rng):
    emb = Tensor(rng.normal(size=(4, 3)))
    with pytest.raises(ShapeError):
        expected_embedding(Tensor(np.ones(5) / 5), emb)


def test_gradients_flow_into_both_inputs(rng):
    v, d = 6, 3
    emb = Tensor(rng.normal(size=(v, d)), requires_grad=True)
    p = Tensor(random_simplex(rng, (2, v)), requires_grad=True)
    out = expected_embedding(p, emb)
    ad.sum_all(out).backward()
    assert p.grad is not None and emb.grad is not None
    # d(sum p@E)/dp = row sums of E, broadcast over steps
    assert np.allclose(p.grad, np.tile(emb.data.sum(axis=1), (2, 1)), atol=1e-12)


def test_logits_soft_bridges_through_classifier_embeddings(rng):
    vocab = micro_vocab()
    tc = micro_tc(vocab)
    v = len(vocab)
    probs = Tensor(random_simplex(rng, (1, 3, v)), requires_grad=True)
    logits = tc.logits_soft(probs, np.asarray([3]))
    # the encoder input is p @ E with E the classifier's own embedding matrix
    body = Tensor(probs.data @ tc.emb.data)
    assert np.array_equal(logits.data, tc._forward_embedded(body, np.asarray([3])).data)
    ad.sum_all(logits).backward()
    assert probs.grad.shape == (1, 3, v)
    assert tc.emb.grad is not None and np.any(tc.emb.grad != 0)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 10_000))
def test_one_hot_property(v, d, seed):
    rng = np.random.default_rng(seed)
    emb = Tensor(rng.normal(size=(v, d)))
    i = int(rng.integers(v))
    p = np.zeros(v)
    p[i] = 1.0
    assert np.array_equal(expected_embedding(Tensor(p), emb).data, emb.data[i])
