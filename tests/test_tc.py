"""Classifier behavior: token/soft path equivalence, batched against per-row
results under padding, ranking determinism, head permutation symmetry, and a
separable learning task."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt.autodiff import Tensor
from difftt.mt import TrainConfig
from difftt.tc import Prediction, TcConfig, TcModel, rank_labels, train_tc

from conftest import micro_tc, micro_vocab


@pytest.fixture
def model(vocab):
    return micro_tc(vocab)


def onehot_rows(ids, v):
    out = np.zeros((len(ids), v))
    out[np.arange(len(ids)), ids] = 1.0
    return out


def test_classify_tokens_deterministic(model, vocab):
    ids = vocab.encode(["t1", "t4", "t2"])
    a = model.classify_tokens_batch([ids])[0]
    b = model.classify_tokens_batch([ids])[0]
    assert np.array_equal(a.logits, b.logits)
    assert a.label == b.label


def test_classify_rejects_bad_input(model, vocab):
    with pytest.raises(ValueError, match="empty"):
        model.classify_tokens_batch([[]])
    with pytest.raises(ValueError, match="out of vocabulary"):
        model.classify_tokens_batch([[len(vocab)]])
    # the batch path rejects the same rows
    with pytest.raises(ValueError, match="empty input sequence in row 1"):
        model.classify_tokens_batch([vocab.encode(["t0"]), []])
    for bad in ([len(vocab)], [-1]):
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.classify_tokens_batch([vocab.encode(["t0"]), bad])


def test_empty_batch_rejected_by_name(model, vocab):
    with pytest.raises(ValueError, match="empty batch"):
        model.classify_tokens_batch([])
    with pytest.raises(ValueError, match="empty batch"):
        model.classify_soft_values([np.zeros((0, 3, len(vocab)))], np.zeros(0, dtype=int))


def embedded_block(model, n, m):
    """A block of ``n`` rows of ``m`` >= 2 steps as ``expected_embeddings``
    makes it: (n, m, d) embeddings."""
    return np.full((n, m, model.config.d_model), 0.5)


@pytest.mark.parametrize("embedded", [False, True])
def test_soft_lengths_outside_their_blocks_steps_rejected_by_row(model, vocab, embedded):
    # a length past its block's step count would read steps that were never
    # written, and a length of 0 is an empty row, which the token path rejects;
    # the blocks are either written as embeddings or made by
    # ``expected_embeddings`` from step distributions
    def block(n, m, lengths):
        if embedded:
            return embedded_block(model, n, m)
        v = len(vocab)
        return model.expected_embeddings(np.full((n, m, v), 1.0 / v), np.asarray(lengths))

    for lengths, message in (([3, 5], "row 1: length 5 is outside [1, 3]"),
                             ([3, 6], "row 1: length 6 is outside [1, 3]"),
                             ([0, 2], "row 0: length 0 is outside [1, 3]")):
        with pytest.raises(ValueError, match=re.escape(message)):
            model.classify_soft_values([block(2, 3, lengths)], np.asarray(lengths))
    # the step count is that of the row's own block, not the batch's
    with pytest.raises(ValueError, match=re.escape("row 2: length 3 is outside [1, 2]")):
        model.classify_soft_values([block(2, 3, [3, 3]), block(1, 2, [3])],
                                   np.asarray([3, 3, 3]))
    assert len(model.classify_soft_values([block(2, 3, [3, 1]), block(1, 2, [2])],
                                          np.asarray([3, 1, 2]))) == 3


def test_soft_blocks_of_the_wrong_width_rejected_by_name(model, vocab):
    # a block of m >= 2 steps holds embeddings (width d), a 1-step block
    # holds distributions (width V); either other width is named
    d, v = model.config.d_model, len(vocab)
    distributions = np.full((2, 3, v), 1.0 / v)
    with pytest.raises(ValueError, match=re.escape(f"block 0 (3-step) has width {v}, not {d}")):
        model.classify_soft_values([distributions], np.asarray([3, 2]))
    one_step = np.full((1, 1, d), 0.5)
    with pytest.raises(ValueError, match=re.escape(f"block 1 (1-step) has width {d}, not {v}")):
        model.classify_soft_values([embedded_block(model, 2, 3), one_step],
                                   np.asarray([3, 2, 1]))


@pytest.mark.parametrize("overrides,match", [
    ({"n_classes": 0}, "n_classes=0: must be >= 1"),
    ({"max_len": 1}, "max_len=1: must be >= 2"),
    ({"n_layers": -1}, "n_layers=-1: must be >= 0"),
    ({"n_heads": 0}, "n_heads=0: must be >= 1"),
    ({"n_heads": 3}, "d_model=64: must be divisible by n_heads=3"),
])
def test_tc_config_out_of_range_rejected(overrides, match):
    with pytest.raises(ValueError, match=f"TcConfig.{match}"):
        TcConfig(**overrides)
    assert TcConfig(n_classes=1, max_len=2, n_layers=0).max_len == 2


def test_one_hot_soft_equals_token_path_bitwise(model, vocab, rng):
    v = len(vocab)
    for _ in range(50):
        n = int(rng.integers(1, model.config.max_len))
        ids = [int(i) for i in rng.integers(5, v, size=n)]
        hard = model.classify_tokens_batch([ids])[0]
        lengths = np.asarray([n])
        soft = model.classify_soft_values(
            [model.expected_embeddings(onehot_rows(ids, v)[None], lengths)], lengths)[0]
        assert np.array_equal(hard.logits, soft.logits)
        assert hard.label == soft.label


def test_over_long_soft_input_raises(model, vocab, rng):
    # the token path cuts an over-long sequence to max_len - 1 tokens; a soft
    # input is never cut, so one that does not fit after CLS is an error
    v = len(vocab)
    ids = [int(i) for i in rng.integers(5, v, size=model.config.max_len + 3)]
    hard = model.classify_tokens_batch([ids])[0]
    cut = ids[: model.config.max_len - 1]
    lengths = np.asarray([len(cut)])
    soft = model.classify_soft_values(
        [model.expected_embeddings(onehot_rows(cut, v)[None], lengths)], lengths)[0]
    assert np.array_equal(hard.logits, soft.logits)
    longer = onehot_rows(ids[: model.config.max_len], v)[None]
    with pytest.raises(ValueError, match="exceeds max_len"):
        model.logits_soft(Tensor(longer), np.asarray([model.config.max_len]))


def soft_logits_and_grads(model, probs, lengths, weights):
    """Logits of ``logits_soft`` and the gradients of sum(weights * logits)
    into the probabilities and the embedding matrix."""
    model.store.zero_grad()
    p = Tensor(probs, requires_grad=True)
    logits = model.logits_soft(p, lengths)
    ad.sum_all(ad.mul(logits, Tensor(weights))).backward()
    return logits.data, p.grad, model.emb.grad


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(1, 6), st.booleans())
def test_padded_logits_soft_matches_per_row_with_gradients(seed, model_seed, b, multi_label):
    # padding changes summation order, so equality is only to rounding
    vocab = micro_vocab()
    model = micro_tc(vocab, seed=model_seed, multi_label=multi_label)
    rng = np.random.default_rng(seed)
    v, c = len(vocab), model.config.n_classes
    lengths = rng.integers(1, model.config.max_len, size=b)
    probs = rng.random((b, int(lengths.max()), v)) ** 4
    probs /= probs.sum(axis=-1, keepdims=True)
    for i, n in enumerate(lengths):
        probs[i, n:] = onehot_rows([vocab.pad_id] * (probs.shape[1] - n), v)
    weights = rng.normal(size=(b, c))
    logits, p_grad, e_grad = soft_logits_and_grads(model, probs, lengths, weights)
    # the gradient-free evaluation path is the same pass
    evaluated = model.classify_soft_values([model.expected_embeddings(probs, lengths)], lengths)
    for pred, row in zip(evaluated, logits):
        assert np.array_equal(pred.logits, row)
    e_grad_rows = np.zeros_like(e_grad)
    for i, n in enumerate(lengths):
        row, row_p_grad, row_e_grad = soft_logits_and_grads(
            model, probs[i:i + 1, :n], lengths[i:i + 1], weights[i:i + 1])
        assert np.allclose(logits[i], row[0], rtol=0, atol=1e-12)
        assert np.allclose(p_grad[i, :n], row_p_grad[0], rtol=0, atol=1e-12)
        assert np.allclose(p_grad[i, n:], 0.0, rtol=0, atol=1e-12)
        e_grad_rows += row_e_grad
    assert np.allclose(e_grad, e_grad_rows, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(1, 8))
def test_batched_token_path_matches_single(seed, model_seed, b):
    # lengths reach past max_len - 1, so the cut is exercised too; padding
    # changes summation order, so equality is only to rounding
    vocab = micro_vocab()
    model = micro_tc(vocab, seed=model_seed)
    rng = np.random.default_rng(seed)
    seqs = [[int(i) for i in rng.integers(5, len(vocab), size=int(n))]
            for n in rng.integers(1, model.config.max_len + 3, size=b)]
    for s, got in zip(seqs, model.classify_tokens_batch(seqs)):
        assert np.allclose(got.logits, model.classify_tokens_batch([s])[0].logits,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("multi_label,n_classes", [(False, 3), (False, 17), (True, 5)])
def test_batch_predictions_equal_per_row_reference(vocab, rng, multi_label, n_classes):
    # the per-row computation the batch arrays replaced, as a bitwise reference
    model = micro_tc(vocab, multi_label=multi_label, n_classes=n_classes)
    logits = rng.normal(scale=3.0, size=(40, n_classes))
    logits[0] = logits[0, 0]  # an all-tie row
    for row, got in zip(logits, model._predictions(logits)):
        if multi_label:
            scores, label = ad.sigmoid_values(row), None
        else:
            e = np.exp(row - row.max())
            scores, label = e / e.sum(), int(np.argmax(row))
        assert got.label == label
        assert np.array_equal(got.logits, row)
        assert scores.tobytes() == got.scores.tobytes()
        assert np.array_equal(got.ranked, np.argsort(-scores, kind="stable"))


def test_predictions_are_row_views_of_their_batch(model, vocab):
    preds = model.classify_tokens_batch([vocab.encode(["t0"]), vocab.encode(["t1", "t2"])])
    assert not hasattr(preds[0], "__dict__")  # a label, a row index, one shared batch
    for name in ("logits", "scores", "ranked"):
        first, second = getattr(preds[0], name), getattr(preds[1], name)
        assert first.shape == (3,) and first.base is not None
        assert first.base is second.base


def test_rank_labels_ties_lowest_index():
    assert list(rank_labels(np.asarray([0.5, 0.5, 0.1]))) == [0, 1, 2]
    assert list(rank_labels(np.asarray([0.1, 0.9, 0.9]))) == [1, 2, 0]


def test_multi_label_prediction_scores(vocab):
    model = micro_tc(vocab, multi_label=True, n_classes=4)
    pred = model.classify_tokens_batch([vocab.encode(["t0", "t1"])])[0]
    assert pred.label is None
    assert pred.scores.shape == (4,)
    assert np.all((pred.scores > 0) & (pred.scores < 1))


def test_head_row_permutation_permutes_logits(model, vocab):
    ids = vocab.encode(["t2", "t3"])
    base = model.classify_tokens_batch([ids])[0].logits
    perm = np.asarray([2, 0, 1])
    model.head[0].tensor.data = model.head[0].data[:, perm]
    model.head[1].tensor.data = model.head[1].data[perm]
    permuted = model.classify_tokens_batch([ids])[0].logits
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_label_targets(vocab):
    multi_label, multi_class = micro_tc(vocab, multi_label=True), micro_tc(vocab)
    mat = multi_label.targets([[0, 2], [], [1]])
    assert np.array_equal(mat, [[1, 0, 1], [0, 0, 0], [0, 1, 0]])
    assert np.array_equal(multi_class.targets([2, 0]), [2, 0])
    for model, labels in ((multi_label, [[3]]), (multi_label, [[-1]]),
                          (multi_class, [3]), (multi_class, [-1])):
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
            model.targets(labels)


def test_separable_task_learnable(vocab):
    # class c marked by token t{c}; everything else is noise
    rng = np.random.default_rng(2)
    pool = [f"t{i}" for i in range(3, 15)]
    data = []
    for i in range(600):
        c = i % 3
        n = int(rng.integers(3, 7))
        sent = [pool[int(j)] for j in rng.integers(len(pool), size=n)]
        sent.insert(int(rng.integers(n + 1)), f"t{c}")
        data.append((sent, c))
    train, dev = data[:500], data[500:]
    model = TcModel(vocab, TcConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                                    max_len=10, n_classes=3), seed=0)
    result = train_tc(model, train, dev,
                      TrainConfig(epochs=6, batch_size=16, lr=2e-3,
                                  warmup_steps=20, grad_accum=1, seed=0))
    assert max(result.val_metric) >= 0.99


def test_train_multi_label(vocab):
    rng = np.random.default_rng(3)
    data = []
    for _ in range(200):
        labs = sorted(int(c) for c in range(3) if rng.random() < 0.5)
        sent = [f"t{3 + int(rng.integers(10))}" for _ in range(4)]
        for c in labs:
            sent.insert(int(rng.integers(len(sent) + 1)), f"t{c}")
        data.append((sent, labs))
    usable = [d for d in data if d[1]]
    model = micro_tc(vocab, multi_label=True, max_len=12)
    result = train_tc(model, usable[:150], usable[150:180],
                      TrainConfig(epochs=2, batch_size=16, lr=1e-3,
                                  warmup_steps=0, grad_accum=1, seed=0))
    assert len(result.val_metric) == 2
    assert all(0.0 <= m <= 1.0 for m in result.val_metric)


def test_label_out_of_range_rejected(model, vocab):
    with pytest.raises(ValueError, match="out of range"):
        train_tc(model, [(["t0"], 7)], [(["t0"], 0)],
                 TrainConfig(epochs=1, batch_size=1, grad_accum=1))


def test_save_load_roundtrip(model, vocab, tmp_path):
    model.save(tmp_path / "tc.npz")
    clone = TcModel.load(tmp_path / "tc.npz", vocab)
    assert clone.config == model.config
    ids = vocab.encode(["t0", "t1"])
    assert np.array_equal(clone.classify_tokens_batch([ids])[0].logits,
                          model.classify_tokens_batch([ids])[0].logits)
