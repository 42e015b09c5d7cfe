"""Translator behavior: decode contracts, soft/greedy agreement, causality,
the cached decode against a full-prefix recompute, decoding and classifying
in row blocks, the block map's pairs and per-thread grad mode, a learnable
copy task, and checkpoint reload."""

import os
import threading
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt import mt as mt_module
from difftt.autodiff import Tensor, no_grad
from difftt.metrics import corpus_bleu
from difftt.mt import MtConfig, MtModel, TrainConfig, evaluate_bleu, train_mt, _pad_batch
from difftt.tc import TcConfig, TcModel
from difftt.vocab import SPECIALS, Vocabulary

from conftest import cpus, micro_mt, micro_vocab


@pytest.fixture
def model(vocab):
    return micro_mt(vocab)


def test_nonzero_dropout_rejected():
    # the translator applies no dropout, so a nonzero rate would be silently ignored
    with pytest.raises(ValueError, match="dropout"):
        MtConfig(dropout=0.1)
    assert MtConfig(dropout=0.0).dropout == 0.0


@pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
def test_non_positive_temperature_rejected(temperature):
    with pytest.raises(ValueError, match="temperature"):
        MtConfig(temperature=temperature)


@pytest.mark.parametrize("field,value", [("epochs", 0), ("batch_size", 0),
                                         ("grad_accum", 0), ("grad_accum", -2),
                                         ("lr", -1e-3)])
def test_train_config_out_of_range_rejected(field, value):
    with pytest.raises(ValueError, match=f"TrainConfig.{field}={value}"):
        TrainConfig(**{field: value})
    assert TrainConfig(lr=0.0, epochs=1, batch_size=1, grad_accum=1).lr == 0.0


def test_encode_rejects_bad_lengths(model, vocab):
    with pytest.raises(ValueError, match="empty"):
        model.encode(np.zeros((1, 0), dtype=np.int64))
    with pytest.raises(ValueError, match="exceeds"):
        model.encode(np.zeros((1, 99), dtype=np.int64))


def test_greedy_decode_deterministic(model, vocab):
    src = vocab.encode(["t2", "t5", "t1"])
    a = model.greedy_decode_batch(np.asarray([src]))[0]
    b = model.greedy_decode_batch(np.asarray([src]))[0]
    assert np.array_equal(a, b)
    assert 1 <= len(a) <= model.config.max_decode_len


def test_greedy_decode_stops_at_eos_or_budget(model, vocab, rng):
    for _ in range(20):
        n = int(rng.integers(1, model.config.max_source_len + 1))
        src = [int(i) for i in rng.integers(5, len(vocab), size=n)]
        out = model.greedy_decode_batch(np.asarray([src]))[0]
        if vocab.eos_id in out:
            assert out[-1] == vocab.eos_id
            assert vocab.eos_id not in out[:-1]
        else:
            assert len(out) == model.config.max_decode_len


def test_argmax_ties_break_to_lowest_index(vocab):
    # identical logits everywhere (zeroed output projection) -> always token 0
    model = micro_mt(vocab)
    model.out_proj[0].tensor.data[:] = 0.0
    model.out_proj[1].tensor.data[:] = 0.0
    out = model.greedy_decode_batch(np.asarray([vocab.encode(["t0", "t1"])]))[0]
    assert out[0] == 0


def test_soft_decode_matches_greedy_decode(model, vocab, rng):
    for _ in range(10):
        n = int(rng.integers(1, model.config.max_source_len + 1))
        src = [int(i) for i in rng.integers(5, len(vocab), size=n)]
        st = model.soft_decode(src)
        hard = model.greedy_decode_batch(np.asarray([src]))[0]
        assert np.array_equal(st.tokens, hard)
        assert st.probs.data.shape == (len(hard), len(vocab))
        # each soft row's argmax is the greedy token
        assert np.array_equal(st.probs.data.argmax(axis=-1), hard)
        # simplex rows
        assert np.allclose(st.probs.data.sum(axis=-1), 1.0, atol=1e-12)


def test_soft_decode_carries_gradient(model, vocab):
    st = model.soft_decode(vocab.encode(["t0", "t3"]))
    loss = ad.sum_all(ad.mul(st.probs, st.probs))
    loss.backward()
    assert model.emb.grad is not None
    assert model.out_proj[0].grad is not None


def test_soft_decode_encodes_once(model, vocab, monkeypatch):
    # the greedy decode reads the memory encoded on the tape
    calls = []
    encode = model.encode
    monkeypatch.setattr(model, "encode", lambda src: calls.append(src) or encode(src))
    model.soft_decode(vocab.encode(["t0", "t3", "t5"]))
    assert len(calls) == 1
    # so do the verifying passes of a draft
    model.soft_decode(vocab.encode(["t0", "t3", "t5"]), draft=[5, 6, 7])
    assert len(calls) == 2


def test_decoder_causality_exact(model, vocab):
    # changing a later decoder input must not change earlier step logits at all
    src = np.asarray([vocab.encode(["t1", "t2"])])
    with no_grad():
        memory, cm = model.encode(src)
        a = model.decode_logits(memory, cm, np.asarray([[vocab.bos_id, 5, 6]])).data
        b = model.decode_logits(memory, cm, np.asarray([[vocab.bos_id, 5, 9]])).data
    assert np.array_equal(a[:, :2, :], b[:, :2, :])
    assert not np.array_equal(a[:, 2, :], b[:, 2, :])


def test_batched_decode_matches_single(model, vocab, rng):
    seqs = []
    for _ in range(6):
        n = int(rng.integers(1, model.config.max_source_len + 1))
        seqs.append([int(i) for i in rng.integers(5, len(vocab), size=n)])
    batched = model.greedy_decode_batch(_pad_batch(seqs, vocab.pad_id))
    for s, got in zip(seqs, batched):
        padded = s + [vocab.pad_id] * (max(len(x) for x in seqs) - len(s))
        single = model.greedy_decode_batch(np.asarray([padded]))[0]
        assert np.array_equal(got, single)


def test_soft_decode_values_pads_with_pad_onehot(model, vocab):
    src = _pad_batch([vocab.encode(["t0"]), vocab.encode(["t1", "t2", "t3"])],
                     vocab.pad_id)
    probs, tokens, lengths = model.soft_decode_values(src)
    assert probs.shape[0] == 2
    for i, t in enumerate(tokens):
        assert lengths[i] == len(t)
        for j in range(len(t), probs.shape[1]):
            row = probs[i, j]
            assert row[vocab.pad_id] == 1.0 and row.sum() == 1.0


def test_copy_task_learnable(vocab):
    # DERIVED oracle: a 2-layer model must master identity translation
    rng = np.random.default_rng(5)
    pool = [f"t{i}" for i in range(15)]
    pairs = []
    seen = set()
    while len(pairs) < 400:
        n = int(rng.integers(2, 5))
        s = [pool[int(i)] for i in rng.integers(len(pool), size=n)]
        key = " ".join(s)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((s, list(s)))
    train, dev = pairs[:360], pairs[360:]
    model = MtModel(vocab, MtConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                                    max_source_len=6, max_decode_len=6), seed=0)
    result = train_mt(model, train, dev,
                      TrainConfig(epochs=8, batch_size=16, lr=2e-3,
                                  warmup_steps=20, grad_accum=1, seed=0))
    assert max(result.val_bleu) >= 0.99
    src = [vocab.encode(s)[:6] for s, _ in dev]
    assert evaluate_bleu(model, src, [t for _, t in dev]) >= 0.99


def test_train_checkpoints_and_best_restore(vocab, tmp_path):
    pairs = [(["t0", "t1"], ["t0", "t1"]), (["t2"], ["t2"]), (["t3", "t4"], ["t3", "t4"])]
    model = micro_mt(vocab)
    result = train_mt(model, pairs, pairs,
                      TrainConfig(epochs=3, batch_size=2, lr=1e-3,
                                  warmup_steps=0, grad_accum=1),
                      checkpoint_dir=tmp_path)
    assert len(result.checkpoint_paths) == 3
    assert 0 <= result.best_epoch < 3
    # the kept weights are the best epoch's checkpoint
    best = MtModel.load(result.checkpoint_paths[result.best_epoch], vocab)
    for name in model.store.names():
        assert np.array_equal(model.store[name].data, best.store[name].data)


def test_empty_corpus_rejected(model):
    with pytest.raises(ValueError, match="empty"):
        train_mt(model, [], [], TrainConfig())


def test_save_load_roundtrip(model, vocab, tmp_path):
    model.save(tmp_path / "mt.npz", extra={"note": 1})
    clone = MtModel.load(tmp_path / "mt.npz", vocab)
    assert clone.config == model.config
    for name in model.store.names():
        assert np.array_equal(clone.store[name].data, model.store[name].data)
    src = vocab.encode(["t0", "t1"])
    assert np.array_equal(clone.greedy_decode_batch(np.asarray([src]))[0],
                          model.greedy_decode_batch(np.asarray([src]))[0])


# ---------------------------------------------------------------------------
# cached incremental decoding against a full-prefix recompute
# ---------------------------------------------------------------------------

PROP_VOCAB = micro_vocab(30)
PROP_CONFIG = MtConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                       max_source_len=8, max_decode_len=8)
# untrained models; seeds 1, 3 and 4 emit PAD mid-sequence on some random sources
PROP_MODELS = {seed: MtModel(PROP_VOCAB, PROP_CONFIG, seed=seed) for seed in range(6)}

sources = st.lists(st.lists(st.integers(5, len(PROP_VOCAB) - 1), min_size=1,
                            max_size=PROP_CONFIG.max_source_len),
                   min_size=1, max_size=6)


def full_prefix_decode(model, src):
    """Greedy decode without a cache: every step reruns the whole prefix."""
    vocab = model.vocab
    with no_grad():
        memory, cross_mask = model.encode(src)
        prefix = np.full((len(src), 1), vocab.bos_id, dtype=np.int64)
        finished = np.zeros(len(src), dtype=bool)
        steps = []
        for _ in range(model.config.max_decode_len):
            last = model.decode_logits(memory, cross_mask, prefix).data[:, -1]
            step = ad.softmax(Tensor(last), temperature=model.config.temperature).data.argmax(-1)
            steps.append(step)
            finished |= step == vocab.eos_id
            if finished.all():
                break
            prefix = np.concatenate([prefix, np.where(finished, vocab.pad_id, step)[:, None]],
                                    axis=1)
    out = []
    for row in np.stack(steps, axis=1):
        eos = np.flatnonzero(row == vocab.eos_id)
        out.append(row[:eos[0] + 1] if eos.size else row)
    return out


def teacher_forced_probs(model, src, tokens):
    """Step distributions recomputed in one teacher-forced pass, (B, M, V)."""
    vocab = model.vocab
    dec_in = _pad_batch([[vocab.bos_id] + list(t[:-1]) for t in tokens], vocab.pad_id)
    with no_grad():
        memory, cross_mask = model.encode(src)
        logits = model.decode_logits(memory, cross_mask, dec_in)
        return ad.softmax(logits, temperature=model.config.temperature).data


@pytest.mark.parametrize("seed", sorted(PROP_MODELS))
@settings(max_examples=15, deadline=None)
@given(seqs=sources)
def test_cached_decode_matches_full_prefix_recompute(seed, seqs):
    model = PROP_MODELS[seed]
    vocab = model.vocab
    src = _pad_batch(seqs, vocab.pad_id)
    probs, tokens, lengths = model.soft_decode_values(src)
    want = full_prefix_decode(model, src)
    assert [t.tolist() for t in tokens] == [t.tolist() for t in want]
    assert lengths.tolist() == [len(t) for t in tokens]
    assert np.array_equal(model.greedy_decode_batch(src)[0], tokens[0])
    forced = teacher_forced_probs(model, src, tokens)
    for i, n in enumerate(lengths):
        rows = probs[i, :n]
        assert np.allclose(rows, forced[i, :n], rtol=0.0, atol=1e-12)
        assert np.all(rows >= 0.0) and np.allclose(rows.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert np.array_equal(rows.argmax(axis=-1), tokens[i])
        assert np.all(probs[i, n:] == np.eye(len(vocab))[vocab.pad_id])


@pytest.mark.parametrize("seed", sorted(PROP_MODELS))
@settings(max_examples=10, deadline=None)
@given(seqs=sources)
def test_batched_decode_equals_per_sample_decode(seed, seqs):
    model = PROP_MODELS[seed]
    probs, tokens, lengths = model.soft_decode_values(_pad_batch(seqs, model.vocab.pad_id))
    for i, s in enumerate(seqs):
        p1, t1, n1 = model.soft_decode_values(np.asarray([s]))
        assert np.array_equal(t1[0], tokens[i])
        assert np.allclose(p1[0, :n1[0]], probs[i, :lengths[i]], rtol=0.0, atol=1e-12)


def test_property_models_emit_pad_mid_sequence():
    # the properties above cover rows that feed an emitted PAD back as a key
    rng = np.random.default_rng(0)
    src = rng.integers(5, len(PROP_VOCAB), size=(50, PROP_CONFIG.max_source_len))
    emitted = [seed for seed, model in PROP_MODELS.items()
               if any(PROP_VOCAB.pad_id in t[:-1] for t in model.greedy_decode_batch(src))]
    assert emitted
    decoded = PROP_MODELS[emitted[0]].greedy_decode_batch(src)
    assert [t.tolist() for t in decoded] == \
        [t.tolist() for t in full_prefix_decode(PROP_MODELS[emitted[0]], src)]


def test_cached_step_rejects_misuse(model, vocab):
    from difftt.mt import DecodeCache
    with no_grad():
        memory, cross_mask = model.encode(np.asarray([vocab.encode(["t0"])]))
    cache = DecodeCache(model.config.n_layers)
    with pytest.raises(ValueError, match="one token column"):
        with no_grad():
            model.decode_logits(memory, cross_mask, np.asarray([[vocab.bos_id, 5]]), cache)
    with pytest.raises(RuntimeError, match="no_grad"):
        model.decode_logits(memory, cross_mask, np.asarray([[vocab.bos_id]]), cache)


# ---------------------------------------------------------------------------
# soft decoding from a draft
# ---------------------------------------------------------------------------

DRAFT_KINDS = ["greedy", "random", "single", "budget_no_eos"]


def draw_draft(data, model, src, kind):
    """A draft of the given kind for ``src``: its greedy decode, random
    tokens, one random token, or a full-budget draft without EOS."""
    v, budget = len(model.vocab), model.config.max_decode_len
    if kind == "greedy":
        return model.greedy_decode_batch(np.asarray([src]))[0]
    if kind == "random":
        return data.draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=budget))
    if kind == "single":
        return [data.draw(st.integers(0, v - 1))]
    not_eos = st.integers(0, v - 1).filter(lambda t: t != model.vocab.eos_id)
    return data.draw(st.lists(not_eos, min_size=budget, max_size=budget))


def counting_decode_calls(model):
    """Wrap ``model.decode_logits`` to record the rows of each call; undo
    with ``del``."""
    calls = []
    original = model.decode_logits
    model.decode_logits = lambda *args: calls.append(len(args[2])) or original(*args)
    return calls


@pytest.mark.parametrize("seed", sorted(PROP_MODELS))
@settings(max_examples=25, deadline=None)
@given(src=st.lists(st.integers(5, len(PROP_VOCAB) - 1), min_size=1,
                    max_size=PROP_CONFIG.max_source_len),
       kind=st.sampled_from(DRAFT_KINDS), data=st.data())
def test_soft_decode_from_a_draft_reaches_the_greedy_fixed_point(seed, src, kind, data):
    model = PROP_MODELS[seed]
    draft = draw_draft(data, model, src, kind)
    reference = model.soft_decode(src)
    calls = counting_decode_calls(model)
    try:
        got = model.soft_decode(src, draft=draft)
    finally:
        del model.decode_logits
    assert np.array_equal(got.tokens, model.greedy_decode_batch(np.asarray([src]))[0])
    assert np.array_equal(got.tokens, reference.tokens)
    assert got.probs.data.shape == reference.probs.data.shape
    assert np.array_equal(got.probs.data, reference.probs.data)
    assert np.array_equal(got.probs.data.argmax(axis=-1), got.tokens)
    assert len(calls) <= len(got.tokens) + 2
    if kind == "greedy":
        assert len(calls) == 1


def test_soft_decode_rejects_malformed_drafts(model, vocab):
    src = vocab.encode(["t0", "t3"])
    budget = model.config.max_decode_len
    for draft, match in [([], "non-empty"), ([[5, 6]], "non-empty"),
                         ([5, len(vocab)], "outside the vocabulary"),
                         ([-1], "outside the vocabulary"), ([5.0], "integers"),
                         ([5] * (budget + 1), "exceeds max_decode_len")]:
        with pytest.raises(ValueError, match=match):
            model.soft_decode(src, draft=draft)


# ---------------------------------------------------------------------------
# config ranges, empty batches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overrides,match", [
    ({"n_heads": 3}, "d_model=64: must be divisible by n_heads=3"),
    ({"n_heads": 0}, "n_heads=0: must be >= 1"),
    ({"max_source_len": 0}, "max_source_len=0: must be >= 1"),
    ({"max_decode_len": 0}, "max_decode_len=0: must be >= 1"),
])
def test_mt_config_out_of_range_rejected(overrides, match):
    with pytest.raises(ValueError, match=f"MtConfig.{match}"):
        MtConfig(**overrides)


def test_empty_batch_rejected_by_name(model):
    with pytest.raises(ValueError, match="empty batch"):
        _pad_batch([], model.vocab.pad_id)
    for src in (np.zeros((0, 3), dtype=np.int64), []):
        with pytest.raises(ValueError, match="empty batch"):
            model.greedy_decode_batch(src)
        with pytest.raises(ValueError, match="empty batch"):
            model.soft_decode_values(src)


# ---------------------------------------------------------------------------
# decoding and classifying in row blocks
# ---------------------------------------------------------------------------

PROP_TC = TcModel(PROP_VOCAB, TcConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                                       max_len=PROP_CONFIG.max_decode_len + 2, n_classes=3),
                  seed=2)


def blocked_outputs(model, seqs, block_rows):
    """Tokens, lengths and probs of a soft decode, then soft-path logits over
    the decode's blocks and token-path logits over the sources, with
    ``block_rows`` rows per block."""
    src = _pad_batch(seqs, model.vocab.pad_id)
    with patch.object(mt_module, "BLOCK_ROWS", block_rows):
        probs, tokens, lengths = model.soft_decode_values(src)
        decoded = model.greedy_decode_batch(src, keep=PROP_TC.expected_embeddings)
        assert len(decoded.blocks) == -(-len(seqs) // block_rows)
        soft = PROP_TC.classify_soft_values(decoded.blocks, decoded.lengths)
        hard = PROP_TC.classify_tokens_batch(seqs)
    return (tokens, lengths, probs, np.stack([p.logits for p in soft]),
            np.stack([p.logits for p in hard]))


@pytest.mark.parametrize("seed", sorted(PROP_MODELS))
@settings(max_examples=15, deadline=None)
@given(seqs=st.lists(st.lists(st.integers(5, len(PROP_VOCAB) - 1), min_size=1,
                              max_size=PROP_CONFIG.max_source_len),
                     min_size=1, max_size=10))
def test_blocked_runs_equal_one_block_bitwise(seed, seqs):
    # 1-10 ragged rows in blocks of 3: below, at and across the block size
    tokens, lengths, probs, soft, hard = blocked_outputs(PROP_MODELS[seed], seqs, 3)
    want = blocked_outputs(PROP_MODELS[seed], seqs, len(seqs))
    assert [t.tolist() for t in tokens] == [t.tolist() for t in want[0]]
    assert np.array_equal(lengths, want[1])
    assert probs.shape == want[2].shape
    for got, ref in zip((probs, soft, hard), want[2:]):
        assert got.tobytes() == ref.tobytes()


def decode_work_per_call(model, src, block_rows):
    """The rows each ``decode_logits`` call of a greedy decode receives, and
    the decode."""
    rows = counting_decode_calls(model)
    try:
        with patch.object(mt_module, "BLOCK_ROWS", block_rows):
            decoded = model.greedy_decode_batch(src)
    finally:
        del model.decode_logits
    return rows, decoded


def test_a_runaway_row_costs_only_its_block():
    # an untrained property model: some rows emit EOS early, some never do
    model = PROP_MODELS[4]
    budget = model.config.max_decode_len
    rng = np.random.default_rng(0)
    pool = rng.integers(5, len(PROP_VOCAB), size=(200, 4))
    lengths = model.greedy_decode_batch(pool).lengths
    early = pool[lengths <= budget // 2][:3]
    runaway = pool[lengths == budget][:1]
    others = pool[lengths < budget][3:5]
    assert len(early) == 3 and len(runaway) == 1 and len(others) == 2
    src = np.concatenate([early, runaway, others])

    rows, decoded = decode_work_per_call(model, src, 3)
    early_steps = int(decoded.lengths[:3].max())
    # the first block stops at its own last EOS, the second runs the budget
    assert rows == [3] * early_steps + [3] * budget
    assert early_steps <= budget // 2
    # one block pays the runaway row's budget for every row
    one_rows, one_decoded = decode_work_per_call(model, src, len(src))
    assert one_rows == [6] * budget
    assert [t.tolist() for t in decoded] == [t.tolist() for t in one_decoded]


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_bounded_by_the_block(vocab, monkeypatch):
    # long sources and wide layers: a block's activations outweigh the outputs
    big = MtModel(vocab, MtConfig(d_model=32, n_layers=1, n_heads=4, d_ff=256,
                                  max_source_len=32, max_decode_len=4), seed=0)
    tc = TcModel(vocab, TcConfig(d_model=32, n_layers=1, n_heads=4, d_ff=256, max_len=33),
                 seed=0)
    monkeypatch.setattr(mt_module, "BLOCK_ROWS", 4)
    src = np.random.default_rng(0).integers(5, len(vocab), size=(8 * 4, 32))

    def run(n):
        decoded = big.greedy_decode_batch(src[:n], keep=tc.expected_embeddings)
        tc.classify_soft_values(decoded.blocks, decoded.lengths)
        tc.classify_tokens_batch([list(s) for s in src[:n]])

    run(4)  # warm up caches that live past the call
    with cpus(1):  # one block at a time
        one_block = traced_peak(lambda: run(4))
        eight_blocks = traced_peak(lambda: run(32))
    assert eight_blocks < 2 * one_block, (eight_blocks, one_block)
    with cpus(2):  # in pairs (map_blocks): two blocks in flight
        paired = traced_peak(lambda: run(32))
    assert paired < 3 * one_block, (paired, one_block)


# ---------------------------------------------------------------------------
# the block map: pairs on a helper thread, per-thread grad mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("failing", [[0], [1], [0, 1], [3], [2, 3], [4]])
def test_a_failing_block_raises_as_a_run_in_row_order(failing):
    # five blocks, the second of each pair on the helper and slower there
    started, finished = [], []

    def block(i):
        started.append(i)
        time.sleep(0.05 * (i % 2))
        finished.append(i)
        if i in failing:
            raise ValueError(f"block {i} failed")
        return i

    messages = []
    for n in (1, 2):
        started.clear()
        finished.clear()
        with cpus(n), pytest.raises(ValueError) as info:
            mt_module.map_blocks(block, range(5))
        messages.append(str(info.value))
        # the caller waited for the helper's block, and no later block started
        assert sorted(started) == sorted(finished)
        time.sleep(0.1)
        assert sorted(started) == sorted(finished) and max(started) <= min(failing) + 1
    assert messages == [f"block {min(failing)} failed"] * 2


def test_grad_mode_is_per_thread_and_blocks_record_no_tape():
    x = Tensor(np.ones(3), requires_grad=True)

    def recorded() -> bool:
        return ad.grad_enabled() and ad.scale(x, 2.0).requires_grad

    # no_grad in another thread leaves this one recording
    inside, release, seen = threading.Event(), threading.Event(), []

    def switched_off():
        with no_grad():
            inside.set()
            release.wait(10)
            seen.append(recorded())

    worker = threading.Thread(target=switched_off)
    worker.start()
    assert inside.wait(10)
    assert recorded()
    release.set()
    worker.join()
    assert seen == [False]
    # and no_grad here leaves another thread recording
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append(recorded()))
        worker.start()
        worker.join()
        assert not recorded()
    assert seen == [False, True] and recorded()
    # every block runs off the tape, on this thread or on the helper
    for n in (1, 2):
        with cpus(n):
            runs = mt_module.map_blocks(lambda i: (recorded(), threading.get_ident()), range(4))
        assert [rec for rec, _ in runs] == [False] * 4
        helper = {ident for _, ident in runs} - {threading.get_ident()}
        assert len(helper) == n - 1
        assert recorded()


def test_a_block_that_maps_blocks_returns():
    # a map_blocks call from inside a block, on the helper thread too, does
    # not wait on another call's helper: it returns its results in row order
    results = []

    def nested():
        with cpus(2):
            results.append(mt_module.map_blocks(
                lambda i: mt_module.map_blocks(lambda j: (i, j), range(2)), range(2)))

    worker = threading.Thread(target=nested, daemon=True)
    worker.start()
    worker.join(30)
    assert not worker.is_alive(), "a nested map_blocks call did not return"
    assert results == [[[(0, 0), (0, 1)], [(1, 0), (1, 1)]]]


def test_a_forked_child_starts_its_own_helper():
    # the helper thread does not survive a fork; the child must not wait on it
    with cpus(2):
        assert mt_module.map_blocks(lambda i: i, range(2)) == [0, 1]
    pid = os.fork()
    if pid == 0:  # the child
        code = 1
        try:
            with cpus(2):
                code = 0 if mt_module.map_blocks(lambda i: i, range(4)) == [0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's map_blocks did not return")
