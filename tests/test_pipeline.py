"""Pipeline composition: freezing contract, hard/soft agreement under forced
one-hots, fine-tuning behavior, persistence."""

import json
import re
import tracemalloc
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difftt import autodiff as ad
from difftt import mt as mt_module
from difftt.mt import MtModel, TrainConfig, _pad_batch
from difftt.pipeline import (FreezingPolicy, TranslateTestPipeline,
                             apply_freezing, translate_corpus)
from difftt.vocab import SPECIALS, Vocabulary, VocabularyMismatch

from conftest import cpus, micro_mt, micro_tc, micro_vocab


@pytest.fixture
def pipeline(vocab):
    return TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab),
                                 FreezingPolicy(0.5, 0.5))


def random_inputs(vocab, rng, count, max_len=5):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        out.append([int(i) for i in rng.integers(5, len(vocab), size=n)])
    return out


def test_vocabulary_alignment_enforced(vocab):
    other = Vocabulary(SPECIALS + [f"u{i}" for i in range(15)])
    with pytest.raises(VocabularyMismatch):
        TranslateTestPipeline(micro_mt(vocab), micro_tc(other))


def test_classifier_too_short_for_the_translator_rejected(vocab):
    # every soft translation must fit the classifier after its CLS position
    TranslateTestPipeline(micro_mt(vocab, max_decode_len=6), micro_tc(vocab, max_len=7))
    with pytest.raises(ValueError, match="max_len 7 .*max_decode_len 7"):
        TranslateTestPipeline(micro_mt(vocab, max_decode_len=7), micro_tc(vocab, max_len=7))


def test_default_freezing_layout(pipeline):
    mt, tc = pipeline.mt, pipeline.tc
    # translator: embeddings + lowest half of [enc0, enc1, dec0, dec1]
    assert mt.store["emb"].frozen and mt.store["enc_pos"].frozen
    assert mt.store["enc0.attn.q.w"].frozen and mt.store["enc1.attn.q.w"].frozen
    assert not mt.store["dec0.self.q.w"].frozen
    assert not mt.store["out.w"].frozen
    # classifier: highest half of encoder layers; head stays trainable
    assert not tc.store["enc0.attn.q.w"].frozen
    assert tc.store["enc1.attn.q.w"].frozen
    assert not tc.store["head.w"].frozen
    assert not tc.store["emb"].frozen


def test_freezing_fraction_extremes(vocab):
    pipe = TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab),
                                 FreezingPolicy(0.0, 0.0))
    assert all(not p.frozen for p in pipe.mt.store.parameters())
    apply_freezing(pipe, FreezingPolicy(1.0, 1.0, freeze_tc_head=True))
    assert all(p.frozen for name, p in
               ((n, pipe.mt.store[n]) for n in pipe.mt.store.names())
               if not name.startswith(("out", "enc_ln", "dec_ln")))
    assert pipe.tc.store["head.w"].frozen
    with pytest.raises(ValueError):
        apply_freezing(pipe, FreezingPolicy(-0.1, 0.0))


def test_trainable_count_bounded_by_single_model(pipeline):
    assert pipeline.trainable_param_count() <= pipeline.single_model_param_count()


def test_forced_onehot_equals_hard(pipeline, vocab, rng):
    inputs = random_inputs(vocab, rng, 50)
    forced = pipeline.predict_forced_onehot_batch(inputs)
    hard = pipeline.predict_hard_batch(inputs)
    for f, h in zip(forced, hard):
        assert np.array_equal(f.logits, h.logits)
        assert f.label == h.label


def test_predict_single_matches_batch(pipeline, vocab, rng):
    inputs = random_inputs(vocab, rng, 5)
    batch = pipeline.predict_batch(inputs)
    for ids, got in zip(inputs, batch):
        single = pipeline.predict(ids)
        if len(set(len(i) for i in inputs)) == 1:
            assert np.allclose(single.logits, got.logits, atol=1e-12)
        assert np.all(np.isfinite(got.logits))


BLOCK_VOCAB = micro_vocab()
# one untrained pipeline per head kind: its decodes end at ragged lengths
BLOCK_PIPES = {multi_label: TranslateTestPipeline(micro_mt(BLOCK_VOCAB),
                                                  micro_tc(BLOCK_VOCAB, multi_label=multi_label))
               for multi_label in (False, True)}


def logits_of(preds) -> np.ndarray:
    return np.stack([p.logits for p in preds])


def rows_depend_on_steps(pipe) -> bool:
    """Whether this BLAS gives a row of p @ E over m >= 2 steps other bits
    when the product is padded to more steps. The soft path keeps each
    block's p @ E at the block's own step count, so only where this is
    False are its logits bitwise those of the assembled distributions
    (OpenBLAS's Haswell kernel differs for odd m; its SkylakeX one did not
    in any shape checked)."""
    emb = pipe.tc.emb.data
    budget = pipe.mt.config.max_decode_len
    p = np.random.default_rng(0).dirichlet(np.ones(len(emb)), size=(4, budget))
    full = p @ emb
    return any((p[:, :m] @ emb).tobytes() != full[:, :m].tobytes() for m in range(2, budget))


ROWS_DEPEND_ON_STEPS = {multi_label: rows_depend_on_steps(pipe)
                        for multi_label, pipe in BLOCK_PIPES.items()}


@pytest.mark.parametrize("multi_label", [False, True])
@settings(max_examples=25, deadline=None)
@given(seqs=st.lists(st.lists(st.integers(5, len(BLOCK_VOCAB) - 1), min_size=1, max_size=5),
                     min_size=1, max_size=12),
       block_rows=st.integers(1, 4))
def test_blockwise_soft_path_equals_the_assembled_one_bitwise(multi_label, seqs, block_rows):
    # ragged rows across several blocks: each block is padded to the batch's
    # step count on its own, and the result equals the assembled array's
    pipe = BLOCK_PIPES[multi_label]
    with patch.object(mt_module, "BLOCK_ROWS", block_rows):
        soft = logits_of(pipe.predict_batch(seqs))
        probs, _, lengths = pipe.mt.soft_decode_values(_pad_batch(seqs, BLOCK_VOCAB.pad_id))
        assembled = logits_of(pipe.tc.classify_soft_values([probs], lengths))
        forced = logits_of(pipe.predict_forced_onehot_batch(seqs))
        hard = logits_of(pipe.predict_hard_batch(seqs))
    if ROWS_DEPEND_ON_STEPS[multi_label]:  # a block's kept p @ E may differ in the last bit
        np.testing.assert_allclose(soft, assembled, rtol=1e-12, atol=0)
    else:
        assert soft.tobytes() == assembled.tobytes()
    assert forced.tobytes() == hard.tobytes()


def eos_prone_pipe(multi_label: bool):
    """An untrained pipeline whose translator's EOS bias is raised until a
    sixth of a pool of sources stop at the first step, with the pool split
    into those one-step sources and the rest (decodes of 2 to 5 steps)."""
    pipe = TranslateTestPipeline(micro_mt(BLOCK_VOCAB), micro_tc(BLOCK_VOCAB,
                                                                 multi_label=multi_label))
    rng = np.random.default_rng(0)
    pool = [[int(t) for t in rng.integers(5, len(BLOCK_VOCAB), size=rng.integers(1, 5))]
            for _ in range(60)]
    src = _pad_batch(pool, BLOCK_VOCAB.pad_id)
    bias = pipe.mt.store["out.b"].data
    base = bias[BLOCK_VOCAB.eos_id]
    for shift in np.arange(0.0, 3.0, 0.025):
        bias[BLOCK_VOCAB.eos_id] = base + shift
        lengths = pipe.mt.greedy_decode_batch(src).lengths
        if (lengths == 1).mean() >= 1 / 6:
            break
    short = [s for s, n in zip(pool, lengths) if n == 1]
    longer = [s for s, n in zip(pool, lengths) if n > 1]
    assert short and len({int(n) for n in lengths}) >= 3
    return pipe, short, longer


EOS_PRONE = {multi_label: eos_prone_pipe(multi_label) for multi_label in (False, True)}


def block_outputs(pipe, seqs, n_cpus: int):
    """Greedy tokens and lengths, then soft, hard and forced one-hot logits,
    with blocks of 3 rows and ``n_cpus`` CPUs."""
    with patch.object(mt_module, "BLOCK_ROWS", 3), cpus(n_cpus):
        decoded = pipe.mt.greedy_decode_batch(_pad_batch(seqs, BLOCK_VOCAB.pad_id))
        return ([t.tolist() for t in decoded], decoded.lengths,
                logits_of(pipe.predict_batch(seqs)), logits_of(pipe.predict_hard_batch(seqs)),
                logits_of(pipe.predict_forced_onehot_batch(seqs)))


@pytest.mark.parametrize("multi_label", [False, True])
@settings(max_examples=20, deadline=None)
@given(blocks=st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 59), min_size=1,
                                                         max_size=3)),
                       min_size=1, max_size=5))
@example(blocks=[(True, [0, 1, 2]), (True, [3])])      # M = 1 over two blocks
@example(blocks=[(True, [0, 1, 2]), (False, [4, 5])])  # a 1-step block below M
def test_paired_blocks_equal_inline_ones_bitwise(multi_label, blocks):
    # each drawn block is one block of 3 rows (the last may be shorter):
    # rows that stop at the first step, or rows that decode 2 to 5 steps
    pipe, short, longer = EOS_PRONE[multi_label]
    seqs = []
    for i, (one_step, picks) in enumerate(blocks):
        pool = short if one_step else longer
        seqs += [pool[j % len(pool)] for j in (picks if i == len(blocks) - 1 else (picks * 3)[:3])]
    inline = block_outputs(pipe, seqs, 1)
    paired = block_outputs(pipe, seqs, 2)
    assert paired[0] == inline[0]
    for got, want in zip(paired[1:], inline[1:]):
        assert got.tobytes() == want.tobytes()
    # where every block's step count is 1 or M, the kept embeddings give the
    # logits of the assembled distributions bitwise, whatever the BLAS kernel
    lengths = inline[1]
    steps = {int(lengths[i:i + 3].max()) for i in range(0, len(seqs), 3)}
    if steps <= {1, int(lengths.max())}:
        probs, _, _ = pipe.mt.soft_decode_values(_pad_batch(seqs, BLOCK_VOCAB.pad_id))
        assembled = logits_of(pipe.tc.classify_soft_values([probs], lengths))
        assert paired[2].tobytes() == assembled.tobytes()


def test_soft_path_holds_its_distributions_about_once():
    # a wide vocabulary, narrow layers and blocks of 4 rows: the step
    # distributions outweigh everything else the soft path allocates
    vocab = micro_vocab(200)
    pipe = TranslateTestPipeline(
        micro_mt(vocab, d_model=4, n_layers=1, n_heads=1, d_ff=4, max_source_len=4,
                 max_decode_len=12),
        micro_tc(vocab, d_model=4, n_layers=1, n_heads=1, d_ff=4, max_len=13))
    inputs = random_inputs(vocab, np.random.default_rng(0), 128, max_len=4)
    with patch.object(mt_module, "BLOCK_ROWS", 4):
        probs, _, _ = pipe.mt.soft_decode_values(_pad_batch(inputs, vocab.pad_id))
        pipe.predict_batch(inputs[:4])  # warm up caches that live past the call
        tracemalloc.start()
        try:
            pipe.predict_batch(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * probs.nbytes, (peak, probs.nbytes)


def test_classify_soft_values_rejects_an_unblocked_array(pipeline, vocab, rng):
    inputs = random_inputs(vocab, rng, 3)
    probs, _, lengths = pipeline.mt.soft_decode_values(_pad_batch(inputs, vocab.pad_id))
    for blocks in (probs, [probs[:2]], [probs, probs[:1]]):
        with pytest.raises(ValueError, match="one row per length"):
            pipeline.tc.classify_soft_values(blocks, lengths)


def count_decodes(monkeypatch) -> list:
    calls = []
    decode = MtModel.greedy_decode_batch

    def counting(self, *args, **kwargs):
        calls.append(1)
        return decode(self, *args, **kwargs)

    monkeypatch.setattr(MtModel, "greedy_decode_batch", counting)
    return calls


def _write_in_place(pipe, rng):
    pipe.mt.out_proj[1].tensor.data[:] += 1


def _rebind_parameter(pipe, rng):
    p = pipe.mt.store["out.w"]
    p.tensor.data = rng.normal(size=p.data.shape)


def _change_temperature(pipe, rng):
    pipe.mt.config.temperature = 0.5


# (steps, greedy decodes): "soft"/"hard" predict batch A, "hard B" batch B,
# a function changes the pipeline between calls
SHARED_TRANSLATION_CASES = {
    "soft then hard": (["soft", "hard"], 1),
    "other batch": (["soft", "hard B"], 2),
    "in-place weight write": (["soft", _write_in_place, "hard"], 2),
    "rebound parameter": (["soft", _rebind_parameter, "hard"], 2),
    "temperature": (["soft", _change_temperature, "hard"], 2),
    "hard before soft": (["hard", "soft"], 2),
    "two soft calls": (["soft", "soft"], 2),
    "second hard call": (["soft", "hard", "hard"], 2),
}


@pytest.mark.parametrize("case", SHARED_TRANSLATION_CASES)
def test_hard_path_reuses_only_an_unchanged_translation(pipeline, vocab, rng, monkeypatch,
                                                        tmp_path, case):
    steps, decodes = SHARED_TRANSLATION_CASES[case]
    batch_a = random_inputs(vocab, rng, 6)
    batch_b = [list(ids) for ids in batch_a]
    batch_b[2][0] = batch_b[2][0] % (len(vocab) - 1) + 1  # same shape, one token differs
    calls = count_decodes(monkeypatch)
    soft, hard = [], []
    for step in steps:
        if step == "soft":
            soft.append(pipeline.predict_batch(batch_a))
        elif step in ("hard", "hard B"):
            batch = batch_b if step == "hard B" else batch_a
            hard.append((batch, pipeline.predict_hard_batch(batch)))
        else:
            step(pipeline, rng)
    assert len(calls) == decodes
    if len(soft) == 2:
        assert all(np.array_equal(a.logits, b.logits) for a, b in zip(*soft))
    # every change happens before the last hard call: a pipeline loaded from
    # the final weights decodes each hard batch afresh
    pipeline.save(tmp_path)
    fresh = TranslateTestPipeline.load(tmp_path)
    for batch, preds in hard:
        for got, want in zip(preds, fresh.predict_hard_batch(batch)):
            assert got.logits.tobytes() == want.logits.tobytes()
            assert got.label == want.label


def test_task_loss_backprops_into_both_models(pipeline, vocab):
    loss = pipeline.task_loss(vocab.encode(["t0", "t1"]), 1)
    loss.backward()
    assert pipeline.mt.store["out.w"].grad is not None
    assert pipeline.tc.store["head.w"].grad is not None


def backward_keeping_the_graph(loss):
    """Reference walk: the pass of ``Tensor.backward``, nodes in the same
    order, without releasing anything on the way."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_backward_releases_the_graph_and_keeps_every_gradient(pipeline, vocab):
    ids = vocab.encode(["t0", "t1", "t2"])
    stores = (pipeline.mt.store, pipeline.tc.store)

    def task_loss():
        """The single-label task loss and three of its op outputs."""
        for store in stores:
            store.zero_grad()
        st = pipeline.mt.soft_decode(ids)
        probs = ad.reshape(st.probs, (1, len(st), len(vocab)))
        logits = pipeline.tc.logits_soft(probs, np.asarray([len(st)]))
        return ad.cross_entropy(logits, np.asarray([1])), [st.probs, probs, logits]

    backward_keeping_the_graph(task_loss()[0])
    expected = [store[n].grad for store in stores for n in store.names()]

    loss, outputs = task_loss()
    refs = [weakref.ref(t) for t in outputs]
    loss.backward()
    assert loss.grad is None and all(t.grad is None for t in outputs)
    del outputs
    assert all(ref() is None for ref in refs)
    got = [store[n].grad for store in stores for n in store.names()]
    for g, e in zip(got, expected, strict=True):
        assert (g is None and e is None) or np.array_equal(g, e)

    with pytest.raises(RuntimeError, match="already backpropagated"):
        loss.backward()


def test_leaf_gradients_accumulate_across_separate_losses(pipeline, vocab):
    params = [p for store in (pipeline.mt.store, pipeline.tc.store) for p in store.trainable()]
    single = []
    for ids, label in ((["t0", "t1"], 1), (["t2"], 0)):
        for p in params:
            p.zero_grad()
        pipeline.task_loss(vocab.encode(ids), label).backward()
        single.append([p.grad for p in params])
    for p in params:
        p.zero_grad()
    pipeline.task_loss(vocab.encode(["t0", "t1"]), 1).backward()
    pipeline.task_loss(vocab.encode(["t2"]), 0).backward()
    for p, a, b in zip(params, *single):
        assert np.allclose(p.grad, a + b, rtol=1e-12, atol=1e-15), p.name


def task_loss_grads(pipe, ids, label, draft=None):
    """Every parameter's gradient after one task-loss backward pass."""
    stores = (("mt", pipe.mt.store), ("tc", pipe.tc.store))
    for _, store in stores:
        store.zero_grad()
    pipe.task_loss(ids, label, draft).backward()
    return {(tag, name): store[name].grad for tag, store in stores for name in store.names()}


def frozen_flags(pipe):
    flags = {}
    for tag, store in (("mt", pipe.mt.store), ("tc", pipe.tc.store)):
        for name in store.names():
            p = store[name]
            assert p.tensor.requires_grad is not p.frozen
            flags[(tag, name)] = p.frozen
    return flags


def test_draft_changes_neither_task_loss_nor_gradients(pipeline, vocab, rng):
    # a draft is a speed hint: right, random, one token or a full budget
    # without EOS, the loss and every trainable gradient are bitwise the same
    mt, v = pipeline.mt, len(vocab)
    budget = mt.config.max_decode_len
    not_eos = [t for t in range(v) if t != vocab.eos_id]
    for ids in random_inputs(vocab, rng, 6):
        label = int(rng.integers(3))
        loss = pipeline.task_loss(ids, label).item()
        grads = task_loss_grads(pipeline, ids, label)
        drafts = [mt.greedy_decode_batch(np.asarray([ids]))[0],
                  rng.integers(0, v, size=int(rng.integers(1, budget + 1))),
                  rng.integers(0, v, size=1), rng.choice(not_eos, size=budget)]
        for draft in drafts:
            assert pipeline.task_loss(ids, label, draft=draft).item() == loss
            got = task_loss_grads(pipeline, ids, label, draft)
            for key, grad in grads.items():
                assert (grad is None) == (got[key] is None), key
                assert grad is None or np.array_equal(grad, got[key]), key


def test_finetune_drafts_change_no_float(vocab, rng):
    # fine-tuning hands each shot a draft; dropping the drafts (and so
    # decoding each shot step by step) gives bitwise the same run
    data = [(["t%d" % int(rng.integers(15)) for _ in range(int(rng.integers(1, 5)))],
             int(rng.integers(3))) for _ in range(5)]
    cfg = TrainConfig(epochs=3, batch_size=1, lr=3e-2, warmup_steps=0, grad_accum=2, seed=1)
    runs, drafts = [], []
    for use_drafts in (True, False):
        pipe = TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab))

        def task_loss(ids, label, draft=None, pipe=pipe, use_drafts=use_drafts, **kwargs):
            drafts.append(draft)
            return TranslateTestPipeline.task_loss(pipe, ids, label,
                                                   draft if use_drafts else None, **kwargs)

        pipe.task_loss = task_loss
        result = pipe.finetune_end_to_end(data, data, cfg)
        runs.append((result, pipe.mt.store.state(), pipe.tc.store.state()))
    assert len(drafts) == 2 * len(data) * cfg.epochs
    assert all(d is not None for d in drafts)
    (a, a_mt, a_tc), (b, b_mt, b_tc) = runs
    assert a.train_loss == b.train_loss and a.val_metric == b.val_metric
    assert a.best_epoch == b.best_epoch
    for x, y in ((a_mt, b_mt), (a_tc, b_tc)):
        assert all(np.array_equal(x[n], y[n]) for n in x)


def test_finetune_refreshes_drafts_with_verified_tokens(vocab, rng, monkeypatch):
    # every starting draft is wrong in its first token and the weights never
    # move (lr 0): the first epoch pays for the wrong drafts, every later one
    # gets each shot's verified tokens as its draft and runs one pass per shot
    data = [(["t%d" % int(rng.integers(15)) for _ in range(int(rng.integers(1, 5)))],
             int(rng.integers(3))) for _ in range(6)]
    cfg = TrainConfig(epochs=3, batch_size=1, lr=0.0, warmup_steps=0, grad_accum=1, seed=1)
    pipe = TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab))
    decode = pipe.mt.greedy_decode_batch

    def wrong_drafts(src, keep_probs=False):
        out = decode(src, keep_probs)
        if not keep_probs:  # the drafts; evaluation decodes with probabilities
            for seq in out:
                seq[0] = (seq[0] + 1) % len(vocab)
        return out

    passes, per_epoch = [], []
    forced_pass = MtModel._forced_pass

    def counting_pass(self, *args):
        passes.append(1)
        return forced_pass(self, *args)

    def evaluate(data, hard=False):
        per_epoch.append(len(passes) - sum(per_epoch))
        return TranslateTestPipeline.evaluate_metric(pipe, data, hard)

    monkeypatch.setattr(pipe.mt, "greedy_decode_batch", wrong_drafts)
    monkeypatch.setattr(MtModel, "_forced_pass", counting_pass)
    monkeypatch.setattr(pipe, "evaluate_metric", evaluate)
    pipe.finetune_end_to_end(data, data, cfg)
    assert per_epoch[0] >= 2 * len(data)
    assert per_epoch[1:] == [len(data)] * (cfg.epochs - 1)


def test_frozen_parameters_get_no_gradient(vocab, rng):
    pipe = TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab))  # default policy
    frozen = {k for k, f in frozen_flags(pipe).items() if f}
    assert ("mt", "emb") in frozen and ("mt", "enc1.ff1.w") in frozen
    assert ("tc", "enc1.ff1.w") in frozen
    for ids in random_inputs(vocab, rng, 4):
        label = int(rng.integers(3))
        partial = task_loss_grads(pipe, ids, label)
        apply_freezing(pipe, FreezingPolicy(0.0, 0.0))
        assert not any(frozen_flags(pipe).values())
        full = task_loss_grads(pipe, ids, label)
        apply_freezing(pipe, FreezingPolicy())
        assert {k for k, f in frozen_flags(pipe).items() if f} == frozen
        for key, grad in partial.items():
            assert full[key] is not None, key
            if key in frozen:
                assert grad is None, key
            else:
                assert np.array_equal(grad, full[key]), key


def test_frozen_encoder_is_off_the_tape(pipeline, vocab):
    memory, _ = pipeline.mt.encode(np.asarray([vocab.encode(["t0", "t1"])]))
    # only the trainable final layer norm records; its input is a constant
    assert memory.requires_grad
    encoded = memory._parents[0]
    assert not encoded.requires_grad and encoded._backward is None


def test_frozen_flags_survive_save_load(pipeline, vocab, tmp_path):
    flags = frozen_flags(pipeline)
    pipeline.save(tmp_path / "pipe")
    clone = TranslateTestPipeline.load(tmp_path / "pipe")
    assert frozen_flags(clone) == flags
    mt = MtModel.load(tmp_path / "pipe" / "mt.npz", vocab)
    assert {n: mt.store[n].frozen for n in mt.store.names()} == \
        {n: f for (tag, n), f in flags.items() if tag == "mt"}
    grads = task_loss_grads(clone, vocab.encode(["t2", "t4"]), 0)
    assert all((grads[k] is None) == f for k, f in flags.items())


def test_finetune_updates_trainable_preserves_frozen(pipeline, vocab, rng):
    data = [(["t%d" % int(rng.integers(15)) for _ in range(3)], int(rng.integers(3)))
            for _ in range(6)]
    frozen_before = {("mt", n): pipeline.mt.store[n].data.copy()
                     for n in pipeline.mt.store.names() if pipeline.mt.store[n].frozen}
    frozen_before.update({("tc", n): pipeline.tc.store[n].data.copy()
                          for n in pipeline.tc.store.names() if pipeline.tc.store[n].frozen})
    out_before = pipeline.mt.store["out.w"].data.copy()
    pipeline.finetune_end_to_end(data, data,
                                 TrainConfig(epochs=2, batch_size=1, lr=1e-3,
                                             warmup_steps=0, grad_accum=1, seed=0))
    for (which, n), before in frozen_before.items():
        store = pipeline.mt.store if which == "mt" else pipeline.tc.store
        assert np.array_equal(store[n].data, before), f"{which}:{n} changed"
    assert not np.array_equal(pipeline.mt.store["out.w"].data, out_before)


def test_finetune_rejects_empty(pipeline):
    with pytest.raises(ValueError, match="k >= 1"):
        pipeline.finetune_end_to_end([], [], TrainConfig(batch_size=1))


def test_finetune_rejects_batch_size_above_one(pipeline):
    data = [(["t0", "t1"], 0), (["t2"], 1)]
    before = pipeline.mt.store.state()
    with pytest.raises(ValueError, match="batch_size=8"):
        pipeline.finetune_end_to_end(data, data, TrainConfig(epochs=1, batch_size=8))
    assert all(np.array_equal(pipeline.mt.store[n].data, v) for n, v in before.items())


def test_empty_batch_rejected_by_name(pipeline):
    for predict in (pipeline.predict_batch, pipeline.predict_hard_batch,
                    pipeline.predict_forced_onehot_batch, pipeline.evaluate_metric):
        with pytest.raises(ValueError, match="empty batch"):
            predict([])


def test_evaluate_metric_accuracy(pipeline):
    data = [(["t0", "t1"], 0), (["t2"], 1)]
    m = pipeline.evaluate_metric(data)
    assert 0.0 <= m <= 1.0
    mh = pipeline.evaluate_metric(data, hard=True)
    assert 0.0 <= mh <= 1.0


def test_save_load_roundtrip(pipeline, vocab, tmp_path, rng):
    pipeline.save(tmp_path / "pipe")
    clone = TranslateTestPipeline.load(tmp_path / "pipe")
    assert clone.freezing == pipeline.freezing
    inputs = random_inputs(vocab, rng, 4)
    a = pipeline.predict_batch(inputs)
    b = clone.predict_batch(inputs)
    for x, y in zip(a, b):
        assert np.array_equal(x.logits, y.logits)


def test_load_detects_vocab_tampering(pipeline, tmp_path):
    pipeline.save(tmp_path / "pipe")
    path = tmp_path / "pipe" / "vocab.txt"
    lines = path.read_text().splitlines()
    lines[-1] = "tampered"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="vocabulary hash"):
        TranslateTestPipeline.load(tmp_path / "pipe")


@pytest.mark.parametrize("name, content", [
    ("pipeline.json", b"{not json"),
    ("pipeline.json", b"[]"),
    ("pipeline.json", b'{"format_version": 1}'),
    ("pipeline.json", b'{"format_version": 1, "freezing": {"mt_share": 0.5}, "vocab_hash": ""}'),
    ("mt.npz", None),
    ("tc.npz", None),
], ids=["pipeline-not-json", "pipeline-not-object", "pipeline-missing-keys",
        "pipeline-unknown-policy-key", "mt-truncated", "tc-truncated"])
def test_load_names_a_corrupt_file(pipeline, tmp_path, name, content):
    pipeline.save(tmp_path / "pipe")
    path = tmp_path / "pipe" / name
    path.write_bytes(path.read_bytes()[:100] if content is None else content)
    with pytest.raises(ValueError, match=name):
        TranslateTestPipeline.load(tmp_path / "pipe")


@pytest.mark.parametrize("version", [2, "x", None, True, 1.0, "1"])
def test_load_rejects_another_pipeline_format_version(pipeline, tmp_path, version):
    # None: the file holds no format_version at all
    pipeline.save(tmp_path / "pipe")
    path = tmp_path / "pipe" / "pipeline.json"
    meta = json.loads(path.read_text())
    if version is None:
        del meta["format_version"]
    else:
        meta["format_version"] = version
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unsupported pipeline format version {version!r}")):
        TranslateTestPipeline.load(tmp_path / "pipe")


def test_load_names_pipeline_json_for_an_out_of_range_policy(pipeline, tmp_path):
    pipeline.save(tmp_path / "pipe")
    path = tmp_path / "pipe" / "pipeline.json"
    meta = json.loads(path.read_text())
    meta["freezing"]["mt_fraction"] = 2.0
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError,
                       match=r"pipeline\.json: FreezingPolicy\.mt_fraction=2\.0: must be in \[0, 1\]"):
        TranslateTestPipeline.load(tmp_path / "pipe")


def test_translate_corpus_preserves_labels(pipeline):
    samples = [(["t0", "t1"], 2), (["t3"], 0)]
    out = translate_corpus(pipeline.mt, samples)
    assert [l for _, l in out] == [2, 0]
    for toks, _ in out:
        assert all(isinstance(t, str) for t in toks)
