"""The workloads: `train`, `finetune`, `evaluate` and `evaluate_split`.

A workload sets up once per `setup` call, then runs rounds. A round is a
fixed list of operations on inputs fixed at set-up, so every round of a run
does the same work and gives bitwise the same outputs. Each operation
returns the number of samples it consumed and its output. `evidence` turns
the outputs of a round into the plain data `checks.py` judges.

The program is called through module attributes (`mt_mod.train_mt`, not a
name imported from it), so the wrappers of `tracing.py` see every call.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from difftt import harness, synthlang
from difftt import mt as mt_mod
from difftt import pipeline as pipeline_mod
from difftt import tc as tc_mod
from difftt.autodiff import no_grad
from difftt.mt import TrainConfig

import build_pipeline
import checks

TASK = synthlang.TaskSpec(**build_pipeline.TASK)
MODEL_SEED = 1


def pad(seqs: list[list[int]], pad_id: int) -> np.ndarray:
    out = np.full((len(seqs), max(len(s) for s in seqs)), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _store_digest(*stores) -> str:
    return _digest(*(p.data for store in stores for p in store.parameters()))


def load_service(pipeline_dir):
    """Regenerate the service bundle and load the pipeline trained on it."""
    bundle = synthlang.gen_classification_dataset(
        TASK, synthlang.SyntheticLanguageSpec(**build_pipeline.LANG),
        sizes=build_pipeline.SIZES, parallel_sizes=build_pipeline.PARALLEL_SIZES)
    return bundle, pipeline_mod.TranslateTestPipeline.load(pipeline_dir)


class Train:
    """`train_mt`, then `train_tc`, from fresh models, at batch 32.

    The language of the corpus is drawn from the seed. One operation is one
    whole training job; its samples are pairs and labeled sentences times
    epochs.
    """

    name = "train"
    needs_pipeline = False
    min_rounds = 1
    MT_PAIRS, MT_EPOCHS = 1500, 2
    TC_SAMPLES, TC_EPOCHS = 1000, 1
    DEV = 40

    def setup(self, seed: int):
        self.seed = seed
        lang = synthlang.SyntheticLanguageSpec(seed=seed, reorder_prob=0.2, noise_rate=0.1)
        bundle = synthlang.gen_classification_dataset(
            TASK, lang, sizes=(self.TC_SAMPLES, self.DEV, 1),
            parallel_sizes=(self.MT_PAIRS, self.DEV, 1), few_shot_sizes=())
        self.vocab = harness.shared_vocabulary(lang)
        # stored pairs are (high-resource, target); the translator reads the target
        self.mt_train = [(t, s) for s, t in bundle.parallel.train]
        self.mt_dev = [(t, s) for s, t in bundle.parallel.dev]
        self.tc_train, self.tc_dev = bundle.hr_train, bundle.hr_dev

    def before_round(self):
        pass

    def round_ops(self):
        return [self._job]

    def _config(self, epochs: int, lr: float) -> TrainConfig:
        return TrainConfig(epochs=epochs, batch_size=32, lr=lr, warmup_steps=20,
                           grad_accum=1, seed=self.seed)

    def _job(self):
        mt = mt_mod.MtModel(self.vocab, mt_mod.MtConfig(), seed=MODEL_SEED)
        mt_result = mt_mod.train_mt(mt, self.mt_train, self.mt_dev,
                                    self._config(self.MT_EPOCHS, 2e-3))
        tc = tc_mod.TcModel(self.vocab, tc_mod.TcConfig(n_classes=TASK.n_classes),
                            seed=MODEL_SEED)
        tc_result = tc_mod.train_tc(tc, self.tc_train, self.tc_dev,
                                    self._config(self.TC_EPOCHS, 1e-3))
        samples = self.MT_PAIRS * self.MT_EPOCHS + self.TC_SAMPLES * self.TC_EPOCHS
        return samples, (mt, tc, mt_result, tc_result)

    def digest(self, outputs) -> str:
        mt, tc, r_mt, r_tc = outputs[0]
        curves = np.asarray(r_mt.train_loss + r_mt.val_bleu + r_tc.train_loss + r_tc.val_metric)
        return _digest(curves) + _store_digest(mt.store, tc.store)

    def _decode(self, model, sources) -> list[list[str]]:
        vocab = self.vocab
        decoded = model.greedy_decode_batch(pad(sources, vocab.pad_id))
        return [vocab.decode([int(t) for t in seq if t != vocab.eos_id]) for seq in decoded]

    def evidence(self, outputs) -> dict:
        mt, tc, r_mt, r_tc = outputs[0]
        vocab = self.vocab
        sources = [vocab.encode(src) for src, _ in self.mt_dev]
        untrained = mt_mod.MtModel(vocab, mt_mod.MtConfig(), seed=MODEL_SEED)
        tc_ids = [vocab.encode(toks)[: tc.config.max_len - 1] for toks, _ in self.tc_dev]
        return {
            "mt_losses": list(r_mt.train_loss),
            "tc_losses": list(r_tc.train_loss),
            "ln_vocab": math.log(len(vocab)),
            "trained_candidates": self._decode(mt, sources),
            "untrained_candidates": self._decode(untrained, sources),
            "dev_references": [list(ref) for _, ref in self.mt_dev],
            "tc_predictions": [p.label for p in tc.classify_tokens_batch(tc_ids)],
            "tc_golds": [int(label) for _, label in self.tc_dev],
        }

    judge = staticmethod(checks.judge_train)


class Finetune:
    """`finetune_end_to_end` on 100 target-language shots of a trained pipeline.

    Every round starts from the loaded pipeline. Shots and the selection-dev
    split are drawn by the seed from the target-language dev pool, which the
    pipeline never trained on. Samples are shots times epochs.
    """

    name = "finetune"
    needs_pipeline = True
    min_rounds = 1
    SHOTS, SELECTION, EPOCHS = 100, 40, 2
    FD_EPS, FD_CANDIDATES = 1e-4, 20

    def __init__(self, pipeline_dir):
        self.pipeline_dir = pipeline_dir

    def setup(self, seed: int):
        self.seed = seed
        bundle, self.pipe = load_service(self.pipeline_dir)
        pool = bundle.few_shot[10] + bundle.few_shot[100] + bundle.selection_dev
        order = np.random.default_rng(seed).permutation(len(pool))
        self.shots = [pool[i] for i in order[:self.SHOTS]]
        self.selection = [pool[i] for i in order[self.SHOTS:self.SHOTS + self.SELECTION]]
        self.initial = (self.pipe.mt.store.state(), self.pipe.tc.store.state())

    def _restore(self):
        for store, state in zip((self.pipe.mt.store, self.pipe.tc.store), self.initial):
            store.load_state(state)
            store.zero_grad()

    def before_round(self):
        self._restore()

    def round_ops(self):
        return [self._job]

    def _job(self):
        cfg = TrainConfig(epochs=self.EPOCHS, batch_size=1, lr=1e-4, warmup_steps=0,
                          grad_accum=1, seed=self.seed)
        result = self.pipe.finetune_end_to_end(self.shots, self.selection, cfg)
        return self.SHOTS * self.EPOCHS, result

    def digest(self, outputs) -> str:
        r = outputs[0]
        return _digest(np.asarray(r.train_loss + r.val_metric + [r.best_epoch])) \
            + _store_digest(self.pipe.mt.store, self.pipe.tc.store)

    def _split(self, states):
        """(trainable, frozen) name -> values, over both models."""
        trainable, frozen = {}, {}
        for tag, store, state in zip(("mt", "tc"), (self.pipe.mt.store, self.pipe.tc.store),
                                     states):
            for name in store.names():
                (frozen if store[name].frozen else trainable)[f"{tag}.{name}"] = state[name]
        return trainable, frozen

    def _directional_derivatives(self) -> tuple[float, float]:
        """Tape and central-difference derivative of `task_loss` for the loaded
        pipeline, along a seeded random unit direction over the trainable
        parameters. The shot is the highest-loss one of the first 20: on a
        near-zero loss the derivative falls to the loss's rounding error
        divided by the step, which no central difference resolves."""
        self._restore()
        pipe, vocab = self.pipe, self.pipe.vocab
        with no_grad():
            losses = [pipe.task_loss(vocab.encode(toks), label).item()
                      for toks, label in self.shots[:self.FD_CANDIDATES]]
        toks, label = self.shots[int(np.argmax(losses))]
        ids = vocab.encode(toks)
        params = pipe.trainable_parameters()
        rng = np.random.default_rng(self.seed)
        direction = [rng.normal(size=p.data.shape) for p in params]
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]
        pipe.task_loss(ids, label).backward()
        tape = sum(float((p.grad * d).sum()) for p, d in zip(params, direction)
                   if p.grad is not None)
        base = [p.data.copy() for p in params]

        def loss_at(step):
            for p, b, d in zip(params, base, direction):
                p.tensor.data = b + step * d
            with no_grad():
                return pipe.task_loss(ids, label).item()

        numeric = (loss_at(self.FD_EPS) - loss_at(-self.FD_EPS)) / (2 * self.FD_EPS)
        self._restore()
        return tape, numeric

    def evidence(self, outputs) -> dict:
        result = outputs[0]
        pipe, vocab = self.pipe, self.pipe.vocab
        # the pipeline is as the last round left it: restored to its best epoch
        after = (pipe.mt.store.state(), pipe.tc.store.state())
        predictions = pipe.predict_batch([vocab.encode(t) for t, _ in self.selection])
        trainable_before, frozen_before = self._split(self.initial)
        trainable_after, frozen_after = self._split(after)
        tape, numeric = self._directional_derivatives()
        return {
            "trainable_before": trainable_before, "trainable_after": trainable_after,
            "frozen_before": frozen_before, "frozen_after": frozen_after,
            "train_loss": list(result.train_loss),
            "val_metric": list(result.val_metric),
            "selection_predictions": [p.label for p in predictions],
            "selection_golds": [int(label) for _, label in self.selection],
            "fd_tape": tape, "fd_numeric": numeric,
        }

    judge = staticmethod(checks.judge_finetune)


class Evaluate:
    """A closed loop with one client sending fixed-size batches of held-out
    target-language sentences; each request is classified by the soft path,
    then by the hard path. Samples are sentences.

    The batch size follows from the latency percentiles: a run must hold at
    least 100 requests, so that ten lie beyond the p90, within one run of
    about 20 s. A 16-sentence request takes about 120 ms here, so a run holds
    160-220 of them. The whole-split batches the program itself decodes are
    `EvaluateSplit`'s.
    """

    name = "evaluate"
    needs_pipeline = True
    min_rounds = 5          # 100 requests, so ten lie beyond the p90
    REQUESTS, BATCH = 20, 16
    SAMPLED_REQUESTS, SAMPLED_SENTENCES = 4, 8

    def __init__(self, pipeline_dir):
        self.pipeline_dir = pipeline_dir

    def setup(self, seed: int):
        self.seed = seed
        bundle, self.pipe = load_service(self.pipeline_dir)
        test = bundle.tg_test
        order = np.random.default_rng(seed).permutation(len(test))
        chosen = order[:self.REQUESTS * self.BATCH].reshape(self.REQUESTS, self.BATCH)
        vocab = self.pipe.vocab
        self.requests = [[vocab.encode(test[i][0]) for i in row] for row in chosen]
        self.golds = [[int(test[i][1]) for i in row] for row in chosen]

    def before_round(self):
        pass

    def round_ops(self):
        return [lambda ids=ids: self._request(ids) for ids in self.requests]

    def _request(self, ids):
        soft = self.pipe.predict_batch(ids)
        hard = self.pipe.predict_hard_batch(ids)
        return len(ids), (soft, hard)

    def digest(self, outputs) -> str:
        return _digest(*(p.logits for soft, hard in outputs for p in soft + hard))

    def evidence(self, outputs) -> dict:
        pipe = self.pipe
        rng = np.random.default_rng(self.seed)
        ev = {"soft_labels": [], "hard_labels": [], "golds": [], "soft_rows": [],
              "soft_tokens": [], "forced_logits": [], "hard_logits_sampled": [],
              "single_labels": [], "batched_labels": []}
        for (soft, hard), golds in zip(outputs, self.golds):
            ev["soft_labels"] += [p.label for p in soft]
            ev["hard_labels"] += [p.label for p in hard]
            ev["golds"] += golds
        for k in rng.choice(len(self.requests), size=self.SAMPLED_REQUESTS, replace=False):
            ids = self.requests[k]
            probs, tokens, lengths = pipe.mt.soft_decode_values(pad(ids, pipe.vocab.pad_id))
            ev["soft_rows"] += [probs[i, :n] for i, n in enumerate(lengths)]
            ev["soft_tokens"] += list(tokens)
            ev["forced_logits"] += [p.logits for p in pipe.predict_forced_onehot_batch(ids)]
            ev["hard_logits_sampled"] += [p.logits for p in outputs[k][1]]
        for i in rng.choice(self.REQUESTS * self.BATCH, size=self.SAMPLED_SENTENCES,
                            replace=False):
            k, j = divmod(int(i), self.BATCH)
            soft, hard = outputs[k]
            ids = self.requests[k][j]
            ev["single_labels"] += [pipe.predict(ids).label, pipe.predict_hard(ids).label]
            ev["batched_labels"] += [soft[j].label, hard[j].label]
        return ev

    judge = staticmethod(checks.judge_evaluate)


class EvaluateSplit(Evaluate):
    """One request is the whole 500-sentence target-language test split in one
    batch, as `harness.cmd_evaluate` and `pipeline.evaluate_metric` decode
    it: every row pays for the batch's longest decode, and ops are BLAS-sized.
    The seed orders the rows. A run holds only a few requests, so its p90 is
    close to its slowest request."""

    name = "evaluate_split"
    min_rounds = 1
    REQUESTS, BATCH = 1, 500
    SAMPLED_REQUESTS, SAMPLED_SENTENCES = 1, 8


WORKLOADS = {w.name: w for w in (Train, Finetune, Evaluate, EvaluateSplit)}
