"""Composition of translator and classifier, plus the training strategies:
zero-shot transfer, joint end-to-end few-shot fine-tuning with layer freezing,
the hard-argmax comparison path, and the translate-and-train baseline's
translation of the classifier's training data (the direct-classifier
baseline is the classifier itself).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data_io import read_json, write_json
from .fields import check_fields
from .metrics import score
from .mt import MtConfig, MtModel, _pad_batch, translate
from .optim import FitResult, TrainConfig, fit
from .tc import Prediction, TcConfig, TcModel
from .vocab import Vocabulary, assert_alignment


@dataclass
class FreezingPolicy:
    """Freeze the input side of the translator and the output side of the
    classifier, concentrating trainable parameters at the coupling."""
    mt_fraction: float = 0.5
    tc_fraction: float = 0.5
    freeze_tc_head: bool = False

    def __post_init__(self):
        check_fields(self, unit=("mt_fraction", "tc_fraction"))


@dataclass
class _Translation:
    """The greedy translation of one soft-path batch and everything it was
    decoded from: padded source ids, translator config and parameter values."""
    src: np.ndarray
    config: MtConfig
    params: dict[str, np.ndarray]
    tokens: list[np.ndarray]

    def decodes_alike(self, src: np.ndarray, mt: MtModel) -> bool:
        """Whether greedy-decoding ``src`` with ``mt`` now gives ``tokens``."""
        store = mt.store
        return (np.array_equal(self.src, src) and self.config == mt.config
                and list(self.params) == store.names()
                and all(np.array_equal(v, store[n].data) for n, v in self.params.items()))


def check_lengths(mt_config: MtConfig, tc_config: TcConfig):
    """Raise ``ValueError`` unless the classifier holds, after CLS, every step
    the translator may decode."""
    if tc_config.max_len - 1 < mt_config.max_decode_len:
        raise ValueError(f"classifier max_len {tc_config.max_len} leaves "
                         f"{tc_config.max_len - 1} steps after CLS, fewer than the "
                         f"translator's max_decode_len {mt_config.max_decode_len}")


class TranslateTestPipeline:
    def __init__(self, mt: MtModel, tc: TcModel,
                 freezing: FreezingPolicy | None = None):
        assert_alignment(mt.vocab, tc.vocab)
        check_lengths(mt.config, tc.config)
        self.mt = mt
        self.tc = tc
        self.vocab: Vocabulary = mt.vocab
        self.freezing = freezing or FreezingPolicy()
        apply_freezing(self, self.freezing)
        # the last predict_batch's translation, for the next predict_hard_batch
        self._translation: _Translation | None = None

    # ------------------------------------------------------------------
    # freezing bookkeeping
    # ------------------------------------------------------------------

    def trainable_parameters(self):
        return self.mt.store.trainable() + self.tc.store.trainable()

    def trainable_param_count(self) -> int:
        return self.mt.store.num_params(trainable_only=True) + \
            self.tc.store.num_params(trainable_only=True)

    def single_model_param_count(self) -> int:
        """The larger of the two models' total parameter counts."""
        return max(self.mt.store.num_params(), self.tc.store.num_params())

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def predict(self, target_ids) -> Prediction:
        """Soft path: soft decode -> expected embeddings -> classifier."""
        return self.predict_batch([list(target_ids)])[0]

    def predict_batch(self, target_ids_batch: list[list[int]]) -> list[Prediction]:
        """Soft-path predictions. Each row block keeps its expected embeddings
        p @ E, made as soon as the block has decoded, instead of its step
        distributions (``TcModel.expected_embeddings``). The batch's greedy
        tokens are kept, with a snapshot of what they were decoded from, for
        the next ``predict_hard_batch``."""
        self._translation = None
        src = _pad_batch([list(s) for s in target_ids_batch], self.vocab.pad_id)
        decoded = self.mt.greedy_decode_batch(src, keep_probs=self.tc.expected_embeddings)
        preds = self.tc.classify_soft_values(decoded.blocks, decoded.lengths, embedded=True)
        self._translation = _Translation(src, dataclasses.replace(self.mt.config),
                                         self.mt.store.state(), list(decoded))
        return preds

    def predict_hard(self, target_ids) -> Prediction:
        """Comparison path: greedy tokens fed to the classifier as ids."""
        return self.predict_hard_batch([list(target_ids)])[0]

    def predict_hard_batch(self, target_ids_batch: list[list[int]]) -> list[Prediction]:
        """Hard-path predictions. Right after ``predict_batch`` of the same
        batch, with the translator's config and every parameter value
        unchanged, the greedy tokens that call decoded are classified: they
        are the soft path's argmax, bitwise what a new decode gives. Any
        other call decodes. Either way the kept tokens are dropped."""
        src = _pad_batch([list(s) for s in target_ids_batch], self.vocab.pad_id)
        kept, self._translation = self._translation, None
        if kept is not None and kept.decodes_alike(src, self.mt):
            decoded = kept.tokens
        else:
            decoded = self.mt.greedy_decode_batch(src)
        return self.tc.classify_tokens_batch([list(seq) for seq in decoded])

    def predict_forced_onehot_batch(self, target_ids_batch) -> list[Prediction]:
        """Soft path with every p_j replaced by the one-hot of its argmax."""
        src = _pad_batch([list(s) for s in target_ids_batch], self.vocab.pad_id)
        decoded = self.mt.greedy_decode_batch(src, keep_probs=True)
        for block in decoded.blocks:  # padding a one-hot block adds PAD's one-hot
            arg = block.argmax(axis=-1)
            block[:] = 0.0
            np.put_along_axis(block, arg[..., None], 1.0, axis=-1)
        return self.tc.classify_soft_values(decoded.blocks, decoded.lengths)

    # ------------------------------------------------------------------
    # joint fine-tuning
    # ------------------------------------------------------------------

    def task_loss(self, target_ids, label, draft=None, return_tokens=False):
        """Differentiable end-to-end task loss for one target-language sample.

        ``draft`` is a guess at the sample's greedy translation, passed to
        ``MtModel.soft_decode``: it changes only the cost, never the loss or
        its gradients. With ``return_tokens`` the result is ``(loss,
        tokens)``, the tokens being the verified greedy translation."""
        st = self.mt.soft_decode(list(target_ids), draft)
        probs = ad.reshape(st.probs, (1, len(st), len(self.vocab)))
        logits = self.tc.logits_soft(probs, np.asarray([len(st)]))
        loss = self.tc.loss(logits, self.tc.targets([label]))
        return (loss, st.tokens) if return_tokens else loss

    def finetune_end_to_end(self, few_shot_data, selection_dev,
                            config: TrainConfig) -> FitResult:
        """Joint fine-tuning on k target-language shots, one shot per backward
        pass; ``grad_accum`` sets how many shots one optimizer step sums.

        The task loss backpropagates through the classifier, the bridge and
        the soft decode into every non-frozen parameter of both models. Each
        shot's soft decode is the greedy fixed point of its teacher-forced
        pass (``argmax(probs) == tokens`` exactly); one batched greedy decode
        of all shots at the starting weights gives each shot its first draft
        and each verified translation is that shot's next draft, so most
        shots skip the step-by-step decode while every loss and gradient
        stays bitwise what a decode without drafts gives.
        Checkpoint selection uses the selection-dev split (accuracy or mRP).
        ``config.batch_size`` must be 1: there is no batched task loss, and
        a larger value is rejected rather than ignored.
        """
        if not few_shot_data:
            raise ValueError("finetune_end_to_end needs k >= 1 samples; use predict for zero-shot")
        if config.batch_size != 1:
            raise ValueError(f"finetune_end_to_end supports batch_size=1 only, got "
                             f"batch_size={config.batch_size}; use grad_accum to sum shots")
        enc = [(self.mt.source_ids(toks), label) for toks, label in few_shot_data]
        drafts = self.mt.greedy_decode_batch(_pad_batch([ids for ids, _ in enc],
                                                        self.vocab.pad_id))

        def shot_loss(idx):
            i = idx[0]
            loss, drafts[i] = self.task_loss(*enc[i], draft=drafts[i], return_tokens=True)
            return loss

        return fit([self.mt.store, self.tc.store], len(enc), shot_loss,
                   lambda: self.evaluate_metric(selection_dev), config)

    def evaluate_metric(self, labeled_data, hard: bool = False) -> float:
        """Accuracy (multi-class) or mRP (multi-label) of the pipeline on
        target-language labeled samples."""
        ids = [self.mt.source_ids(toks) for toks, _ in labeled_data]
        preds = self.predict_hard_batch(ids) if hard else self.predict_batch(ids)
        return score(preds, [label for _, label in labeled_data], self.tc.config.multi_label)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.mt.save(directory / "mt.npz")
        self.tc.save(directory / "tc.npz")
        write_json(directory / "pipeline.json", {"format_version": 1,
                                                 "freezing": asdict(self.freezing),
                                                 "vocab_hash": vocab_hash(self.vocab)})
        self.vocab.save(directory / "vocab.txt")

    @classmethod
    def load(cls, directory) -> "TranslateTestPipeline":
        directory = Path(directory)
        path = directory / "pipeline.json"
        meta = read_json(path, ("freezing", "vocab_hash"))
        try:
            freezing = FreezingPolicy(**meta["freezing"])
        except (TypeError, ValueError) as exc:  # unknown, missing or out-of-range fields
            raise ValueError(f"{path}: {exc}") from exc
        vocab = Vocabulary.load(directory / "vocab.txt")
        if vocab_hash(vocab) != meta["vocab_hash"]:
            raise ValueError(f"{path}: vocabulary hash mismatch: vocab_hash "
                             f"{meta['vocab_hash']!r}, but {directory / 'vocab.txt'} hashes "
                             f"to {vocab_hash(vocab)!r}")
        mt = MtModel.load(directory / "mt.npz", vocab)
        tc = TcModel.load(directory / "tc.npz", vocab)
        return cls(mt, tc, freezing)


def vocab_hash(vocab: Vocabulary) -> str:
    return hashlib.sha256("\n".join(vocab.tokens).encode()).hexdigest()


def apply_freezing(pipeline: TranslateTestPipeline, policy: FreezingPolicy):
    """Freeze the lowest ceil(fraction*N) translator layers (plus its token and
    positional embeddings) and the highest ceil(fraction*N) classifier encoder
    layers (plus the head when requested)."""
    mt, tc = pipeline.mt, pipeline.tc
    for store in (mt.store, tc.store):
        for group in store.groups:
            store.set_group_frozen(group, False)

    mt_stack = mt.layer_stack()
    n_freeze = math.ceil(policy.mt_fraction * len(mt_stack))
    if policy.mt_fraction > 0:
        mt.store.set_group_frozen("embed", True)
    for group in mt_stack[:n_freeze]:
        mt.store.set_group_frozen(group, True)

    tc_stack = tc.layer_stack()
    n_freeze = math.ceil(policy.tc_fraction * len(tc_stack))
    for group in tc_stack[len(tc_stack) - n_freeze:]:
        tc.store.set_group_frozen(group, True)
    if policy.freeze_tc_head:
        tc.store.set_group_frozen("head", True)
    pipeline.freezing = policy


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def translate_corpus(reverse_mt: MtModel, samples) -> list:
    """Token-wise translate labeled samples with an en->target translator."""
    ids = [reverse_mt.source_ids(toks) for toks, _ in samples]
    return [(toks, label) for toks, (_, label) in zip(translate(reverse_mt, ids), samples)]
