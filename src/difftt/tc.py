"""Text classifier with an explicit token embedding matrix.

An encoder-only transformer: embedding lookup (or externally provided
expected embeddings), learned positions, encoder stack, masked mean pooling
and a linear head. Supports a multi-class softmax head or a multi-label
per-label sigmoid head. Token ids and soft translations take the same
encoder pass; the soft path only replaces the embedding lookup by the
expected embeddings p @ E, so one-hot inputs reproduce the token path bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bridge
from .autodiff import Tensor, no_grad
from .checkpoint import ModelFile
from .fields import check_fields
from .layers import EncoderLayer
from .metrics import score
from .mt import _block_rows, _pad_batch, _row_blocks, map_blocks, pad_steps
from .optim import FitResult, TrainConfig, fit
from .params import ParamStore
from .vocab import Vocabulary


@dataclass
class TcConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_len: int = 34          # CLS + translation incl. its EOS step
    n_classes: int = 3         # classes (multi-class) or labels (multi-label)
    multi_label: bool = False

    def __post_init__(self):
        check_fields(self, at_least=dict(d_model=1, n_layers=0, n_heads=1, d_ff=1,
                                         max_len=2, n_classes=1))
        if self.d_model % self.n_heads:
            raise ValueError(f"TcConfig.d_model={self.d_model}: must be divisible by "
                             f"n_heads={self.n_heads}")


class Prediction:
    """One row of a batch of classifier outputs.

    Holds its batch's (logits, scores, ranked) arrays, its row index and its
    ``label``; ``logits``, ``scores`` and ``ranked`` are views of that row,
    made when read, so a kept prediction costs a few pointers and not four
    array objects. ``label`` is the argmax class for multi-class heads and
    None for multi-label ones; ``scores`` are softmax probabilities or
    per-label sigmoid scores; ``ranked`` orders label ids by descending
    score, ties to the lowest index.
    """
    __slots__ = ("_batch", "_row", "label")

    def __init__(self, batch: tuple[np.ndarray, np.ndarray, np.ndarray], row: int,
                 label: int | None):
        self._batch = batch
        self._row = row
        self.label = label

    @property
    def logits(self) -> np.ndarray:
        return self._batch[0][self._row]

    @property
    def scores(self) -> np.ndarray:
        return self._batch[1][self._row]

    @property
    def ranked(self) -> np.ndarray:
        return self._batch[2][self._row]

    def __repr__(self):
        return f"Prediction(label={self.label}, logits={self.logits})"


def rank_labels(scores: np.ndarray) -> np.ndarray:
    """Descending-score label order along the last axis, with deterministic
    lowest-index tie-breaks."""
    return np.argsort(-scores, axis=-1, kind="stable")


class TcModel(ModelFile):
    kind, config_cls = "tc", TcConfig

    def __init__(self, vocab: Vocabulary, config: TcConfig | None = None, seed: int = 0):
        self.vocab = vocab
        self.config = config or TcConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.store = ParamStore(rng)
        v, d = len(vocab), cfg.d_model
        self.emb = self.store.embedding("emb", v, d, "embed")
        self.pos = self.store.embedding("pos", cfg.max_len, d, "embed")
        self.enc_layers = [
            EncoderLayer(self.store, f"enc{i}", d, cfg.n_heads, cfg.d_ff, f"enc{i}")
            for i in range(cfg.n_layers)
        ]
        self.final_ln = self.store.layer_norm("final_ln", d, "head")
        self.head = self.store.linear("head", d, cfg.n_classes, "head")

    def layer_stack(self) -> list[str]:
        return [f"enc{i}" for i in range(self.config.n_layers)]

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _forward_embedded(self, body: Tensor, lengths: np.ndarray, head: bool = True) -> Tensor:
        """The one encoder pass of every input path. body: (B, T, d) input
        embeddings without CLS; lengths: (B,) valid steps per row. Prepends
        the CLS embedding, adds positions and masks each row past CLS plus
        its length. Returns the logits (B, C), or without ``head`` the pooled
        features (B, d) that the head reads."""
        b, t = body.shape[0], body.shape[1] + 1
        if t > self.config.max_len:
            raise ValueError(f"input of {t - 1} steps plus CLS exceeds max_len "
                             f"{self.config.max_len}")
        cls = ad.embedding(self.emb.tensor, np.full((b, 1), self.vocab.cls_id))
        x = ad.add(ad.concat([cls, body], axis=1), ad.embedding(self.pos.tensor, np.arange(t)))
        valid = (np.arange(t)[None, :] < (np.asarray(lengths) + 1)[:, None]).astype(np.float64)
        mask = np.where(valid[:, None, None, :].astype(bool), 0.0, -1e9)
        for layer in self.enc_layers:
            x = layer(x, mask)
        x = ad.layer_norm(x, self.final_ln[0].tensor, self.final_ln[1].tensor)
        pooled = ad.masked_mean_pool(x, valid)
        return ad.affine(pooled, self.head[0].tensor, self.head[1].tensor) if head else pooled

    def _blocked_logits(self, body_of, blocks: list[slice], lengths: np.ndarray) -> np.ndarray:
        """Gradient-free logits: the encoder runs on each row block of
        ``blocks`` (two at a time, see ``mt.map_blocks``), ``body_of(i)``
        giving block i's input embeddings, and the head once on every row's
        pooled features. A 2-D GEMM's rows depend on its row count, so one
        head GEMM keeps the logits bitwise those of a one-block pass; every
        other op works row by row."""
        pooled = np.concatenate(map_blocks(
            lambda i: self._forward_embedded(body_of(i), lengths[blocks[i]], head=False).data,
            range(len(blocks))))
        with no_grad():
            return ad.affine(Tensor(pooled), self.head[0].tensor, self.head[1].tensor).data

    def logits_tokens(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Batched token-path logits. ids: (B, T) PAD-padded, CLS not prepended."""
        return self._forward_embedded(ad.embedding(self.emb.tensor, ids), lengths)

    def logits_soft(self, probs: Tensor, lengths: np.ndarray) -> Tensor:
        """Batched, differentiable soft-path logits. probs: (B, M, V) step
        distributions, PAD one-hot rows past each row's length; the expected
        embeddings probs @ E take the place of the token lookup."""
        return self._forward_embedded(bridge.expected_embedding(probs, self.emb.tensor),
                                      lengths)

    def classify_tokens_batch(self, seqs: list[list[int]]) -> list[Prediction]:
        """Token-path predictions, in row blocks at the batch's padded length;
        each sequence is cut to max_len - 1 tokens. An empty row or an id
        outside the vocabulary raises ``ValueError``."""
        seqs = [s[: self.config.max_len - 1] for s in seqs]
        ids = _pad_batch(seqs, self.vocab.pad_id)
        lengths = np.asarray([len(s) for s in seqs])
        if not lengths.all():
            raise ValueError(f"empty input sequence in row {int(np.argmin(lengths))}")
        if ids.min() < 0 or ids.max() >= len(self.vocab):
            raise ValueError("token id out of vocabulary range")
        blocks = _row_blocks(len(seqs))
        return self._predictions(self._blocked_logits(
            lambda i: ad.embedding(self.emb.tensor, ids[blocks[i]]), blocks, lengths))

    def evaluate_metric(self, labeled) -> float:
        """Accuracy (multi-class) or mRP (multi-label) of the token path on
        labeled samples, (tokens, label) pairs."""
        preds = self.classify_tokens_batch([self.vocab.encode(toks) for toks, _ in labeled])
        return score(preds, [label for _, label in labeled], self.config.multi_label)

    def expected_embeddings(self, probs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """What the soft path keeps of a block of step distributions (n, m, V),
        as ``classify_soft_values(..., embedded=True)`` takes it: the PAD
        one-hot is written over every step past each row's length (in place),
        and for m >= 2 the block becomes its expected embeddings p @ E
        (n, m, d). Their rows do not depend on m, so they are bitwise those of
        the block padded to the batch's step count first. A 1-step product
        takes another BLAS path (gemv) than a longer one, so a 1-step block
        is kept as distributions and bridged once the batch's step count is
        known."""
        probs[np.arange(probs.shape[1])[None, :] >= lengths[:, None]] = \
            np.eye(probs.shape[2])[self.vocab.pad_id]
        if probs.shape[1] == 1:
            return probs
        return bridge.expected_embedding(Tensor(probs), self.emb.tensor).data

    def classify_soft_values(self, blocks: list[np.ndarray], lengths: np.ndarray,
                             embedded: bool = False) -> list[Prediction]:
        """Gradient-free `logits_soft` predictions for evaluation from the
        step distributions of consecutive row blocks, (n, m_b, V) each, as
        ``MtModel.greedy_decode_batch`` keeps them; a (B, M, V) array is
        ``[probs]``. Each block is padded to the batch's step count
        max(lengths) just before its encoder pass, and the list lets go of
        the unpadded block (its entry becomes None) before that pass, so the
        distributions are held about once, never as a padded (B, M, V)
        array beside the decode's. With ``embedded``, the blocks are those of
        ``expected_embeddings`` instead, and a block of embeddings is padded
        with E's PAD row, which is p @ E of the PAD one-hot, bitwise."""
        lengths = np.asarray(lengths)
        if not len(lengths):
            raise ValueError("empty batch: a batch needs at least one row")
        if (any(np.ndim(block) != 3 for block in blocks)
                or sum(len(block) for block in blocks) != len(lengths)):
            raise ValueError("classify_soft_values takes a list of (n, m, V) blocks "
                             "that together hold one row per length")
        steps = np.concatenate([np.full(len(block), block.shape[1]) for block in blocks])
        outside = np.flatnonzero((lengths < 1) | (lengths > steps))
        if outside.size:
            i = outside[0]
            raise ValueError(f"row {i}: length {lengths[i]} is outside [1, {steps[i]}], "
                             "its block's step count")
        m = int(lengths.max())
        rows = _block_rows(blocks)

        def body_of(i):
            block, blocks[i] = blocks[i], None
            if embedded and block.shape[1] > 1:
                body = np.empty((len(block), m, block.shape[2]))
                body[:, :block.shape[1]] = block
                body[:, block.shape[1]:] = self.emb.data[self.vocab.pad_id]
                return Tensor(body)
            padded = pad_steps(block, lengths[rows[i]], m, self.vocab.pad_id)
            return bridge.expected_embedding(Tensor(padded), self.emb.tensor)

        return self._predictions(self._blocked_logits(body_of, rows, lengths))

    def _predictions(self, logits: np.ndarray) -> list[Prediction]:
        """One Prediction per row of a (B, C) logits array; the rows share
        the batch arrays."""
        if self.config.multi_label:
            scores = ad.sigmoid_values(logits)
            labels = [None] * len(logits)
        else:
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            scores = e / e.sum(axis=-1, keepdims=True)
            labels = [int(i) for i in np.argmax(logits, axis=-1)]
        batch = (logits, scores, rank_labels(scores))
        return [Prediction(batch, i, label) for i, label in enumerate(labels)]

    def targets(self, labels) -> np.ndarray:
        """The loss targets of ``labels``: class ids (N,) for a multi-class
        head, a binary (N, L) matrix of label sets for a multi-label one. A
        label outside the head raises ``ValueError``."""
        n, multi_label = self.config.n_classes, self.config.multi_label
        ids = [int(l) for labs in labels for l in labs] if multi_label else [int(l) for l in labels]
        if not all(0 <= l < n for l in ids):
            raise ValueError(f"label out of range [0, {n})")
        if not multi_label:
            return np.asarray(ids, dtype=np.int64)
        out = np.zeros((len(labels), n))
        for i, labs in enumerate(labels):
            out[i, list(labs)] = 1.0
        return out

    def loss(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Mean cross-entropy (multi-class) or per-label binary cross-entropy
        (multi-label) of (B, C) ``logits`` against rows of ``targets``."""
        if self.config.multi_label:
            return ad.binary_cross_entropy_per_label(logits, targets)
        return ad.cross_entropy(logits, targets)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_tc(model: TcModel, train_data, dev_data, config: TrainConfig,
             checkpoint_dir=None) -> FitResult:
    """Train the classifier with CE (multi-class) or per-label BCE (multi-label).

    ``train_data``/``dev_data``: lists of (token sequence, label) where the
    label is an int for multi-class heads and an iterable of ints for
    multi-label heads. Checkpoint selection uses validation accuracy or mean
    R-Precision according to the head kind.
    """
    vocab = model.vocab
    enc = [vocab.encode(toks)[: model.config.max_len - 1] for toks, _ in train_data]
    targets = model.targets([label for _, label in train_data])

    def batch_loss(idx):
        seqs = [enc[i] for i in idx]
        logits = model.logits_tokens(_pad_batch(seqs, vocab.pad_id),
                                     np.asarray([len(s) for s in seqs]))
        return model.loss(logits, targets[idx])

    return fit([model.store], len(enc), batch_loss, lambda: model.evaluate_metric(dev_data),
               config, model.epoch_saver(checkpoint_dir))
