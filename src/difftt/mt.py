"""Sequence-to-sequence translator: transformer encoder-decoder over the shared
vocabulary, with greedy decoding and "soft" decoding that keeps the per-step
vocabulary distributions differentiable.

The decoder always conditions on the hard argmax token of the previous step;
only the emitted probability vectors carry gradient (the argmax feedback path
does not). Greedy decoding is incremental: each step feeds only the newest
token column and reads earlier keys and values from a per-layer cache.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .checkpoint import ModelFile
from .fields import check_fields
from .layers import (DecoderLayer, EncoderLayer, KVCache, append_along, causal_attention_mask,
                     pad_attention_mask)
from .optim import FitResult, TrainConfig, fit
from .params import ParamStore
from .vocab import Vocabulary


@dataclass
class MtConfig:
    d_model: int = 64
    n_layers: int = 2          # encoder layers; the decoder has the same count
    n_heads: int = 2
    d_ff: int = 128
    max_source_len: int = 32
    max_decode_len: int = 32
    temperature: float = 1.0
    dropout: float = 0.0       # not implemented: kept so stored configs load; must be 0

    def __post_init__(self):
        check_fields(self, at_least=dict(d_model=1, n_layers=0, n_heads=1, d_ff=1,
                                         max_source_len=1, max_decode_len=1))
        if self.dropout != 0.0:
            raise ValueError(f"MtConfig.dropout={self.dropout}: the translator has no dropout")
        if not self.temperature > 0:
            raise ValueError(f"MtConfig.temperature={self.temperature}: must be > 0")
        if self.d_model % self.n_heads:
            raise ValueError(f"MtConfig.d_model={self.d_model}: must be divisible by "
                             f"n_heads={self.n_heads}")


@dataclass
class SoftTranslation:
    """Per-step distributions {p_1..p_m} plus the greedy tokens {t_1..t_m}.

    The final step is the EOS-producing one (when EOS was reached within the
    decode budget). ``probs`` is an (m, V) Tensor, the teacher-forced pass
    over the tokens, and the tokens are that pass's greedy fixed point:
    ``argmax(probs) == tokens`` holds exactly, row by row.
    """
    probs: Tensor
    tokens: np.ndarray

    def __len__(self):
        return len(self.tokens)


class GreedyDecode(list):
    """The greedy tokens of a batch, one array per row up to and including
    EOS (when reached within the budget), plus ``lengths`` (B,) and, when
    kept, ``blocks``: the step distributions of each row block, in row order,
    as the decode produced them, (n, m_b, V) with m_b that block's own step
    count, or what ``keep_probs`` made of them. ``pad_steps`` pads a block to
    the batch's step count M = max(lengths)."""
    lengths: np.ndarray
    blocks: list[np.ndarray] | None = None


class DecodeCache:
    """State of one incremental decode of a batch: the token columns fed so
    far and a (self-attention, cross-attention) cache pair per decoder layer."""

    def __init__(self, n_layers: int):
        self.layers = [(KVCache(), KVCache(static=True)) for _ in range(n_layers)]
        self.ids: np.ndarray | None = None
        self.length = 0


class MtModel(ModelFile):
    kind, config_cls = "mt", MtConfig

    def __init__(self, vocab: Vocabulary, config: MtConfig | None = None, seed: int = 0):
        self.vocab = vocab
        self.config = config or MtConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.store = ParamStore(rng)
        v, d = len(vocab), cfg.d_model
        self.emb = self.store.embedding("emb", v, d, "embed")
        self.enc_pos = self.store.embedding("enc_pos", cfg.max_source_len, d, "embed")
        self.dec_pos = self.store.embedding("dec_pos", cfg.max_decode_len + 1, d, "embed")
        self.enc_layers = [
            EncoderLayer(self.store, f"enc{i}", d, cfg.n_heads, cfg.d_ff, f"enc{i}")
            for i in range(cfg.n_layers)
        ]
        self.dec_layers = [
            DecoderLayer(self.store, f"dec{i}", d, cfg.n_heads, cfg.d_ff, f"dec{i}")
            for i in range(cfg.n_layers)
        ]
        self.enc_ln = self.store.layer_norm("enc_ln", d, "out")
        self.dec_ln = self.store.layer_norm("dec_ln", d, "out")
        self.out_proj = self.store.linear("out", d, v, "out")

    def layer_stack(self) -> list[str]:
        """Freezable layer groups ordered from the input side."""
        n = self.config.n_layers
        return [f"enc{i}" for i in range(n)] + [f"dec{i}" for i in range(n)]

    def source_ids(self, tokens: list[str]) -> list[int]:
        """The token ids of a source sentence, cut to ``max_source_len``."""
        return self.vocab.encode(tokens)[: self.config.max_source_len]

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def encode(self, src_ids: np.ndarray):
        """src_ids: (B, Ts) -> (memory Tensor (B, Ts, d), cross-attention mask)."""
        src_ids = np.asarray(src_ids)
        if src_ids.shape[1] == 0:
            raise ValueError("empty source sequence")
        if src_ids.shape[1] > self.config.max_source_len:
            raise ValueError(
                f"source length {src_ids.shape[1]} exceeds max {self.config.max_source_len}"
            )
        x = ad.embedding(self.emb.tensor, src_ids)
        x = ad.add(x, ad.embedding(self.enc_pos.tensor, np.arange(src_ids.shape[1])))
        mask = pad_attention_mask(src_ids, self.vocab.pad_id)
        for layer in self.enc_layers:
            x = layer(x, mask)
        memory = ad.layer_norm(x, self.enc_ln[0].tensor, self.enc_ln[1].tensor)
        return memory, mask

    def decode_logits(self, memory: Tensor, cross_mask: np.ndarray,
                      tgt_in: np.ndarray, cache: DecodeCache | None = None) -> Tensor:
        """Decoder pass. tgt_in: (B, Tt) -> logits (B, Tt, V).

        Without a cache the pass is teacher-forced over the whole prefix. With
        one, ``tgt_in`` is the (B, 1) column of the next step's inputs and the
        earlier steps come from the cache, which the call extends; this mode
        is gradient-free.
        """
        tgt_in = np.asarray(tgt_in)
        t = tgt_in.shape[1]
        pad = self.vocab.pad_id
        if cache is None:
            start, layer_caches = 0, [None] * len(self.dec_layers)
            self_mask = causal_attention_mask(t) + pad_attention_mask(tgt_in, pad)
        else:
            if t != 1:
                raise ValueError(f"a cached decode step takes one token column, got {t}")
            if ad.grad_enabled():
                raise RuntimeError("cached decoding is gradient-free; run it under no_grad()")
            start, layer_caches = cache.length, cache.layers
            cache.ids = append_along(cache.ids, start, tgt_in, axis=1)
            cache.length += 1
            # the newest query sees every earlier step, so only PAD keys are hidden
            self_mask = pad_attention_mask(cache.ids[:, :cache.length], pad)
        x = ad.embedding(self.emb.tensor, tgt_in)
        x = ad.add(x, ad.embedding(self.dec_pos.tensor, np.arange(start, start + t)))
        for layer, layer_cache in zip(self.dec_layers, layer_caches):
            x = layer(x, memory, self_mask, cross_mask, layer_cache)
        x = ad.layer_norm(x, self.dec_ln[0].tensor, self.dec_ln[1].tensor)
        return ad.affine(x, self.out_proj[0].tensor, self.out_proj[1].tensor)

    def greedy_decode_batch(self, src_ids: np.ndarray, keep_probs=False) -> GreedyDecode:
        """Batched incremental greedy decoding.

        A step's token is the argmax of its distribution (ties break to the
        lowest index, as np.argmax does), so argmax(probs) == tokens holds by
        construction. The rows run in blocks of ``BLOCK_ROWS`` (two at a
        time, see ``map_blocks``), each block encoded and decoded on its own
        with the batch's source padding; a block stops once its own rows have
        all emitted EOS, so a row that never does costs only its block the
        full budget. Within a block, rows that emitted EOS are fed PAD, which
        stays masked as a key. Every row's arithmetic is that of a one-block
        decode, so the outputs are bitwise equal to it. ``keep_probs`` keeps
        each block's distributions as ``blocks``, unpadded and uncopied; a
        callable ``keep_probs(probs, lengths)`` is called instead on each
        block's distributions, which it may overwrite, and its rows' lengths
        as soon as the block has decoded, and ``blocks`` keeps what it
        returns.
        """
        src_ids = np.asarray(src_ids)
        eos = self.vocab.eos_id

        def decode(rows):
            memory, cross_mask = self.encode(src_ids[rows])
            steps, dists = self._greedy_steps(memory, cross_mask, keep_probs)
            del memory, cross_mask  # the encoder output goes before the block's result is made
            tokens = np.stack(steps, axis=1)
            if not keep_probs:
                return tokens, None
            probs = np.stack(dists, axis=1)
            del dists
            return tokens, keep_probs(probs, _lengths(tokens, eos)) if callable(keep_probs) \
                else probs

        row_blocks = _row_blocks(len(src_ids))
        blocks = map_blocks(decode, row_blocks)
        m = max(block_tokens.shape[1] for block_tokens, _ in blocks)
        # a block that stopped early has every row's EOS, so PAD past it is never read
        tokens = np.full((len(src_ids), m), self.vocab.pad_id, dtype=np.int64)
        for rows, (block_tokens, _) in zip(row_blocks, blocks):
            tokens[rows, :block_tokens.shape[1]] = block_tokens
        lengths = _lengths(tokens, eos)
        out = GreedyDecode(tokens[i, :n] for i, n in enumerate(lengths))
        out.lengths = lengths
        if keep_probs:
            out.blocks = [kept for _, kept in blocks]
        return out

    def _greedy_steps(self, memory: Tensor, cross_mask: np.ndarray, keep_probs: bool):
        """The decode loop over encoder output ``memory`` (B, Ts, d): per-step
        token arrays (B,) and, when kept, the step distributions (B, V). The
        loop stops once every row has emitted EOS, or at the budget. It runs
        gradient-free; the cache dies with the call, before the caller
        assembles the outputs."""
        b = memory.shape[0]
        pad, eos = self.vocab.pad_id, self.vocab.eos_id
        steps, dists = [], []
        with no_grad():
            cache = DecodeCache(len(self.dec_layers))
            step_in = np.full((b, 1), self.vocab.bos_id, dtype=np.int64)
            finished = np.zeros(b, dtype=bool)
            for _ in range(self.config.max_decode_len):
                logits = self.decode_logits(memory, cross_mask, step_in, cache)
                p = ad.softmax(logits, temperature=self.config.temperature).data[:, 0]
                step = np.argmax(p, axis=-1)
                steps.append(step)
                if keep_probs:
                    dists.append(p)
                finished |= step == eos
                if finished.all():
                    break
                step_in = np.where(finished, pad, step)[:, None]
        return steps, dists

    def soft_decode(self, source_ids, draft=None) -> SoftTranslation:
        """Greedy tokens and their per-step distributions on the tape.

        The tokens are the greedy fixed point of the teacher-forced decoder
        pass: fed BOS plus its own tokens, the pass's argmax at every step is
        that step's token, so ``argmax(probs) == tokens`` holds exactly. The
        source is encoded once, on the tape. A pass is checked against a
        guess, the ``draft`` (token ids; the gradient-free cached greedy
        decode when None); a rejected pass's argmax, cut at its first EOS, is
        the next guess, fed one position longer while it lacks EOS and is
        under the budget. Each pass fixes at least one more leading token, so
        a wrong draft costs at most len(tokens) + 1 passes, and a draft only
        changes speed: the returned pass is the one teacher-forced pass over
        the final tokens, so probabilities and gradients are bitwise those of
        a decode without one. Conditioning is on hard tokens; only the
        probabilities carry gradient w.r.t. the translator parameters.
        """
        memory, cross_mask = self.encode(np.asarray([list(source_ids)]))

        def greedy():
            # one row: the loop ends at its EOS (or the budget), so every step is kept
            return np.concatenate(self._greedy_steps(memory, cross_mask, False)[0])

        tokens = greedy() if draft is None else self._check_draft(draft)
        for _ in range(self.config.max_decode_len + 1):
            probs, step = self._forced_pass(memory, cross_mask, tokens)
            if np.array_equal(step, tokens):
                return SoftTranslation(probs=probs, tokens=tokens)
            tokens = _through_eos(step, self.vocab.eos_id)
        # unreachable unless float rounding at an argmax near-tie differs
        # between pass lengths; the cached greedy tokens then stand
        tokens = greedy()
        return SoftTranslation(probs=self._forced_pass(memory, cross_mask, tokens)[0],
                               tokens=tokens)

    def _check_draft(self, draft) -> np.ndarray:
        """A draft as a 1-D int64 array, cut at its first EOS; malformed ones raise."""
        draft = np.asarray(draft)
        if draft.ndim != 1 or draft.size == 0:
            raise ValueError(f"a draft is a non-empty 1-D token sequence, got shape {draft.shape}")
        if not np.issubdtype(draft.dtype, np.integer):
            raise ValueError(f"draft token ids must be integers, got dtype {draft.dtype}")
        if draft.size > self.config.max_decode_len:
            raise ValueError(f"draft length {draft.size} exceeds max_decode_len "
                             f"{self.config.max_decode_len}")
        if draft.min() < 0 or draft.max() >= len(self.vocab):
            raise ValueError(f"draft holds token ids outside the vocabulary "
                             f"[0, {len(self.vocab)})")
        return _through_eos(draft.astype(np.int64), self.vocab.eos_id)

    def _forced_pass(self, memory: Tensor, cross_mask: np.ndarray, tokens: np.ndarray):
        """One teacher-forced pass on the tape over BOS + ``tokens``: (step
        distributions Tensor, their argmax). Finished tokens (ending in EOS or
        filling the budget) are fed without their last one, giving one row per
        token; unfinished ones are fed whole, giving one row more."""
        finished = tokens[-1] == self.vocab.eos_id or len(tokens) == self.config.max_decode_len
        dec_in = np.concatenate([[self.vocab.bos_id], tokens[:-1] if finished else tokens])
        logits = self.decode_logits(memory, cross_mask, dec_in[None, :])
        probs = ad.softmax(logits, temperature=self.config.temperature)
        probs = ad.reshape(probs, (len(dec_in), len(self.vocab)))
        return probs, np.argmax(probs.data, axis=-1)

    def soft_decode_values(self, src_ids: np.ndarray):
        """Batched, gradient-free soft decode: the step distributions of the
        greedy decode itself, assembled into one array.

        Returns (probs (B, M, V) ndarray, tokens list of arrays, lengths (B,)).
        Positions past each sample's length are PAD one-hot rows. Evaluation
        classifies ``greedy_decode_batch``'s blocks instead and never builds
        this array.
        """
        decoded = self.greedy_decode_batch(src_ids, keep_probs=True)
        lengths = decoded.lengths
        probs = np.empty((len(lengths), int(lengths.max()), len(self.vocab)))
        for rows, block in zip(_block_rows(decoded.blocks), decoded.blocks):
            probs[rows] = pad_steps(block, lengths[rows], probs.shape[1], self.vocab.pad_id)
        return probs, list(decoded), lengths


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class MtTrainResult(FitResult):
    """``fit``'s result; the validation metric is corpus BLEU."""

    @property
    def val_bleu(self) -> list[float]:
        return self.val_metric


def _through_eos(tokens: np.ndarray, eos_id: int) -> np.ndarray:
    """``tokens`` up to and including the first EOS, or all of them."""
    hits = np.flatnonzero(tokens == eos_id)
    return tokens[:hits[0] + 1] if hits.size else tokens


# Rows that a gradient-free batch path (greedy decoding, classification)
# runs at once. Blocks keep the whole batch's padding, so every row's
# arithmetic, and with it every output float, is independent of this value;
# only peak memory and speed depend on it.
BLOCK_ROWS = 64


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most ``BLOCK_ROWS`` consecutive rows covering ``n`` rows;
    an empty batch raises ``ValueError``."""
    if n == 0:
        raise ValueError("empty batch: a batch needs at least one row")
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


class _BlockThread(threading.local):
    """Whether the calling thread is running a block of ``map_blocks``."""
    busy = False


_BLOCK_THREAD = _BlockThread()
_helper = None  # a one-thread executor, made on first paired use
_helper_lock = threading.Lock()


def _run_block(fn, block):
    busy, _BLOCK_THREAD.busy = _BLOCK_THREAD.busy, True
    try:
        with no_grad():
            return fn(block)
    finally:
        _BLOCK_THREAD.busy = busy


def _forget_helper():
    """In a forked child, which has no helper thread: make another on use."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


def map_blocks(fn, blocks) -> list:
    """``[fn(block) for block in blocks]``, each call gradient-free.

    With more than one CPU in this process's affinity and two or more
    blocks, the blocks run in pairs: the first of a pair on the calling
    thread, the second on one helper thread, which starts on first use and
    is shared by every call. The caller waits for the helper's block before
    it goes on, returns or re-raises, so the helper is idle whenever no call
    is running; an exception in the first block of a pair wins over one in
    the second, so the exception is that of a run in row order. A block's
    ops never depend on another block's, so the results are bitwise those of
    that run; numpy releases the GIL in BLAS and in large ufunc loops, which
    is where the pair overlaps. One block, one CPU (or no affinity call on
    this platform), or a call from inside a block runs in row order on the
    calling thread.
    """
    if (len(blocks) < 2 or _BLOCK_THREAD.busy or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return [_run_block(fn, block) for block in blocks]
    # imported here: concurrent.futures imports logging, which nothing else needs
    from concurrent.futures import ThreadPoolExecutor, wait
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="difftt-blocks")
            os.register_at_fork(after_in_child=_forget_helper)
    out = []
    for i in range(0, len(blocks), 2):
        second = _helper.submit(_run_block, fn, blocks[i + 1]) if i + 1 < len(blocks) else None
        try:
            out.append(_run_block(fn, blocks[i]))
        finally:
            if second is not None:
                wait([second])  # the helper's block is done
        if second is not None:
            out.append(second.result())
    return out


def _block_rows(blocks) -> list[slice]:
    """The row slice of each of ``blocks``, consecutive row blocks in order."""
    ends = np.cumsum([len(block) for block in blocks]).tolist()
    return [slice(end - len(block), end) for block, end in zip(blocks, ends)]


def _lengths(tokens: np.ndarray, eos_id: int) -> np.ndarray:
    """Each row's length: up to and including its first EOS, or every step."""
    is_eos = tokens == eos_id
    return np.where(is_eos.any(axis=1), is_eos.argmax(axis=1) + 1, tokens.shape[1])


def pad_steps(probs: np.ndarray, lengths: np.ndarray, m: int, pad_id: int) -> np.ndarray:
    """A block's step distributions (n, m_b, V) padded to ``m`` >= m_b steps,
    with the PAD one-hot at every step past each row's length."""
    out = np.empty((len(probs), m, probs.shape[2]))
    out[:, :probs.shape[1]] = probs
    out[np.arange(m)[None, :] >= lengths[:, None]] = np.eye(probs.shape[2])[pad_id]
    return out


def _pad_batch(seqs: list[list[int]], pad_id: int) -> np.ndarray:
    if not seqs:
        raise ValueError("empty batch: a batch needs at least one row")
    m = max(len(s) for s in seqs)
    out = np.full((len(seqs), m), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def train_mt(model: MtModel, train_pairs, dev_pairs, config: TrainConfig,
             checkpoint_dir=None) -> MtTrainResult:
    """Teacher-forced cross-entropy training with best-validation-BLEU selection.

    ``train_pairs``/``dev_pairs`` are lists of (source tokens, target tokens).
    Per-epoch checkpoints are written when ``checkpoint_dir`` is given (used by
    the translation-quality sensitivity sweep); the model is left at the best
    validation BLEU epoch either way.
    """
    vocab = model.vocab
    enc_src = [model.source_ids(s) for s, _ in train_pairs]
    enc_tgt = [vocab.encode_target(t)[: model.config.max_decode_len + 1] for _, t in train_pairs]
    dev_src = [model.source_ids(s) for s, _ in dev_pairs]
    dev_refs = [list(t) for _, t in dev_pairs]

    def batch_loss(idx):
        src = _pad_batch([enc_src[i] for i in idx], vocab.pad_id)
        tgt = _pad_batch([enc_tgt[i] for i in idx], vocab.pad_id)
        memory, cross_mask = model.encode(src)
        logits = model.decode_logits(memory, cross_mask, tgt[:, :-1])
        mask = (tgt[:, 1:] != vocab.pad_id).astype(np.float64)
        return ad.cross_entropy(logits, tgt[:, 1:], mask=mask)

    result = fit([model.store], len(enc_src), batch_loss,
                 lambda: evaluate_bleu(model, dev_src, dev_refs), config,
                 model.epoch_saver(checkpoint_dir))
    return MtTrainResult(**vars(result))


def translate(model: MtModel, sources_ids: list[list[int]]) -> list[list[str]]:
    """The greedy translations of token-id sources, as tokens with EOS stripped."""
    vocab = model.vocab
    decoded = model.greedy_decode_batch(_pad_batch(sources_ids, vocab.pad_id))
    return [vocab.decode([t for t in seq if t != vocab.eos_id]) for seq in decoded]


def evaluate_bleu(model: MtModel, sources_ids: list[list[int]], references: list[list[str]]) -> float:
    """Corpus BLEU of greedy translations (EOS stripped) against references."""
    from .metrics import corpus_bleu

    return corpus_bleu(translate(model, sources_ids), references)
