"""Transformer building blocks on top of the autodiff engine.

Pre-LN blocks with learned positional embeddings. Attention masks are
additive numpy constants (0 for visible, -1e9 for hidden) and carry no
gradient.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParamStore

NEG = -1e9


def pad_attention_mask(ids: np.ndarray, pad_id: int) -> np.ndarray:
    """(B, Tk) ids -> additive mask (B, 1, 1, Tk) hiding PAD keys."""
    visible = (ids != pad_id)
    return np.where(visible[:, None, None, :], 0.0, NEG)


def causal_attention_mask(t: int) -> np.ndarray:
    """(1, 1, T, T) additive mask hiding positions above the diagonal."""
    return np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, NEG)[None, None]


def append_along(buf: np.ndarray | None, used: int, new: np.ndarray, axis: int) -> np.ndarray:
    """Write ``new`` after the first ``used`` entries of ``buf`` along ``axis``.

    A full buffer is reallocated at twice its capacity (or at the needed
    length, if that is more), so appending one step at a time copies each
    entry amortised O(1) times. Returns the (possibly new) buffer; entries
    past the written ones are unspecified.
    """
    end = used + new.shape[axis]
    lead = (slice(None),) * axis
    if buf is None or buf.shape[axis] < end:
        shape = list(new.shape)
        shape[axis] = end if buf is None else max(2 * buf.shape[axis], end)
        grown = np.empty(shape, dtype=new.dtype)
        if buf is not None:
            grown[lead + (slice(0, used),)] = buf[lead + (slice(0, used),)]
        buf = grown
    buf[lead + (slice(used, end),)] = new
    return buf


class KVCache:
    """Keys and values of one attention block for incremental decoding.

    A self-attention cache appends the keys and values of each new step to
    (B, H, capacity, d_head) buffers (see ``append_along``). A ``static``
    cache holds cross-attention keys and values: they are projected from the
    encoder memory on the first step and reused on every later one.
    """

    def __init__(self, static: bool = False):
        self.static = static
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.length = 0

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Store new (B, H, t, d_head) keys and values; return all of them."""
        if self.static:
            self.k, self.v = k.data, v.data
            self.length = k.shape[2]
        else:
            self.k = append_along(self.k, self.length, k.data, axis=2)
            self.v = append_along(self.v, self.length, v.data, axis=2)
            self.length += k.shape[2]
        return self.view()

    def view(self) -> tuple[Tensor, Tensor]:
        n = self.length
        return Tensor(self.k[:, :, :n]), Tensor(self.v[:, :, :n])


class MultiHeadAttention:
    def __init__(self, store: ParamStore, prefix: str, d_model: int, n_heads: int, group: str):
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.scale = 1.0 / np.sqrt(self.d_head)
        self.wq = store.linear(prefix + ".q", d_model, d_model, group)
        self.wk = store.linear(prefix + ".k", d_model, d_model, group)
        self.wv = store.linear(prefix + ".v", d_model, d_model, group)
        self.wo = store.linear(prefix + ".o", d_model, d_model, group)

    def _split(self, x: Tensor, b: int, t: int) -> Tensor:
        x = ad.reshape(x, (b, t, self.n_heads, self.d_head))
        return ad.transpose(x, (0, 2, 1, 3))

    def __call__(self, q_in: Tensor, kv_in: Tensor, mask: np.ndarray | None,
                 cache: KVCache | None = None) -> Tensor:
        """Attention of ``q_in`` over ``kv_in``. With a cache, ``kv_in`` holds
        only the new steps (ignored once a static cache is filled) and the
        keys and values of earlier steps come from the cache; gradient-free."""
        b, tq, _ = q_in.shape
        q = self._split(ad.affine(q_in, self.wq[0].tensor, self.wq[1].tensor), b, tq)
        if cache is not None and cache.static and cache.length:
            k, v = cache.view()
        else:
            tk = kv_in.shape[1]
            k = self._split(ad.affine(kv_in, self.wk[0].tensor, self.wk[1].tensor), b, tk)
            v = self._split(ad.affine(kv_in, self.wv[0].tensor, self.wv[1].tensor), b, tk)
            if cache is not None:
                k, v = cache.append(k, v)
        ctx = ad.attention(q, k, v, self.scale, mask)
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, tq, self.d_model))
        return ad.affine(ctx, self.wo[0].tensor, self.wo[1].tensor)


class FeedForward:
    def __init__(self, store: ParamStore, prefix: str, d_model: int, d_ff: int, group: str):
        self.w1 = store.linear(prefix + ".ff1", d_model, d_ff, group)
        self.w2 = store.linear(prefix + ".ff2", d_ff, d_model, group)

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.gelu(ad.affine(x, self.w1[0].tensor, self.w1[1].tensor))
        return ad.affine(h, self.w2[0].tensor, self.w2[1].tensor)


class EncoderLayer:
    def __init__(self, store: ParamStore, prefix: str, d_model: int, n_heads: int,
                 d_ff: int, group: str):
        self.attn = MultiHeadAttention(store, prefix + ".attn", d_model, n_heads, group)
        self.ffn = FeedForward(store, prefix, d_model, d_ff, group)
        self.ln1 = store.layer_norm(prefix + ".ln1", d_model, group)
        self.ln2 = store.layer_norm(prefix + ".ln2", d_model, group)

    def __call__(self, x: Tensor, mask: np.ndarray | None) -> Tensor:
        h = ad.layer_norm(x, self.ln1[0].tensor, self.ln1[1].tensor)
        x = ad.add(x, self.attn(h, h, mask))
        h = ad.layer_norm(x, self.ln2[0].tensor, self.ln2[1].tensor)
        return ad.add(x, self.ffn(h))


class DecoderLayer:
    def __init__(self, store: ParamStore, prefix: str, d_model: int, n_heads: int,
                 d_ff: int, group: str):
        self.self_attn = MultiHeadAttention(store, prefix + ".self", d_model, n_heads, group)
        self.cross_attn = MultiHeadAttention(store, prefix + ".cross", d_model, n_heads, group)
        self.ffn = FeedForward(store, prefix, d_model, d_ff, group)
        self.ln1 = store.layer_norm(prefix + ".ln1", d_model, group)
        self.ln2 = store.layer_norm(prefix + ".ln2", d_model, group)
        self.ln3 = store.layer_norm(prefix + ".ln3", d_model, group)

    def __call__(self, x: Tensor, memory: Tensor, self_mask: np.ndarray,
                 cross_mask: np.ndarray | None,
                 cache: tuple[KVCache, KVCache] | None = None) -> Tensor:
        self_cache, cross_cache = cache if cache is not None else (None, None)
        h = ad.layer_norm(x, self.ln1[0].tensor, self.ln1[1].tensor)
        x = ad.add(x, self.self_attn(h, h, self_mask, self_cache))
        h = ad.layer_norm(x, self.ln2[0].tensor, self.ln2[1].tensor)
        x = ad.add(x, self.cross_attn(h, memory, cross_mask, cross_cache))
        h = ad.layer_norm(x, self.ln3[0].tensor, self.ln3[1].tensor)
        return ad.add(x, self.ffn(h))
