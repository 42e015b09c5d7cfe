"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

A small tape-based engine: every differentiable op returns a new Tensor that
remembers its parents and a closure that routes the incoming gradient back to
them. Calling ``backward()`` on a scalar loss walks the tape in reverse
topological order and releases it as it goes. Everything is double precision
so finite-difference checks are meaningful.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np


def _load_erf():
    """scipy's ``erf`` ufunc, loaded without importing the ``scipy.special`` package.

    The ufunc lives in the extension ``scipy.special._special_ufuncs``; the
    package's ``__init__`` around it loads about 70 more modules (about 20 MB
    resident and a quarter of a second). The extension is loaded under its
    full dotted name and stays in ``sys.modules``, so a later
    ``import scipy.special`` reuses it and ``scipy.special.erf`` is this very
    object: the same C code, so GELU's floats are unchanged. A scipy without
    that extension, or without ``erf`` in it, gets the package import.
    """
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if module is None and scipy else ():
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "special"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            break
    if hasattr(module, "erf"):
        return module.erf
    from scipy.special import erf
    return erf


erf = _load_erf()

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _keep_freed_heap_pages() -> bool:
    """Tell glibc's malloc to keep freed heap pages for the next allocation.

    A backward pass frees its tape and the next batch allocates one of the
    same size. By default glibc serves arrays above a threshold that starts
    at 128 KiB with mmap, and returns the freed top of the heap to the
    system, so each batch faults those pages back in (hundreds of thousands
    of minor faults per training job once the tape is released). Arrays up
    to 32 MiB (glibc's largest mmap threshold) go on the heap, and up to
    128 MiB of free heap top (more than one training batch's tape) stays
    mapped. Both are set because setting either one ends glibc's dynamic
    threshold. Every thread allocates from the one main arena, so the helper
    thread that a paired ``mt.map_blocks`` call starts reuses the pages the
    calling thread freed instead of growing an arena of its own (about 3 MB
    more peak on evaluation). Returns whether the thresholds were set: not off
    glibc, and not when the environment already tunes malloc through
    ``GLIBC_TUNABLES`` or a ``MALLOC_*_`` variable.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc's name
        return False
    if not libc.startswith("glibc") or any(
            k == "GLIBC_TUNABLES" or (k.startswith("MALLOC_") and k.endswith("_"))
            for k in os.environ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 128 << 20))


_keep_freed_heap_pages()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; message names both shapes."""


class _GradMode(threading.local):
    """Whether the calling thread records ops on the tape. Each thread has
    its own flag and starts out recording, so ``no_grad`` in one thread
    never switches off another thread's recording."""
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables tape recording (inference mode) in the
    calling thread."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


def grad_enabled() -> bool:
    """Whether the calling thread records ops on the tape."""
    return _GRAD_MODE.enabled


class Tensor:
    """A dense float64 array plus optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Reverse-mode pass from this tensor (typically a scalar loss).

        Leaves (tensors created with ``requires_grad``, such as parameters)
        accumulate into ``.grad`` across calls. The graph is released as the
        walk goes: once an op output has passed its gradient to its parents,
        its ``.grad``, parents and backward closure are dropped, so each
        intermediate array is freed as soon as nothing else holds it and an
        op output's ``.grad`` is None afterwards. A graph is therefore
        backpropagated once: a second ``backward`` through any node of it
        raises ``RuntimeError``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _accum(self, np.array(grad, dtype=np.float64))
        while topo:
            node = topo.pop()  # reverse topological order; drops the walk's reference
            if node._backward is None:  # a leaf or a constant
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _released


def _released(g):
    raise RuntimeError("backward through a graph that was already backpropagated: "
                       "its intermediate gradients were freed; build the graph again")


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad``. A first gradient is stored as is, not
    copied, so it may share memory with other gradients or be a view. That is
    safe because no code writes into such an array: accumulation assigns a
    new one, and ``AdamW.step`` averages and clips a copy in its own buffer
    (``clip_global_norm`` alone assigns new arrays too). An op output's
    ``.grad`` lives only until ``Tensor.backward`` has passed it on; a
    leaf's accumulates until ``zero_grad``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Create an op output, recording on the tape only when some parent
    requires a gradient."""
    if type(data) is not np.ndarray:  # a numpy scalar from 0-d operands
        data = np.asarray(data, dtype=np.float64)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _GRAD_MODE.enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python/numpy constant (no gradient into the constant)."""
    c = np.asarray(c, dtype=np.float64)
    out = a.data * c

    def backward(g):
        _accum(a, _unbroadcast(g * c, a.data.shape))

    return _make(out, (a,), backward)


def shift(a: Tensor, c) -> Tensor:
    """Add a constant array (e.g. an additive attention mask)."""
    c = np.asarray(c, dtype=np.float64)
    out = a.data + c

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for operands of two or more dimensions, batch dimensions broadcast."""
    if min(a.data.ndim, b.data.ndim) < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: needs operands of 2 or more dimensions with equal inner "
            f"dimensions, got {a.data.shape} vs {b.data.shape}"
        )
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with w of shape (in, out), b of shape (out,)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"affine: input width {x.data.shape} does not match weight {w.data.shape}"
        )
    out = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            _accum(x, _unbroadcast(g @ w.data.T, x.data.shape))
        if w.requires_grad:
            _accum(w, x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        if b.requires_grad:
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(out, (x, w, b), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range for table {table.data.shape}"
        )
    out = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.ravel(), g.reshape(-1, table.data.shape[1]))
            _accum(table, gt)

    return _make(out, (table,), backward)


def softmax(x: Tensor, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Softmax with temperature; rows sum to 1 within 1e-12."""
    if not temperature > 0:  # NaN fails too
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - dot) / temperature)

    return _make(out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    if gamma.data.shape != (x.data.shape[-1],):
        raise ShapeError(
            f"layer_norm: gamma {gamma.data.shape} does not match input {x.data.shape}"
        )
    # the reductions of np.mean and np.var (a sum divided by n), centring once
    n = x.data.shape[-1]
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (centred * centred).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = (inv / n) * (
                n * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            )
            _accum(x, dx)
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, n).sum(axis=0))

    return _make(out, (x, gamma, beta), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask=None) -> Tensor:
    """Scaled dot-product attention softmax(q k^T * scale + mask) v as one op.

    q: (..., Tq, d), k and v: (..., Tk, d); ``mask`` is an additive constant
    broadcast against the (..., Tq, Tk) scores, or None. Forward and backward
    run the numpy operations of the chain ``matmul(q, transpose(k))``,
    ``scale``, ``shift``, ``softmax``, ``matmul(., v)`` in the same order, so
    values and gradients are bitwise those of the chain.
    """
    kt = k.data.swapaxes(-1, -2)
    if q.data.shape[-1] != kt.shape[-2] or kt.shape[-1] != v.data.shape[-2]:
        raise ShapeError(
            f"attention: q {q.data.shape}, k {k.data.shape} and v {v.data.shape} do not align"
        )
    scores = (q.data @ kt) * scale
    if mask is not None:
        scores = scores + np.asarray(mask, dtype=np.float64)
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ v.data

    def backward(g):
        if v.requires_grad:
            _accum(v, _unbroadcast(attn.swapaxes(-1, -2) @ g, v.data.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        g_attn = g @ v.data.swapaxes(-1, -2)
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * scale
        if q.requires_grad:
            _accum(q, _unbroadcast(g_scores @ k.data, q.data.shape))
        if k.requires_grad:
            _accum(k, (q.data.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2))

    return _make(out, (q, k, v), backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(g):
        _accum(x, g * (x.data > 0))

    return _make(out, (x,), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU. The cdf is built in one array, op by op as
    ``0.5 * (1.0 + erf(x * _INV_SQRT2))`` orders them, so its floats are
    those of that expression without its temporaries. ``erf`` runs on
    ``|x| * _INV_SQRT2`` and the result takes x's sign: scipy computes a
    negative argument as ``-erf(-x)`` and any NaN as a positive NaN, so the
    floats are the same, and its sign branch no longer mispredicts. Off the
    tape only the backward pass would read the cdf, so the output is written
    over it."""
    cdf = np.abs(x.data)
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, x.data, out=cdf)
    np.abs(cdf, out=cdf, where=np.isnan(x.data))
    cdf += 1.0
    cdf *= 0.5
    out = np.multiply(x.data, cdf, out=cdf if not (_GRAD_MODE.enabled and x.requires_grad)
                      else None)

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        _accum(x, g * (cdf + x.data * pdf))

    return _make(out, (x,), backward)


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over the sequence axis (-2) restricted to mask==1 positions.

    x: (..., T, D); mask: (..., T) of {0,1}. Every row must have at least one
    active position.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.data.shape[:-1]:
        raise ShapeError(
            f"masked_mean_pool: mask {mask.shape} does not match input {x.data.shape}"
        )
    counts = mask.sum(axis=-1, keepdims=True)
    if np.any(counts == 0):
        raise ValueError("masked_mean_pool: a row has no active positions")
    out = (x.data * mask[..., None]).sum(axis=-2) / counts

    def backward(g):
        _accum(x, (g / counts)[..., None, :] * mask[..., None])

    return _make(out, (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accum(t, g[tuple(idx)])
            offset += size

    return _make(out, tuple(tensors), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _make(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    out = x.data.transpose(axes)

    def backward(g):
        _accum(x, g.transpose(np.argsort(axes)))

    return _make(out, (x,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = x.data * keep

    def backward(g):
        _accum(x, g * keep)

    return _make(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())

    def backward(g):
        _accum(x, np.broadcast_to(g, x.data.shape).astype(np.float64))

    return _make(out, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(x.data.sum() / n)

    def backward(g):
        _accum(x, np.broadcast_to(g / n, x.data.shape).astype(np.float64))

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log softmax probability of the target classes.

    logits: (..., C); targets: integer array of shape (...). With a mask,
    only mask==1 positions contribute (mean over active positions).
    """
    targets = np.asarray(targets)
    c = logits.data.shape[-1]
    active = np.ones(targets.shape, dtype=np.float64) if mask is None \
        else np.asarray(mask, dtype=np.float64)
    check = targets[active.astype(bool)] if targets.ndim else targets
    if np.any(check < 0) or np.any(check >= c):
        raise ValueError(f"cross_entropy: target out of range [0, {c})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logz
    tgt = np.where(active.astype(bool), targets, 0)
    picked = np.take_along_axis(logp, np.expand_dims(tgt, -1), axis=-1)[..., 0]
    count = active.sum()
    if count == 0:
        raise ValueError("cross_entropy: no active positions")
    out = np.asarray(-(picked * active).sum() / count)

    def backward(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, np.expand_dims(tgt, -1), 1.0, axis=-1)
        _accum(logits, g * (p - onehot) * active[..., None] / count)

    return _make(out, (logits,), backward)


def binary_cross_entropy_per_label(logits: Tensor, targets) -> Tensor:
    """Mean over labels of -[t log sigmoid(z) + (1-t) log(1 - sigmoid(z))]."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.data.shape:
        raise ShapeError(
            f"bce: targets {targets.shape} do not match logits {logits.data.shape}"
        )
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("bce: targets must be binary (0/1)")
    z = logits.data
    # softplus(z) - t*z == t*softplus(-z) + (1-t)*softplus(z)
    losses = np.logaddexp(0.0, z) - targets * z
    n = losses.size
    out = np.asarray(losses.sum() / n)

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        _accum(logits, g * (sig - targets) / n)

    return _make(out, (logits,), backward)


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Plain-numpy stable sigmoid (for scores, no gradient)."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
