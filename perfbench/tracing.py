"""Per-layer timers for the traced run.

`tracing(tracer)` replaces public functions and methods of the difftt
modules by wrappers that add each call's wall time and count to `tracer`,
and puts the originals back on exit. Nothing in `src/` changes, and with no
tracer installed the program runs its own code untouched. Times are
inclusive: `mt.greedy_decode_s` contains the `mt.decode_logits_s` of the
steps it runs, and both contain autodiff op time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from difftt import autodiff, bridge, layers, metrics, mt, optim, params, pipeline, synthlang, tc

# Every public tape op; each call is one `autodiff.op_calls`.
AUTODIFF_OPS = ("add", "sub", "mul", "scale", "shift", "matmul", "affine", "embedding",
                "softmax", "layer_norm", "relu", "gelu", "masked_mean_pool", "concat",
                "reshape", "transpose", "dropout", "sum_all", "mean_all", "cross_entropy",
                "binary_cross_entropy_per_label")


class Tracer:
    """Wall seconds, call counts and work counts per traced name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


def _count_decode_positions(tracer, args, result):
    tgt_in = args[3]
    tracer.counts["mt.decoder_positions"] += int(tgt_in.shape[0] * tgt_in.shape[1])


def _count_decoded(tracer, args, result):
    model = args[0]
    limit, eos = model.config.max_decode_len, model.vocab.eos_id
    tracer.counts["mt.decoded_tokens"] += sum(len(seq) for seq in result)
    tracer.counts["mt.max_len_hits"] += sum(
        1 for seq in result if len(seq) == limit and seq[-1] != eos)


# (owner, attribute, traced name, work counter or None)
TRACE_POINTS = [(autodiff, op, f"autodiff.{op}", None) for op in AUTODIFF_OPS] + [
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (layers.MultiHeadAttention, "__call__", "layers.attention", None),
    (layers.FeedForward, "__call__", "layers.feedforward", None),
    (optim.AdamW, "step", "optim.step", None),
    (params.ParamStore, "state", "params.state", None),
    (params.ParamStore, "load_state", "params.load_state", None),
    (mt.MtModel, "encode", "mt.encode", None),
    (mt.MtModel, "decode_logits", "mt.decode_logits", _count_decode_positions),
    (mt.MtModel, "greedy_decode_batch", "mt.greedy_decode", _count_decoded),
    (mt.MtModel, "soft_decode", "mt.soft_decode", None),
    (mt, "evaluate_bleu", "mt.evaluate_bleu", None),
    # the encoder pass shared by the token path, the soft path and the
    # batched gradient-free soft path
    (tc.TcModel, "_forward_embedded", "tc.forward", None),
    (tc.TcModel, "classify_tokens_batch", "tc.classify", None),
    (tc.TcModel, "classify_soft_values", "tc.classify", None),
    (bridge, "expected_embedding", "bridge.expected_embedding", None),
    (pipeline.TranslateTestPipeline, "task_loss", "pipeline.task_loss", None),
    (pipeline.TranslateTestPipeline, "predict_batch", "pipeline.predict_soft", None),
    (pipeline.TranslateTestPipeline, "predict_hard_batch", "pipeline.predict_hard", None),
    (pipeline.TranslateTestPipeline, "evaluate_metric", "pipeline.evaluate_metric", None),
    (metrics, "corpus_bleu", "metrics.corpus_bleu", None),
    (synthlang, "gen_classification_dataset", "synthlang.generate", None),
]


def _wrap(tracer: Tracer, original, name: str, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.seconds[name] += perf_counter() - start
            tracer.calls[name] += 1
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


@contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    installed = []
    try:
        for owner, attr, name, counter in TRACE_POINTS:
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, name, counter))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    s, c = tracer.seconds, tracer.calls
    out = {f"autodiff.{op}_s": s[f"autodiff.{op}"]
           for op in ("affine", "layer_norm", "gelu", "softmax", "matmul", "embedding",
                      "cross_entropy")}
    out.update({
        "autodiff.op_calls": sum(c[f"autodiff.{op}"] for op in AUTODIFF_OPS),
        "autodiff.backward_s": s["autodiff.backward"],
        "autodiff.backward_calls": c["autodiff.backward"],
        "layers.attention_s": s["layers.attention"],
        "layers.attention_calls": c["layers.attention"],
        "layers.feedforward_s": s["layers.feedforward"],
        "optim.step_s": s["optim.step"],
        "optim.steps": c["optim.step"],
        "params.state_s": s["params.state"],
        "params.load_state_s": s["params.load_state"],
        "params.state_calls": c["params.state"],
        "mt.encode_s": s["mt.encode"],
        "mt.decode_logits_s": s["mt.decode_logits"],
        "mt.decode_logits_calls": c["mt.decode_logits"],
        "mt.greedy_decode_s": s["mt.greedy_decode"],
        "mt.decoder_positions": tracer.counts["mt.decoder_positions"],
        "mt.decoded_tokens": tracer.counts["mt.decoded_tokens"],
        "mt.max_len_hits": tracer.counts["mt.max_len_hits"],
        "mt.soft_decode_s": s["mt.soft_decode"],
        "mt.evaluate_bleu_s": s["mt.evaluate_bleu"],
        "tc.forward_s": s["tc.forward"],
        "tc.classify_s": s["tc.classify"],
        "bridge.expected_embedding_s": s["bridge.expected_embedding"],
        "pipeline.task_loss_s": s["pipeline.task_loss"],
        "pipeline.predict_soft_s": s["pipeline.predict_soft"],
        "pipeline.predict_hard_s": s["pipeline.predict_hard"],
        "pipeline.evaluate_metric_s": s["pipeline.evaluate_metric"],
        "pipeline.evaluate_metric_calls": c["pipeline.evaluate_metric"],
        "metrics.corpus_bleu_s": s["metrics.corpus_bleu"],
    })
    return out


# Per-layer metrics that are counts; they must repeat exactly across rounds.
COUNT_METRICS = ("autodiff.op_calls", "autodiff.backward_calls", "layers.attention_calls",
                 "optim.steps", "params.state_calls", "mt.decode_logits_calls",
                 "mt.decoder_positions", "mt.decoded_tokens", "mt.max_len_hits",
                 "pipeline.evaluate_metric_calls")
