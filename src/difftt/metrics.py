"""Evaluation metrics: accuracy, R-Precision / mean R-Precision, the task
score built from them, and corpus BLEU.

BLEU variant (pinned so numbers are comparable across runs): BLEU-4,
case-sensitive, whitespace tokens, uniform n-gram weights, clipped counts,
geometric mean, brevity penalty exp(1 - r/c) when c < r, and add-one
smoothing on the counts for n >= 2 only when that order has zero matches.
Values are reported in [0, 1].
"""

from __future__ import annotations

import math
from collections import Counter


class EmptyGoldSetError(ValueError):
    """A sample with no positive labels has no defined R-Precision."""


def accuracy(preds, golds) -> float:
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty evaluation set")
    return sum(p == g for p, g in zip(preds, golds)) / len(preds)


def r_precision(ranked, gold_labels) -> float:
    """Precision of the top-R ranked labels, R = number of true labels."""
    gold = set(gold_labels)
    if not gold:
        raise EmptyGoldSetError("sample has no positive labels")
    r = len(gold)
    top = list(ranked)[:r]
    return len(set(top) & gold) / r


def mean_r_precision(values) -> float:
    """Arithmetic mean of per-sample R-Precision values."""
    values = list(values)
    if not values:
        raise ValueError("empty sample set")
    return sum(values) / len(values)


def score(predictions, golds, multi_label: bool) -> float:
    """The task metric of classifier predictions: accuracy of ``label`` for a
    multi-class head, mean R-Precision of ``ranked`` for a multi-label head
    (samples without a gold label have no R-Precision and are skipped)."""
    if multi_label:
        return mean_r_precision(r_precision(p.ranked, set(g))
                                for p, g in zip(predictions, golds) if set(g))
    return accuracy([p.label for p in predictions], [int(g) for g in golds])


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references, max_n: int = 4) -> float:
    """Corpus-level BLEU in [0, 1] over tokenized sequences."""
    candidates, references = list(candidates), list(references)
    if len(candidates) != len(references):
        raise ValueError(
            f"length mismatch: {len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise ValueError("empty corpus")
    clipped = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand, ref = list(cand), list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = _ngram_counts(cand, n)
            ref_counts = _ngram_counts(ref, n)
            totals[n] += sum(counts.values())
            clipped[n] += sum(min(c, ref_counts[g]) for g, c in counts.items())
    if cand_len == 0 or totals[1] == 0 or clipped[1] == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        num, den = clipped[n], totals[n]
        if n >= 2 and num == 0:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    geo = math.exp(log_sum / max_n)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * geo
