"""Output checks, computed apart from the program.

Each workload first gathers evidence from the program's outputs (see
`workloads.py`); the functions here judge that evidence and return one
`Check` per property. They take plain data only, so `selfcheck.py` can feed
them deliberately corrupted copies and show that every check can fail.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9
# acceptance test 5: candidate "a b c d" against reference "a b c d e"
BLEU_EXAMPLE = ([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
BLEU_EXAMPLE_VALUE = math.exp(1 - 5 / 4)
FD_REL_TOL = 1e-4


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def bleu4(candidates, references) -> float:
    """Corpus BLEU-4 with clipped counts, brevity penalty and add-one smoothing
    of an n >= 2 order that has no match (the variant `difftt.metrics` pins)."""
    matches, totals = [0] * 4, [0] * 4
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, 5):
            c_grams = Counter(zip(*(cand[i:] for i in range(n))))
            r_grams = Counter(zip(*(ref[i:] for i in range(n))))
            matches[n - 1] += sum((c_grams & r_grams).values())
            totals[n - 1] += sum(c_grams.values())
    if c_len == 0 or matches[0] == 0:
        return 0.0
    log_p = 0.0
    for n in range(4):
        m, t = matches[n], totals[n]
        if n > 0 and m == 0:
            m, t = 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_p += math.log(m / t) / 4
    penalty = min(1.0, math.exp(1 - r_len / c_len))
    return penalty * math.exp(log_p)


def accuracy(preds, golds) -> float:
    preds, golds = np.asarray(preds), np.asarray(golds)
    return float(np.count_nonzero(preds == golds)) / len(golds)


def majority_share(golds) -> float:
    return Counter(golds).most_common(1)[0][1] / len(golds)


def all_equal(name: str, digests: list[str]) -> Check:
    return Check(name, len(set(digests)) == 1,
                 f"{len(set(digests))} distinct digests over {len(digests)} rounds")


def counts_repeat(layers: list[dict], names) -> Check:
    """Every count metric has one value across the traced rounds."""
    varying = [n for n in names if len({m[n] for m in layers}) != 1]
    return Check("counts_repeat", not varying,
                 f"counts that vary across {len(layers)} traced rounds: {varying}")


def finite(name: str, values) -> Check:
    values = np.asarray(values, dtype=np.float64)
    return Check(name, bool(np.all(np.isfinite(values))), f"{values.size} values")


def judge_train(ev: dict) -> list[Check]:
    bleu_example = bleu4(*BLEU_EXAMPLE)
    trained = bleu4(ev["trained_candidates"], ev["dev_references"])
    untrained = bleu4(ev["untrained_candidates"], ev["dev_references"])
    acc = accuracy(ev["tc_predictions"], ev["tc_golds"])
    majority = majority_share(ev["tc_golds"])
    last_mt = ev["mt_losses"][-1]
    return [
        all_equal("rounds_bitwise_identical", ev["digests"]),
        finite("losses_finite", list(ev["mt_losses"]) + list(ev["tc_losses"])),
        Check("mt_loss_below_uniform", last_mt < ev["ln_vocab"],
              f"last-epoch loss {last_mt:.4f} vs ln V {ev['ln_vocab']:.4f}"),
        Check("bleu_matches_known_example", abs(bleu_example - BLEU_EXAMPLE_VALUE) < 1e-12,
              f"{bleu_example:.6f} vs exp(1 - 5/4) = {BLEU_EXAMPLE_VALUE:.6f}"),
        Check("trained_bleu_above_untrained", trained > untrained,
              f"dev BLEU {trained:.4f} trained vs {untrained:.4f} untrained"),
        Check("tc_accuracy_above_majority", acc > majority,
              f"dev accuracy {acc:.4f} vs majority {majority:.4f}"),
    ]


def judge_finetune(ev: dict) -> list[Check]:
    changed = [n for n, before in ev["trainable_before"].items()
               if not np.array_equal(before, ev["trainable_after"][n])]
    moved = [n for n, before in ev["frozen_before"].items()
             if not np.array_equal(before, ev["frozen_after"][n])]
    acc = accuracy(ev["selection_predictions"], ev["selection_golds"])
    best = max(ev["val_metric"])
    tape, fd = ev["fd_tape"], ev["fd_numeric"]
    rel = abs(tape - fd) / max(abs(tape), abs(fd), 1e-300)
    return [
        all_equal("rounds_bitwise_identical", ev["digests"]),
        Check("frozen_unchanged", not moved,
              f"{len(moved)} of {len(ev['frozen_before'])} frozen parameters changed"),
        Check("trainable_changed", bool(changed),
              f"{len(changed)} of {len(ev['trainable_before'])} trainable parameters changed"),
        finite("losses_finite", ev["train_loss"]),
        Check("restored_metric_is_best", acc == best,
              f"recomputed selection accuracy {acc:.6f} vs max val_metric {best:.6f}"),
        Check("task_loss_gradient_matches_fd", rel < FD_REL_TOL,
              f"directional derivative tape {tape:.9e} vs central difference {fd:.9e} "
              f"(rel err {rel:.2e}, limit {FD_REL_TOL:g})"),
    ]


def judge_evaluate(ev: dict) -> list[Check]:
    golds = ev["golds"]
    majority = majority_share(golds)
    soft = accuracy(ev["soft_labels"], golds)
    hard = accuracy(ev["hard_labels"], golds)
    worst_sum = max((float(np.abs(p.sum(axis=-1) - 1.0).max()) for p in ev["soft_rows"]),
                    default=0.0)
    lowest = min((float(p.min()) for p in ev["soft_rows"]), default=0.0)
    argmax_bad = sum(int(np.count_nonzero(p.argmax(axis=-1) != t))
                     for p, t in zip(ev["soft_rows"], ev["soft_tokens"]))
    forced_bad = sum(1 for f, h in zip(ev["forced_logits"], ev["hard_logits_sampled"])
                     if not np.array_equal(f, h))
    single_bad = sum(1 for a, b in zip(ev["single_labels"], ev["batched_labels"]) if a != b)
    return [
        all_equal("rounds_bitwise_identical", ev["digests"]),
        Check("soft_accuracy_above_majority", soft >= majority + 0.20,
              f"soft accuracy {soft:.4f} vs majority {majority:.4f} + 0.20"),
        Check("hard_accuracy_above_majority", hard >= majority + 0.20,
              f"hard accuracy {hard:.4f} vs majority {majority:.4f} + 0.20"),
        Check("soft_rows_on_simplex", worst_sum <= SIMPLEX_TOL and lowest >= -SIMPLEX_TOL,
              f"worst |row sum - 1| {worst_sum:.2e}, lowest entry {lowest:.2e}, "
              f"{sum(len(p) for p in ev['soft_rows'])} rows"),
        Check("argmax_equals_tokens", argmax_bad == 0,
              f"{argmax_bad} steps where argmax(probs) != token"),
        Check("forced_onehot_equals_hard", forced_bad == 0,
              f"{forced_bad} of {len(ev['forced_logits'])} sampled sentences differ bitwise"),
        Check("batched_equals_single", single_bad == 0,
              f"{single_bad} of {len(ev['single_labels'])} sampled labels differ"),
    ]
