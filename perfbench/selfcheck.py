"""Show that every output check of the benchmark can fail.

For each workload this runs, at seed 1, one untraced round and two traced
ones, as a traced run does, and checks that all checks pass on the real
outputs. It then corrupts one piece of evidence per check and requires that
check to fail. Exit status 0 means every check passed on the real outputs
and failed on its corrupted copy:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _bump(a: np.ndarray) -> np.ndarray:
    """Copy of `a` with its first entry moved by one ulp."""
    a = np.array(a, dtype=np.float64)
    a.flat[0] = np.nextafter(a.flat[0], np.inf)
    return a


def _first_key(d: dict) -> str:
    return next(iter(d))


def _bleu_without_brevity_penalty(candidates, references):
    return ORIGINAL_BLEU(candidates, [r[:len(c)] for c, r in zip(candidates, references)])


ORIGINAL_BLEU = checks.bleu4


def _corrupt_bleu(ev):
    checks.bleu4 = _bleu_without_brevity_penalty


def _other_label(labels, n_classes=3):
    return [(label + 1) % n_classes for label in labels]


def _traced_digest_differs(ev):
    """The last digest is a traced round's; make it differ from the untraced one."""
    d = ev["digests"][-1]
    ev["digests"][-1] = ("0" if d[0] != "0" else "1") + d[1:]


def _count_differs(ev):
    ev["layers"][-1]["autodiff.op_calls"] += 1


# checks of every workload's traced run
TRACED = {
    "rounds_bitwise_identical": _traced_digest_differs,
    "counts_repeat": _count_differs,
}

EVALUATE = {
    **TRACED,
    "soft_accuracy_above_majority":
        lambda ev: ev.__setitem__("soft_labels", _other_label(ev["soft_labels"])),
    "hard_accuracy_above_majority":
        lambda ev: ev.__setitem__("hard_labels", _other_label(ev["hard_labels"])),
    "soft_rows_on_simplex": lambda ev: ev["soft_rows"].__setitem__(
        0, ev["soft_rows"][0] * (1 + 1e-8)),
    "argmax_equals_tokens": lambda ev: ev["soft_tokens"].__setitem__(
        0, ev["soft_tokens"][0] + 1),
    "forced_onehot_equals_hard":
        lambda ev: ev["forced_logits"].__setitem__(0, _bump(ev["forced_logits"][0])),
    "batched_equals_single":
        lambda ev: ev.__setitem__("single_labels", _other_label(ev["single_labels"])),
}

CORRUPTIONS = {
    "train": {
        **TRACED,
        "losses_finite": lambda ev: ev["tc_losses"].__setitem__(0, float("nan")),
        "mt_loss_below_uniform": lambda ev: ev["mt_losses"].__setitem__(-1, ev["ln_vocab"]),
        "bleu_matches_known_example": _corrupt_bleu,
        "trained_bleu_above_untrained":
            lambda ev: ev.__setitem__("trained_candidates", ev["untrained_candidates"]),
        "tc_accuracy_above_majority": lambda ev: ev.__setitem__(
            "tc_predictions", [max(set(ev["tc_golds"]), key=ev["tc_golds"].count)]
            * len(ev["tc_golds"])),
    },
    "finetune": {
        **TRACED,
        "frozen_unchanged": lambda ev: ev["frozen_after"].__setitem__(
            _first_key(ev["frozen_after"]), _bump(ev["frozen_after"][_first_key(ev["frozen_after"])])),
        "trainable_changed": lambda ev: ev.__setitem__("trainable_after", ev["trainable_before"]),
        "losses_finite": lambda ev: ev["train_loss"].__setitem__(0, float("inf")),
        "restored_metric_is_best": lambda ev: ev["selection_predictions"].__setitem__(
            0, (ev["selection_golds"][0] + 1) % 3),
        "task_loss_gradient_matches_fd": lambda ev: ev.__setitem__("fd_tape", ev["fd_tape"] * 1.01),
    },
    "evaluate": EVALUATE,
    "evaluate_split": EVALUATE,
}


def main() -> int:
    problems = 0
    for name, corruptions in CORRUPTIONS.items():
        workload = run.make_workload(name)
        workload.setup(1)
        plain = run.run_round(workload)
        tracers = [Tracer(), Tracer()]
        traced = [run.run_round(workload, tracer) for tracer in tracers]
        evidence = run.gather(workload, [plain] + traced,
                              [layer_metrics(tracer) for tracer in tracers])
        baseline = {c.name: c.ok for c in run.judge_evidence(workload, evidence)}
        if set(baseline) != set(corruptions) or not all(baseline.values()):
            print(f"{name}: baseline checks {baseline} do not all pass or are not all covered")
            problems += 1
        for check_name, corrupt in corruptions.items():
            ev = copy.deepcopy(evidence)
            corrupt(ev)
            try:
                result = {c.name: c for c in run.judge_evidence(workload, ev)}[check_name]
            finally:
                checks.bleu4 = ORIGINAL_BLEU
            verdict = "fails as it should" if not result.ok else "STILL PASSES"
            problems += result.ok
            print(f"{name:14s} {check_name:32s} {verdict}: {result.detail}")
    print("selfcheck", "ok" if problems == 0 else f"found {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
