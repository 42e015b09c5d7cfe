"""Deterministic synthetic language pairs and classification tasks.

A synthetic target language is a token-level bijective cipher of the
high-resource language (shared function words stay as-is, content tokens are
mapped through an invertible substitution), optionally perturbed by adjacent
swaps ("reorder") and synonym substitutions over function words ("noise").
With both rates at zero the translation task is an exact cipher, which gives
exact translation and label oracles for every experiment.

Class labels are carried by dedicated marker tokens, which the noise process
never touches, so labels survive translation by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import check_fields


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    seed: int = 0
    n_function_words: int = 20
    n_content_tokens: int = 60
    reorder_prob: float = 0.0
    noise_rate: float = 0.0
    max_reorder: float = 0.5
    max_noise: float = 0.6

    def __post_init__(self):
        check_fields(self, at_least=dict(seed=0, n_function_words=0, n_content_tokens=1),
                     unit=("reorder_prob", "noise_rate", "max_reorder", "max_noise"))

    def function_words(self) -> list[str]:
        return [f"f{i:02d}" for i in range(self.n_function_words)]

    def source_content(self) -> list[str]:
        return [f"w{i:03d}" for i in range(self.n_content_tokens)]

    def target_content(self) -> list[str]:
        return [f"z{i:03d}" for i in range(self.n_content_tokens)]

    def bijection(self) -> dict[str, str]:
        """Invertible high-resource -> target token map (identity on function words)."""
        return dict(_cipher(self).forward)

    def inverse_bijection(self) -> dict[str, str]:
        return dict(_cipher(self).inverse)


class _Cipher(NamedTuple):
    """A language's fixed tables, shared by every sentence: never mutate them
    (``bijection`` and ``inverse_bijection`` hand out copies)."""
    forward: dict[str, str]
    inverse: dict[str, str]
    functions: tuple[str, ...]
    function_set: frozenset[str]


@functools.lru_cache(maxsize=256)
def _cipher(spec: SyntheticLanguageSpec) -> _Cipher:
    """The tables of ``spec``, built once per spec value."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xB11]))
    perm = rng.permutation(spec.n_content_tokens)
    forward = {f"w{i:03d}": f"z{perm[i]:03d}" for i in range(spec.n_content_tokens)}
    functions = tuple(spec.function_words())
    for f in functions:
        forward[f] = f
    return _Cipher(forward, {v: k for k, v in forward.items()},
                   functions, frozenset(functions))


def degrade_language(spec: SyntheticLanguageSpec, severity: float) -> SyntheticLanguageSpec:
    """Raise reorder/noise rates toward their ceilings; severity in [0, 1]."""
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity must be in [0, 1], got {severity}")
    return dataclasses.replace(
        spec,
        reorder_prob=spec.reorder_prob + severity * (spec.max_reorder - spec.reorder_prob),
        noise_rate=spec.noise_rate + severity * (spec.max_noise - spec.noise_rate),
    )


def translate_tokens(tokens: list[str], spec: SyntheticLanguageSpec,
                     rng: np.random.Generator) -> list[str]:
    """Cipher + adjacent swaps + synonym noise over function words."""
    cipher = _cipher(spec)
    forward = cipher.forward
    out = [forward.get(t, t) for t in tokens]
    if len(out) > 1:
        # one draw per adjacent pair, in order, as a loop of rng.random() makes
        swaps = rng.random(len(out) - 1) < spec.reorder_prob
        for i in swaps.nonzero()[0].tolist():
            out[i], out[i + 1] = out[i + 1], out[i]
    functions, function_set = cipher.functions, cipher.function_set
    for i, t in enumerate(out):
        if t in function_set and rng.random() < spec.noise_rate:
            out[i] = functions[int(rng.integers(len(functions)))]
    return out


@dataclass(frozen=True)
class TaskSpec:
    kind: str = "multi_class"          # "multi_class" | "multi_label"
    n_classes: int = 3                 # classes, or label count for multi-label
    markers_per_class: int = 4
    min_len: int = 6
    max_len: int = 12
    label_prob: float = 0.3            # per-label presence prob (multi-label)

    def __post_init__(self):
        check_fields(self, at_least=dict(n_classes=1, markers_per_class=1, min_len=0, max_len=0),
                     unit=("label_prob",))
        if self.kind not in ("multi_class", "multi_label"):
            raise ValueError(f"TaskSpec.kind={self.kind!r}: must be 'multi_class' or "
                             f"'multi_label'")
        if not self.min_len <= self.max_len:
            raise ValueError(f"TaskSpec.min_len={self.min_len}, max_len={self.max_len}: "
                             f"must satisfy 0 <= min_len <= max_len")

    def marker_sets(self) -> list[list[str]]:
        """Per-class marker tokens, drawn from the front of the content inventory."""
        per = self.markers_per_class if self.kind == "multi_class" else 1
        return [[f"w{c * per + k:03d}" for k in range(per)]
                for c in range(self.n_classes)]


def check_markers_fit(task: TaskSpec, lang: SyntheticLanguageSpec):
    """Raise ``ValueError`` unless ``task``'s marker tokens are all content
    tokens of ``lang``; a marker past the inventory would encode as UNK."""
    n_markers = sum(len(markers) for markers in task.marker_sets())
    if n_markers > lang.n_content_tokens:
        raise ValueError(f"the task's {n_markers} marker tokens (n_classes={task.n_classes}) "
                         f"exceed the language's n_content_tokens={lang.n_content_tokens}")


def oracle_label(tokens: list[str], task: TaskSpec,
                 lang: SyntheticLanguageSpec | None = None):
    """Recover the gold label(s) from a sentence in either language.

    Returns an int for multi-class tasks, a sorted list of ints for
    multi-label tasks. Pass ``lang`` when the sentence is in the target
    language (markers are looked up through the bijection).
    """
    present = set(tokens)
    marker_sets = task.marker_sets()
    if lang is not None:
        mapping = _cipher(lang).forward
        marker_sets = [[mapping[m] for m in ms] for ms in marker_sets]
    hits = [c for c, ms in enumerate(marker_sets) if present & set(ms)]
    if task.kind == "multi_class":
        if len(hits) != 1:
            raise ValueError(f"sentence matches {len(hits)} classes, expected exactly 1")
        return hits[0]
    return sorted(hits)


@dataclass
class ParallelCorpus:
    train: list[tuple[list[str], list[str]]]
    dev: list[tuple[list[str], list[str]]]
    test: list[tuple[list[str], list[str]]]


@dataclass
class DatasetBundle:
    """Everything one experiment needs, with aligned high-resource/target splits."""
    task: TaskSpec
    lang: SyntheticLanguageSpec
    hr_train: list
    hr_dev: list
    hr_test: list
    tg_test: list
    few_shot: dict[int, list]          # {10: ..., 100: ...} target-language labeled
    selection_dev: list                # target-language labeled, disjoint from pools
    parallel: ParallelCorpus


def assert_disjoint_splits(bundle: DatasetBundle):
    """Pairwise disjointness of few-shot pools, selection-dev and test, by sentence."""
    splits = {f"few_{k}": pool for k, pool in bundle.few_shot.items()}
    splits.update(selection_dev=bundle.selection_dev, tg_test=bundle.tg_test)
    sentences = {name: {" ".join(t) for t, _ in samples} for name, samples in splits.items()}
    for a, b in itertools.combinations(sentences, 2):
        overlap = sentences[a] & sentences[b]
        if overlap:
            raise ValueError(f"splits {a} and {b} share {len(overlap)} samples")


# Sentences are drawn until a split holds enough distinct ones. A run of this
# many duplicate draws in a row means the sentence space is (nearly) used up:
# the draw stops with an error instead of looping forever. Only rejected
# draws are counted, so every config that fills its splits draws as before.
_MAX_DUPLICATE_RUN = 10_000


def _draw_split(rng: np.random.Generator, inventory: list[str], min_len: int, max_len: int,
                count: int, seen: set[str], split: str, mark=None) -> list[tuple]:
    """``count`` (sentence, label) samples whose sentences are new to ``seen``
    (which gains them): each draw is a length in [min_len, max_len], that
    many ``inventory`` tokens and, with ``mark``, the label of
    ``mark(sentence, i)``, which inserts the label's markers into the
    sentence of the split's i-th sample (None without ``mark``)."""
    samples = []
    duplicates = 0
    while len(samples) < count:
        n = int(rng.integers(min_len, max_len + 1))
        sent = [inventory[i] for i in rng.integers(len(inventory), size=n).tolist()]
        label = None if mark is None else mark(sent, len(samples))
        key = " ".join(sent)
        if key in seen:
            duplicates += 1
            if duplicates == _MAX_DUPLICATE_RUN:
                raise ValueError(
                    f"{split} split: {len(samples)} of {count} distinct sentences drawn, then "
                    f"{_MAX_DUPLICATE_RUN} duplicates in a row; min_len={min_len}, "
                    f"max_len={max_len} leave too few distinct sentences for the requested "
                    f"split sizes")
            continue
        duplicates = 0
        seen.add(key)
        samples.append((sent, label))
    return samples


def gen_language_pair(spec: SyntheticLanguageSpec,
                      sizes: tuple[int, int, int] = (5000, 500, 500),
                      min_len: int = 4, max_len: int = 12) -> ParallelCorpus:
    """Parallel corpus of random sentences over the full source inventory."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC0]))
    inventory = spec.source_content() + spec.function_words()
    seen: set[str] = set()
    splits = [_draw_split(rng, inventory, min_len, max_len, count, seen, f"parallel {name}")
              for name, count in zip(("train", "dev", "test"), sizes)]
    # every sentence is drawn before any is translated, with the same generator
    train, dev, test = ([(s, translate_tokens(s, spec, rng)) for s, _ in split]
                        for split in splits)
    return ParallelCorpus(train=train, dev=dev, test=test)


def gen_classification_dataset(task: TaskSpec, lang: SyntheticLanguageSpec,
                               sizes: tuple[int, int, int] = (5000, 500, 500),
                               parallel_sizes: tuple[int, int, int] = (5000, 500, 500),
                               few_shot_sizes: tuple[int, ...] = (10, 100)) -> DatasetBundle:
    """Generate aligned high-resource/target splits plus the MT parallel corpus.

    Target-language sample i of each translated split is the translation of
    the corresponding high-resource sample (label-preserving). The few-shot
    pools and the selection-dev split are carved from the target dev set and
    are pairwise disjoint from each other and from the test set.
    """
    check_markers_fit(task, lang)
    rng = np.random.default_rng(np.random.SeedSequence([lang.seed, task.n_classes, 0xD5]))
    marker_sets = task.marker_sets()
    markers = {m for ms in marker_sets for m in ms}
    neutral = [t for t in lang.source_content() if t not in markers] + lang.function_words()

    def mark(sent, i):
        """Insert the markers of a label into ``sent``, the split's i-th
        sample, and return the label; multi-class labels go round the classes
        from 0 in each split."""
        if task.kind == "multi_class":
            label = i % task.n_classes
            ms = marker_sets[label]
            k = int(rng.integers(1, len(ms) + 1))
            for j in rng.choice(len(ms), size=k, replace=False).tolist():
                sent.insert(int(rng.integers(len(sent) + 1)), ms[j])
            return label
        label = [c for c in range(task.n_classes) if rng.random() < task.label_prob]
        for c in label:
            sent.insert(int(rng.integers(len(sent) + 1)), marker_sets[c][0])
        return label

    seen: set[str] = set()
    hr_train, hr_dev, hr_test = (
        _draw_split(rng, neutral, task.min_len, task.max_len, count, seen, split, mark)
        for split, count in zip(("train", "dev", "test"), sizes))

    trans_rng = np.random.default_rng(np.random.SeedSequence([lang.seed, 0x7A]))
    def translate_split(split):
        return [(translate_tokens(toks, lang, trans_rng), label) for toks, label in split]

    tg_dev = translate_split(hr_dev)
    tg_test = translate_split(hr_test)

    few_shot = {}
    offset = 0
    for k in sorted(few_shot_sizes):
        if offset + k > len(tg_dev):
            raise ValueError("dev split too small for the requested few-shot pools")
        few_shot[k] = tg_dev[offset:offset + k]
        offset += k
    selection_dev = tg_dev[offset:]

    parallel = gen_language_pair(lang, sizes=parallel_sizes,
                                 min_len=task.min_len, max_len=task.max_len)
    bundle = DatasetBundle(task=task, lang=lang, hr_train=hr_train, hr_dev=hr_dev,
                           hr_test=hr_test, tg_test=tg_test, few_shot=few_shot,
                           selection_dev=selection_dev, parallel=parallel)
    assert_disjoint_splits(bundle)
    return bundle
