"""Synthetic cipher languages and tasks: exact oracles, determinism,
split hygiene, degradation monotonicity."""

import hashlib
import json

import numpy as np
import pytest

from conftest import fresh_python
from difftt.synthlang import (DatasetBundle, SyntheticLanguageSpec, TaskSpec,
                              assert_disjoint_splits, degrade_language,
                              gen_classification_dataset, gen_language_pair,
                              oracle_label, translate_tokens)


CLEAN = SyntheticLanguageSpec(seed=0)
NOISY = SyntheticLanguageSpec(seed=0, reorder_prob=0.2, noise_rate=0.1)


def test_bijection_is_invertible():
    fwd = CLEAN.bijection()
    inv = CLEAN.inverse_bijection()
    assert len(fwd) == len(inv)
    for k, v in fwd.items():
        assert inv[v] == k
    # content maps to content, function words to themselves
    for f in CLEAN.function_words():
        assert fwd[f] == f
    assert set(fwd[w] for w in CLEAN.source_content()) == set(CLEAN.target_content())


def test_bijection_depends_on_seed():
    a = SyntheticLanguageSpec(seed=0).bijection()
    b = SyntheticLanguageSpec(seed=1).bijection()
    assert a != b
    assert SyntheticLanguageSpec(seed=0).bijection() == a


def test_clean_translation_is_exact_cipher(rng):
    fwd = CLEAN.bijection()
    for _ in range(50):
        sent = [CLEAN.source_content()[int(i)]
                for i in rng.integers(CLEAN.n_content_tokens, size=8)]
        out = translate_tokens(sent, CLEAN, rng)
        assert out == [fwd[t] for t in sent]


def test_noisy_translation_preserves_multiset_of_content(rng):
    # reorder and function-word noise never touch content identity
    fwd = NOISY.bijection()
    for _ in range(50):
        sent = [NOISY.source_content()[int(i)]
                for i in rng.integers(NOISY.n_content_tokens, size=10)]
        out = translate_tokens(sent, NOISY, rng)
        assert sorted(out) == sorted(fwd[t] for t in sent)


def translate_tokens_reference(tokens, spec, rng):
    """The per-draw loop ``translate_tokens`` must match draw for draw."""
    mapping = spec.bijection()
    out = [mapping.get(t, t) for t in tokens]
    for i in range(len(out) - 1):
        if rng.random() < spec.reorder_prob:
            out[i], out[i + 1] = out[i + 1], out[i]
    functions = spec.function_words()
    for i, t in enumerate(out):
        if t in functions and rng.random() < spec.noise_rate:
            out[i] = functions[int(rng.integers(len(functions)))]
    return out


@pytest.mark.parametrize("spec", [CLEAN, NOISY, SyntheticLanguageSpec(seed=4, reorder_prob=1.0),
                                  degrade_language(SyntheticLanguageSpec(seed=2), 1.0)],
                         ids=["clean", "noisy", "always-swap", "degraded"])
def test_translate_tokens_matches_per_draw_loop(spec, rng):
    inventory = spec.source_content() + spec.function_words() + ["<unk>"]
    for n in list(range(4)) * 5 + [12] * 40:
        sent = [inventory[i] for i in rng.integers(len(inventory), size=n)]
        seed = int(rng.integers(2**31))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert translate_tokens(sent, spec, ours) == translate_tokens_reference(sent, spec, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_degrade_language_monotone():
    base = NOISY
    prev_r, prev_n = base.reorder_prob, base.noise_rate
    for sev in [0.0, 0.3, 0.6, 1.0]:
        d = degrade_language(base, sev)
        assert d.reorder_prob >= prev_r - 1e-12
        assert d.noise_rate >= prev_n - 1e-12
        prev_r, prev_n = d.reorder_prob, d.noise_rate
    full = degrade_language(base, 1.0)
    assert full.reorder_prob == pytest.approx(base.max_reorder)
    assert full.noise_rate == pytest.approx(base.max_noise)
    with pytest.raises(ValueError):
        degrade_language(base, 1.5)


def test_gen_language_pair_deterministic_and_unique():
    a = gen_language_pair(CLEAN, sizes=(50, 10, 10))
    b = gen_language_pair(CLEAN, sizes=(50, 10, 10))
    assert a.train == b.train and a.dev == b.dev and a.test == b.test
    keys = {" ".join(s) for s, _ in a.train + a.dev + a.test}
    assert len(keys) == 70


@pytest.mark.parametrize("spec,fields,match", [
    (TaskSpec, {"kind": "multiclass"}, "TaskSpec.kind='multiclass'"),
    (TaskSpec, {"n_classes": 0}, "TaskSpec.n_classes=0: must be >= 1"),
    (TaskSpec, {"markers_per_class": 0}, "TaskSpec.markers_per_class=0: must be >= 1"),
    (TaskSpec, {"min_len": 9, "max_len": 3}, "TaskSpec.min_len=9, max_len=3"),
    (TaskSpec, {"min_len": -1}, "TaskSpec.min_len=-1"),
    (TaskSpec, {"label_prob": -0.5}, r"TaskSpec.label_prob=-0.5: must be in \[0, 1\]"),
    (SyntheticLanguageSpec, {"n_content_tokens": 0}, "n_content_tokens=0: must be >= 1"),
    (SyntheticLanguageSpec, {"n_function_words": -1}, "n_function_words=-1: must be >= 0"),
    (SyntheticLanguageSpec, {"noise_rate": 1.5}, r"noise_rate=1.5: must be in \[0, 1\]"),
    (SyntheticLanguageSpec, {"reorder_prob": -0.1}, "reorder_prob=-0.1"),
    (SyntheticLanguageSpec, {"max_reorder": 1.1}, "max_reorder=1.1"),
    (SyntheticLanguageSpec, {"max_noise": float("nan")}, "max_noise=nan"),
])
def test_spec_out_of_range_rejected_when_built(spec, fields, match):
    with pytest.raises(ValueError, match=match):
        spec(**fields)


def test_markers_past_the_content_inventory_rejected():
    # 50 classes of 4 markers would run past the 60 content tokens and encode as UNK
    with pytest.raises(ValueError, match="200 marker tokens .* n_content_tokens=60"):
        gen_classification_dataset(TaskSpec(n_classes=50), CLEAN, sizes=(6, 6, 6),
                                   parallel_sizes=(6, 6, 6), few_shot_sizes=())
    # exactly filling it is allowed: one marker per label, 60 labels
    gen_classification_dataset(TaskSpec(kind="multi_label", n_classes=60), CLEAN,
                               sizes=(6, 6, 6), parallel_sizes=(6, 6, 6), few_shot_sizes=())


def test_specs_at_the_range_ends_load():
    TaskSpec(min_len=0, max_len=0, label_prob=1.0)
    TaskSpec(kind="multi_label", label_prob=0.0)
    lang = SyntheticLanguageSpec(n_content_tokens=1, n_function_words=0, reorder_prob=1.0,
                                 noise_rate=0.0, max_reorder=1.0, max_noise=1.0)
    assert degrade_language(lang, 1.0).noise_rate == 1.0


def test_gen_language_pair_rejects_degenerate():
    with pytest.raises(ValueError, match="n_content_tokens=0: must be >= 1"):
        gen_language_pair(SyntheticLanguageSpec(n_content_tokens=0))


@pytest.mark.parametrize("call,message", [
    # one distinct sentence exists (empty, no labels), and each split wants three
    ("gen_classification_dataset(TaskSpec(kind='multi_label', min_len=0, max_len=0, "
     "label_prob=0.0), SyntheticLanguageSpec(), sizes=(3, 3, 3))",
     "train split: 1 of 3 distinct sentences drawn, then 10000 duplicates in a row; "
     "min_len=0, max_len=0"),
    # two distinct sentences ("" and "w000") for three one-sentence splits
    ("gen_language_pair(SyntheticLanguageSpec(n_content_tokens=1, n_function_words=0), "
     "sizes=(1, 1, 1), min_len=0, max_len=1)",
     "parallel test split: 0 of 1 distinct sentences drawn"),
], ids=["labeled", "parallel"])
def test_too_few_distinct_sentences_fails_instead_of_hanging(call, message):
    # a fresh interpreter with a timeout, since the failure this guards
    # against is a draw loop that never ends
    code = ("from difftt.synthlang import *\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    done = fresh_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert message in done.stdout


def test_oracle_label_multi_class():
    task = TaskSpec(kind="multi_class", n_classes=3)
    marker = task.marker_sets()[1][0]
    sent = ["w050", "f00", marker, "w051"]
    assert oracle_label(sent, task) == 1
    translated = [CLEAN.bijection()[t] if t.startswith("w") else t for t in sent]
    assert oracle_label(translated, task, lang=CLEAN) == 1
    with pytest.raises(ValueError, match="expected exactly 1"):
        oracle_label(["w050"], task)


def test_oracle_label_multi_label():
    task = TaskSpec(kind="multi_label", n_classes=4)
    sets = task.marker_sets()
    sent = ["w055", sets[0][0], sets[3][0]]
    assert oracle_label(sent, task) == [0, 3]
    assert oracle_label(["w055"], task) == []


def test_dataset_bundle_oracles_and_alignment():
    task = TaskSpec(n_classes=3)
    bundle = gen_classification_dataset(task, NOISY, sizes=(60, 120, 30),
                                        parallel_sizes=(40, 10, 10))
    # every split's labels agree with the oracle, in both languages
    for toks, label in bundle.hr_train[:30]:
        assert oracle_label(toks, task) == label
    for toks, label in bundle.tg_test:
        assert oracle_label(toks, task, lang=NOISY) == label
    # target test sample i is the translation of high-resource test sample i
    fwd = NOISY.bijection()
    for (s, ls), (t, lt) in zip(bundle.hr_test, bundle.tg_test):
        assert ls == lt
        assert sorted(fwd[x] for x in s if x in fwd and x.startswith("w")) == \
            sorted(x for x in t if x.startswith("z"))


def test_few_shot_pools_sized_and_disjoint():
    bundle = gen_classification_dataset(TaskSpec(), NOISY, sizes=(60, 150, 30),
                                        parallel_sizes=(40, 10, 10))
    assert sorted(bundle.few_shot) == [10, 100]
    assert len(bundle.few_shot[10]) == 10
    assert len(bundle.few_shot[100]) == 100
    assert len(bundle.selection_dev) == 150 - 110
    assert_disjoint_splits(bundle)


def test_disjointness_check_catches_overlap():
    bundle = gen_classification_dataset(TaskSpec(), NOISY, sizes=(60, 120, 30),
                                        parallel_sizes=(40, 10, 10))
    bundle.few_shot[10] = list(bundle.few_shot[100][:10])
    with pytest.raises(ValueError, match="share"):
        assert_disjoint_splits(bundle)


def test_dev_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        gen_classification_dataset(TaskSpec(), NOISY, sizes=(60, 50, 30),
                                   parallel_sizes=(40, 10, 10))


def test_multi_class_splits_roughly_balanced():
    bundle = gen_classification_dataset(TaskSpec(n_classes=3), NOISY,
                                        sizes=(90, 120, 30),
                                        parallel_sizes=(40, 10, 10))
    counts = np.bincount([l for _, l in bundle.hr_train], minlength=3)
    assert counts.min() >= 25  # round-robin labels


def bundle_digest(bundle) -> str:
    """sha256 of every split's content, in a fixed JSON layout."""
    splits = {"hr_train": bundle.hr_train, "hr_dev": bundle.hr_dev,
              "hr_test": bundle.hr_test, "tg_test": bundle.tg_test,
              "selection_dev": bundle.selection_dev,
              "few_shot": {str(k): v for k, v in bundle.few_shot.items()},
              "parallel": {"train": bundle.parallel.train, "dev": bundle.parallel.dev,
                           "test": bundle.parallel.test}}
    return hashlib.sha256(json.dumps(splits, sort_keys=True).encode()).hexdigest()


SMALL = dict(sizes=(200, 150, 100), parallel_sizes=(300, 50, 50))
GOLDEN = {
    # the benchmark's service bundle (perfbench/build_pipeline.py: LANG, TASK,
    # SIZES, PARALLEL_SIZES), the data its committed pipeline was trained on
    "service": (TaskSpec(kind="multi_class", n_classes=3),
                SyntheticLanguageSpec(seed=0, reorder_prob=0.2, noise_rate=0.1),
                dict(sizes=(5000, 500, 500), parallel_sizes=(5000, 500, 500)),
                "9449bb060a31eac32e4a39e27831be8215ac02df1379ac9beebbcfa9cf6e42cc"),
    "multi_label": (TaskSpec(kind="multi_label", n_classes=4, label_prob=0.3),
                    SyntheticLanguageSpec(seed=3, reorder_prob=0.1, noise_rate=0.2),
                    dict(SMALL, few_shot_sizes=(10, 50)),
                    "cf8cf6b34cae977bbd2a18e7392ff5138aee7a3b205ff362c685d0d6a788f612"),
    "degraded": (TaskSpec(n_classes=4), degrade_language(SyntheticLanguageSpec(seed=5), 0.7),
                 SMALL, "89bdfb14174d2f8124ba8532ed4ffdbd8749e1ae20a8e94b0a8bd03d1d8ed777"),
    "clean": (TaskSpec(n_classes=2, markers_per_class=3), SyntheticLanguageSpec(seed=7),
              SMALL, "fa565da10e2c083802e7f1ec02d1fd205c9dd8d6175808cac2f6069001207287"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_data_matches_golden_digest(name):
    # any change to what a language generates, or to the order or count of
    # its random draws, changes these digests
    task, lang, sizes, digest = GOLDEN[name]
    assert bundle_digest(gen_classification_dataset(task, lang, **sizes)) == digest


def test_mutating_a_returned_bijection_changes_nothing():
    task, lang, sizes, digest = GOLDEN["degraded"]
    fwd, inv = lang.bijection(), lang.inverse_bijection()
    expected_fwd, expected_inv = dict(fwd), dict(inv)
    for table in (fwd, inv):
        for key in list(table)[:30]:
            table[key] = "tampered"
        table["w000"] = table["z000"] = "f00"
    fwd.clear()
    assert lang.bijection() == expected_fwd
    assert lang.inverse_bijection() == expected_inv
    assert bundle_digest(gen_classification_dataset(task, lang, **sizes)) == digest
