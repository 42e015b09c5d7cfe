"""Acceptance gate: ten criteria covering end-to-end differentiability,
hard/soft consistency, bridge algebra, the freezing contract, metric oracles,
the synthetic transfer experiment, translation-quality sensitivity, the
soft-vs-hard comparison, the dedicated-translator training effect, and
bit-identical reproducibility.

Each test prints one summary line with the measured quantity so a log scan
shows the full scorecard."""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from difftt import autodiff as ad
from difftt.autodiff import Tensor
from difftt.bridge import expected_embedding
from difftt.gradcheck import finite_difference_check
from difftt.harness import (ExperimentConfig, cmd_evaluate, cmd_sweep_bleu,
                            generate_bundle, shared_vocabulary,
                            train_mt_component, train_tc_component)
from difftt.metrics import accuracy, corpus_bleu, mean_r_precision, r_precision
from difftt.mt import MtConfig, MtModel, TrainConfig, evaluate_bleu, _pad_batch
from difftt.pipeline import FreezingPolicy, TranslateTestPipeline
from difftt.tc import TcConfig, TcModel
from difftt.vocab import SPECIALS, Vocabulary

from conftest import micro_mt, micro_tc, micro_vocab


# ---------------------------------------------------------------------------
# 1. end-to-end differentiability
# ---------------------------------------------------------------------------

def test_01_end_to_end_gradient_check():
    vocab = micro_vocab(15)  # 20 entries with specials
    mt = micro_mt(vocab, seed=3)
    tc = micro_tc(vocab, seed=4)
    src = vocab.encode(["t3", "t7", "t1"])
    # frozen so finite differences stay smooth
    tokens = mt.greedy_decode_batch(np.asarray([src]))[0]

    def loss_fn():
        dec_in = np.asarray([[vocab.bos_id] + list(tokens[:-1])])
        memory, cross_mask = mt.encode(np.asarray([src]))
        logits = mt.decode_logits(memory, cross_mask, dec_in)
        probs = ad.reshape(ad.softmax(logits), (len(tokens), len(vocab)))
        probs = ad.reshape(probs, (1, len(tokens), len(vocab)))
        return ad.cross_entropy(tc.logits_soft(probs, np.asarray([len(tokens)])), np.asarray([1]))

    start = time.perf_counter()
    err = finite_difference_check(loss_fn, mt.store.parameters() + tc.store.parameters(),
                                  eps=1e-5, n_coords=200,
                                  rng=np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    print(f"\n[1] end-to-end gradcheck: max rel err {err:.3e} "
          f"(limit 1e-3), {elapsed:.1f}s")
    assert err < 1e-3
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. hard/soft consistency
# ---------------------------------------------------------------------------

def test_02_forced_onehot_equals_hard_on_1000_inputs():
    vocab = micro_vocab(30)
    mt = MtModel(vocab, MtConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                                 max_source_len=8, max_decode_len=8), seed=11)
    tc = TcModel(vocab, TcConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32,
                                 max_len=10, n_classes=3), seed=12)
    pipe = TranslateTestPipeline(mt, tc, FreezingPolicy(0.5, 0.5))
    rng = np.random.default_rng(0)
    inputs = []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        inputs.append([int(i) for i in rng.integers(5, len(vocab), size=n)])

    start = time.perf_counter()
    mismatches = 0
    for lo in range(0, 1000, 250):
        chunk = inputs[lo:lo + 250]
        forced = pipe.predict_forced_onehot_batch(chunk)
        hard = pipe.predict_hard_batch(chunk)
        for f, h in zip(forced, hard):
            if not (np.array_equal(f.logits, h.logits) and f.label == h.label):
                mismatches += 1
    elapsed = time.perf_counter() - start
    print(f"\n[2] forced-one-hot vs hard: {mismatches}/1000 mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. bridge correctness
# ---------------------------------------------------------------------------

def test_03_bridge_properties_10000_cases():
    rng = np.random.default_rng(42)
    v, d = 16, 6
    emb = Tensor(rng.normal(size=(v, d)))
    max_row_norm = np.linalg.norm(emb.data, axis=1).max()

    for i in range(v):
        p = np.zeros(v)
        p[i] = 1.0
        assert np.array_equal(expected_embedding(Tensor(p), emb).data, emb.data[i])
    uniform = expected_embedding(Tensor(np.full(v, 1.0 / v)), emb).data
    assert np.allclose(uniform, emb.data.mean(axis=0), atol=1e-12)

    worst = 0.0
    for _ in range(10_000):
        p1 = rng.random(v); p1 /= p1.sum()
        p2 = rng.random(v); p2 /= p2.sum()
        lam = rng.random()
        lhs = expected_embedding(Tensor(lam * p1 + (1 - lam) * p2), emb).data
        rhs = lam * expected_embedding(Tensor(p1), emb).data \
            + (1 - lam) * expected_embedding(Tensor(p2), emb).data
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert np.linalg.norm(lhs) <= max_row_norm + 1e-12
    print(f"\n[3] bridge linearity worst deviation {worst:.2e} (limit 1e-12)")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 4. freezing contract
# ---------------------------------------------------------------------------

def test_04_freezing_contract_100_steps():
    vocab = micro_vocab(30)
    mt = MtModel(vocab, MtConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                                 max_source_len=8, max_decode_len=8), seed=1)
    tc = TcModel(vocab, TcConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                                 max_len=10, n_classes=3), seed=2)
    pipe = TranslateTestPipeline(mt, tc)  # default policy
    frozen = {}
    for tag, store in (("mt", mt.store), ("tc", tc.store)):
        for name in store.names():
            if store[name].frozen:
                frozen[(tag, name)] = store[name].data.copy()
    assert frozen, "default policy must freeze something"

    rng = np.random.default_rng(5)
    data = [([f"t{int(rng.integers(30))}" for _ in range(4)], int(rng.integers(3)))
            for _ in range(25)]
    pipe.finetune_end_to_end(data, data[:5],
                             TrainConfig(epochs=4, batch_size=1, lr=1e-3,
                                         warmup_steps=0, grad_accum=1, seed=0))
    # 4 epochs x 25 samples = 100 optimizer steps
    changed = [k for k, before in frozen.items()
               if not np.array_equal((mt if k[0] == "mt" else tc).store[k[1]].data, before)]
    t_count = pipe.trainable_param_count()
    s_count = pipe.single_model_param_count()
    print(f"\n[4] freezing: {len(changed)} frozen params changed "
          f"(must be 0); trainable {t_count} <= single-model {s_count}")
    assert changed == []
    assert t_count <= s_count


# ---------------------------------------------------------------------------
# 5. metric oracles
# ---------------------------------------------------------------------------

def test_05_metric_oracles():
    rnd = random.Random(99)
    for _ in range(1000):
        n = rnd.randint(1, 10)
        ranked = list(range(n))
        rnd.shuffle(ranked)
        gold = set(rnd.sample(range(n), rnd.randint(1, n)))
        top = ranked[:len(gold)]
        brute = sum(1 for x in top if x in gold) / len(gold)
        assert r_precision(ranked, gold) == brute
    vals = [rnd.random() for _ in range(50)]
    assert mean_r_precision(vals) == sum(vals) / len(vals)

    bleu = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert abs(bleu - math.exp(1 - 5 / 4)) < 1e-4
    assert abs(bleu - 0.7788) < 1e-4
    ref = ["u", "v", "w", "x", "y"]
    assert corpus_bleu([list(ref)], [list(ref)]) == 1.0
    assert corpus_bleu([["q", "r", "s", "t", "o"]], [list(ref)]) == 0.0

    assert accuracy([0, 1], [0, 1]) == 1.0
    assert accuracy([0, 1], [1, 0]) == 0.0
    print(f"\n[5] metric oracles: mRP exact on 1000 cases, BLEU example {bleu:.4f}")


# ---------------------------------------------------------------------------
# 6 + 8. synthetic end-to-end transfer and soft-vs-hard comparison
# ---------------------------------------------------------------------------

def experiment_config(tmp_dir) -> ExperimentConfig:
    return ExperimentConfig(
        name="acceptance-synthetic",
        out_dir=str(tmp_dir),
        lang={"seed": 0, "reorder_prob": 0.2, "noise_rate": 0.1},
        task={"kind": "multi_class", "n_classes": 3},
        budgets=[0, 100],
        seeds=[1, 2, 3],
        methods=["pipeline"],
        sizes=[5000, 500, 500],
        parallel_sizes=[5000, 500, 500],
        mt_train={"epochs": 4, "batch_size": 32, "lr": 2e-3,
                  "warmup_steps": 100, "grad_accum": 1},
        tc_train={"epochs": 3, "batch_size": 32, "lr": 1e-3,
                  "warmup_steps": 50, "grad_accum": 1},
        finetune={"epochs": 2, "batch_size": 1, "lr": 1e-4,
                  "warmup_steps": 0, "grad_accum": 1},
    )


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    cfg = experiment_config(tmp_path_factory.mktemp("synthetic"))
    bundle = generate_bundle(cfg)
    start = time.perf_counter()
    report = cmd_evaluate(cfg, bundle=bundle)
    elapsed = time.perf_counter() - start
    return cfg, bundle, report, elapsed


def mean_metric(report, method, budget):
    vals = [r["metric"] for r in report.rows
            if r["method"] == method and r["budget"] == budget]
    assert len(vals) == 3, "expected seeds {1,2,3}"
    return sum(vals) / len(vals)


def test_06_synthetic_end_to_end(synthetic_run):
    cfg, bundle, report, elapsed = synthetic_run
    labels = [int(l) for _, l in bundle.tg_test]
    majority = Counter(labels).most_common(1)[0][1] / len(labels)
    zero = mean_metric(report, "pipeline_soft", 0)
    few = mean_metric(report, "pipeline_soft", 100)
    print(f"\n[6] synthetic transfer: zero-shot {zero:.4f} vs majority {majority:.4f} "
          f"(need +0.20); 100-shot {few:.4f} (delta {few - zero:+.4f}); "
          f"run {elapsed:.0f}s (limit 600)")
    assert zero >= majority + 0.20
    assert few >= zero - 0.01
    assert elapsed < 600.0


def test_08_soft_at_least_hard_after_finetune(synthetic_run):
    _, _, report, _ = synthetic_run
    soft = mean_metric(report, "pipeline_soft", 100)
    hard = mean_metric(report, "pipeline_hard", 100)
    print(f"\n[8] soft vs hard at k=100: soft {soft:.4f}, hard {hard:.4f}, "
          f"delta {soft - hard:+.4f} (need >= -0.01)")
    assert soft >= hard - 0.01


# ---------------------------------------------------------------------------
# 7. translation-quality sensitivity
# ---------------------------------------------------------------------------

def test_07_bleu_sensitivity_sweep(tmp_path):
    cfg = ExperimentConfig(
        name="acceptance-sweep",
        out_dir=str(tmp_path / "sweep"),
        lang={"seed": 0, "reorder_prob": 0.2, "noise_rate": 0.1},
        seeds=[1],
        sizes=[1500, 250, 150],
        parallel_sizes=[2000, 200, 200],
        mt_train={"epochs": 6, "batch_size": 32, "lr": 2e-3,
                  "warmup_steps": 100, "grad_accum": 1},
        tc_train={"epochs": 2, "batch_size": 32, "lr": 1e-3,
                  "warmup_steps": 50, "grad_accum": 1},
        sweep={"severity": 0.6, "budgets": [0]},
    )
    out = cmd_sweep_bleu(cfg)
    bleus = [e["bleu"] for e in out["series"]]
    rho = out["spearman"]["0"]
    print(f"\n[7] BLEU sweep: {len(bleus)} checkpoints, BLEU "
          f"{min(bleus):.3f}..{max(bleus):.3f}, Spearman {rho:+.3f} (need > 0)")
    assert len(bleus) >= 5
    assert rho > 0.0


# ---------------------------------------------------------------------------
# 9. dedicated translator training effect
# ---------------------------------------------------------------------------

def test_09_mt_training_effect(tmp_path):
    cfg = ExperimentConfig(
        name="acceptance-mt-effect",
        out_dir=str(tmp_path / "effect"),
        lang={"seed": 0},  # severity-0 cipher: exact bijection, no noise
        seeds=[1],
        sizes=[1000, 150, 100],
        parallel_sizes=[1500, 150, 150],
        mt_train={"epochs": 3, "batch_size": 32, "lr": 2e-3,
                  "warmup_steps": 50, "grad_accum": 1},
        tc_train={"epochs": 2, "batch_size": 32, "lr": 1e-3,
                  "warmup_steps": 50, "grad_accum": 1},
    )
    bundle = generate_bundle(cfg)
    vocab = shared_vocabulary(bundle.lang)
    test_src = [vocab.encode(t) for _, t in bundle.parallel.test]
    test_refs = [list(s) for s, _ in bundle.parallel.test]

    untrained = MtModel(vocab, MtConfig(**cfg.mt_model), seed=1)
    bleu_before = evaluate_bleu(untrained, test_src, test_refs)
    tc, _ = train_tc_component(cfg, bundle, vocab, seed=1)
    tc_state = tc.store.state()
    pipe = TranslateTestPipeline(untrained, tc, cfg.freezing_policy())
    acc_before = pipe.evaluate_metric(bundle.tg_test)

    trained, _ = train_mt_component(cfg, bundle, vocab, seed=1)
    bleu_after = evaluate_bleu(trained, test_src, test_refs)
    tc.store.load_state(tc_state)
    pipe = TranslateTestPipeline(trained, tc, cfg.freezing_policy())
    acc_after = pipe.evaluate_metric(bundle.tg_test)

    print(f"\n[9] training effect: BLEU {bleu_before:.3f} -> {bleu_after:.3f} "
          f"(need +0.20); zero-shot accuracy {acc_before:.3f} -> {acc_after:.3f}")
    assert bleu_after - bleu_before >= 0.20
    assert acc_after > acc_before


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------

def test_10_manifest_reproducibility(tmp_path):
    def small_config(out):
        return ExperimentConfig(
            name="acceptance-repro",
            out_dir=str(out),
            lang={"seed": 0, "reorder_prob": 0.1, "noise_rate": 0.05},
            mt_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                      "max_source_len": 16, "max_decode_len": 16},
            tc_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                      "max_len": 18},
            budgets=[0, 10],
            seeds=[1],
            methods=["pipeline"],
            sizes=[80, 120, 30],
            parallel_sizes=[60, 15, 15],
            mt_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                      "warmup_steps": 0, "grad_accum": 1},
            tc_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                      "warmup_steps": 0, "grad_accum": 1},
            finetune={"epochs": 1, "batch_size": 1, "lr": 1e-4,
                      "warmup_steps": 0, "grad_accum": 1},
        )

    from difftt.data_io import read_bundle
    from difftt.harness import cmd_gen_data

    # dataset regenerates bit-identically from the written manifest
    cfg_a = small_config(tmp_path / "a")
    data_dir = cmd_gen_data(cfg_a)
    stored = read_bundle(data_dir)
    regen = generate_bundle(cfg_a, lang=stored.lang)
    assert regen.hr_train == stored.hr_train
    assert regen.tg_test == stored.tg_test
    assert regen.parallel.train == stored.parallel.train

    # two full runs from the same config agree on every metric bitwise
    report_a = cmd_evaluate(cfg_a)
    report_b = cmd_evaluate(small_config(tmp_path / "b"))

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "ms_per_sample"} for r in rows]

    assert strip(report_a.rows) == strip(report_b.rows)
    assert [a["metric_mean"] for a in report_a.averages] == \
        [b["metric_mean"] for b in report_b.averages]
    print(f"\n[10] reproducibility: {len(report_a.rows)} metric rows bit-identical "
          f"across independent reruns")
