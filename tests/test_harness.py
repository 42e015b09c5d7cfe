"""Config-driven runner: config parsing, data generation, the evaluation
matrix, report schema and regeneration checks. Uses deliberately tiny
configurations; statistical quality is covered by the acceptance suite."""

import dataclasses
import json
import re

import numpy as np
import pytest

from difftt import harness
from difftt.checkpoint import load_checkpoint
from difftt.harness import (ExperimentConfig, RunReport, cmd_evaluate,
                            cmd_gen_data, cmd_report, cmd_sweep_bleu, cmd_train,
                            generate_bundle, shared_vocabulary)
from difftt.optim import TrainConfig
from difftt.pipeline import FreezingPolicy


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        name="tiny",
        out_dir=str(tmp_path / "run"),
        lang={"seed": 0, "reorder_prob": 0.1, "noise_rate": 0.05},
        mt_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                  "max_source_len": 16, "max_decode_len": 16},
        tc_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                  "max_len": 18},
        budgets=[0, 10],
        seeds=[1],
        methods=["pipeline"],
        sizes=[60, 120, 20],
        parallel_sizes=[40, 10, 10],
        mt_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                  "warmup_steps": 0, "grad_accum": 1},
        tc_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                  "warmup_steps": 0, "grad_accum": 1},
        finetune={"epochs": 1, "batch_size": 1, "lr": 1e-4,
                  "warmup_steps": 0, "grad_accum": 1},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    clone = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert clone == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"nonsense": 1})


@pytest.mark.parametrize("section", ["task", "lang", "mt_model", "tc_model", "freezing",
                                     "mt_train", "tc_train", "finetune"])
def test_config_rejects_unknown_keys_in_override_sections(tmp_path, section):
    with pytest.raises(ValueError, match=f"unknown keys in config section '{section}': "
                                         r"\['colour'\]"):
        ExperimentConfig.from_dict({section: {"colour": 1}})
    with pytest.raises(ValueError, match=f"config section '{section}' must be an object"):
        ExperimentConfig.from_dict({section: [1]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {"colour": 1}}))
    with pytest.raises(ValueError, match=r"cfg\.json: unknown keys"):
        ExperimentConfig.load(path)


@pytest.mark.parametrize("section", ["mt_train", "tc_train", "finetune"])
def test_config_rejects_a_training_seed(tmp_path, section):
    # each of the config's seeds is its runs' seed, so a section's own would be ignored
    with pytest.raises(ValueError, match=f"section '{section}': \\['seed'\\].*config's seeds"):
        ExperimentConfig.from_dict({section: {"seed": 5}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {"seed": 5}}))
    with pytest.raises(ValueError, match=r"cfg\.json: .*'seed'"):
        ExperimentConfig.load(path)


def test_config_checks_sweep_keys(tmp_path):
    with pytest.raises(ValueError, match=r"section 'sweep': \['severty'\]"):
        ExperimentConfig.from_dict({"sweep": {"severty": 0.5}})
    with pytest.raises(ValueError, match="section 'sweep' must be an object"):
        ExperimentConfig.from_dict({"sweep": [0.5]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"severty": 0.5}}))
    with pytest.raises(ValueError, match=r"cfg\.json: .*severty"):
        ExperimentConfig.load(path)
    cfg = ExperimentConfig.from_dict({"sweep": {"severity": 0.5, "budgets": [0, 10]}})
    assert cfg.sweep == {"severity": 0.5, "budgets": [0, 10]}


@pytest.mark.parametrize("data,match", [
    ({"mt_train": {"epochs": 0}}, "epochs=0"),
    ({"tc_train": {"batch_size": 0}}, "batch_size=0"),
    ({"finetune": {"grad_accum": 0}}, "grad_accum=0"),
    ({"finetune": {"lr": -1e-4}}, "lr=-0.0001"),
    ({"mt_model": {"temperature": 0.0}}, "temperature=0.0"),
    ({"mt_train": {"epochs": "2"}}, "not supported"),
    ({"freezing": {"mt_fraction": 2.0}}, r"FreezingPolicy\.mt_fraction=2\.0: must be in \[0, 1\]"),
    ({"freezing": {"tc_fraction": -0.1}}, "tc_fraction=-0.1"),
    ({"seeds": []}, "seeds is empty"),
    ({"seeds": [1, 2, 1]}, r"seeds \[1, 2, 1\] repeat"),
    ({"budgets": [0, 10, 10]}, r"budgets \[0, 10, 10\] repeat"),
    ({"sweep": {"budgets": [0, 0]}}, r"sweep budgets \[0, 0\] repeat"),
    ({"tc_model": {"max_len": 10}}, "classifier max_len 10 leaves 9 steps after CLS, fewer "
                                    "than the translator's max_decode_len 32"),
    ({"tc_model": {"n_classes": 0}}, r"\['n_classes'\].*the task sets n_classes and multi_label"),
    ({"mt_model": {"n_heads": 3}}, "MtConfig.d_model=64: must be divisible by n_heads=3"),
    ({"mt_model": {"max_decode_len": 0}}, "MtConfig.max_decode_len=0"),
    ({"task": {"kind": "multiclass"}}, "TaskSpec.kind='multiclass'"),
    ({"task": {"n_classes": 50}}, "200 marker tokens .* exceed the language's n_content_tokens=60"),
    ({"task": {"kind": "multi_label", "n_classes": 6}, "lang": {"n_content_tokens": 5}},
     "6 marker tokens .* exceed the language's n_content_tokens=5"),
    ({"task": {"min_len": 9, "max_len": 3}}, "TaskSpec.min_len=9, max_len=3"),
    ({"task": {"min_len": -1}}, "TaskSpec.min_len=-1"),
    ({"task": {"label_prob": 1.5}}, r"TaskSpec.label_prob=1.5: must be in \[0, 1\]"),
    ({"task": {"markers_per_class": 0}}, "TaskSpec.markers_per_class=0"),
    ({"lang": {"noise_rate": 1.5}}, r"SyntheticLanguageSpec.noise_rate=1.5: must be in \[0, 1\]"),
    ({"lang": {"reorder_prob": -0.1}}, "SyntheticLanguageSpec.reorder_prob=-0.1"),
    ({"lang": {"max_noise": 2.0}}, "SyntheticLanguageSpec.max_noise=2.0"),
    ({"lang": {"n_content_tokens": 0}}, "SyntheticLanguageSpec.n_content_tokens=0"),
    ({"finetune": {"warmup_steps": -1}}, "TrainConfig.warmup_steps=-1"),
    ({"mt_train": {"weight_decay": -0.01}}, "TrainConfig.weight_decay=-0.01"),
    ({"tc_train": {"max_grad_norm": -1.0}}, "TrainConfig.max_grad_norm=-1.0"),
    ({"mt_model": {"n_layers": -1}}, "MtConfig.n_layers=-1: must be >= 0"),
    ({"mt_model": {"d_model": 0, "n_heads": 1}}, "MtConfig.d_model=0: must be >= 1"),
    ({"mt_model": {"d_ff": 0}}, "MtConfig.d_ff=0: must be >= 1"),
    ({"mt_model": {"d_ff": -4}}, "MtConfig.d_ff=-4: must be >= 1"),
    ({"tc_model": {"d_model": 0, "n_heads": 1}}, "TcConfig.d_model=0: must be >= 1"),
    ({"tc_model": {"d_ff": 0}}, "TcConfig.d_ff=0: must be >= 1"),
    ({"tc_model": {"d_ff": -4}}, "TcConfig.d_ff=-4: must be >= 1"),
    ({"sizes": [200, 150]}, r"sizes must be 3 non-negative integers, got \[200, 150\]"),
    ({"sizes": [200, 150, -1]}, "sizes must be 3 non-negative integers"),
    ({"parallel_sizes": [30, 8, 8, 8]}, "parallel_sizes must be 3 non-negative integers"),
    ({"parallel_sizes": [30, 8.5, 8]}, "parallel_sizes must be 3 non-negative integers"),
    ({"seeds": ["a"]}, r"seeds must be non-negative integers, got \['a'\]"),
    ({"seeds": [1.5]}, "seeds must be non-negative integers"),
    ({"budgets": [0, -10]}, "budgets must be non-negative integers"),
    ({"budgets": [0, "10"]}, "budgets must be non-negative integers"),
    ({"sweep": {"budgets": [-1]}}, "sweep budgets must be non-negative integers"),
    ({"sweep": {"budgets": [0.5]}}, "sweep budgets must be non-negative integers"),
    ({"methods": []}, r"methods \[\]: give one or more of"),
    ({"methods": ["lm", "soft"]}, r"methods \['lm', 'soft'\]: give one or more of"),
    ({"sweep": {"severity": 1.5}}, r"SweepSpec.severity=1.5: must be in \[0, 1\]"),
    ({"sweep": {"severity": -0.1}}, r"SweepSpec.severity=-0.1: must be in \[0, 1\]"),
    # the kind each field's annotation names
    ({"tc_train": {"epochs": 2.5}},
     "TrainConfig.epochs=2.5: type float is not supported; must be an integer"),
    ({"mt_train": {"batch_size": True}}, "TrainConfig.batch_size=True: type bool"),
    ({"finetune": {"lr": False}}, "TrainConfig.lr=False: type bool"),
    ({"freezing": {"freeze_tc_head": "false"}},
     "FreezingPolicy.freeze_tc_head='false': type str is not supported; must be true or false"),
    ({"freezing": {"freeze_tc_head": 0}}, "FreezingPolicy.freeze_tc_head=0: type int"),
    ({"task": {"kind": 1}}, "TaskSpec.kind=1: type int is not supported; must be a string"),
    ({"lang": {"noise_rate": None}}, "SyntheticLanguageSpec.noise_rate=None: type NoneType"),
    ({"mt_model": {"max_decode_len": 8.0}}, "MtConfig.max_decode_len=8.0: type float"),
    ({"out_dir": 5}, "ExperimentConfig.out_dir=5: type int is not supported; must be a string"),
    ({"methods": "lm"}, "ExperimentConfig.methods='lm': type str is not supported; must be a list"),
    # the classifier keys the task sets
    ({"tc_model": {"multi_label": True}},
     r"section 'tc_model': \['multi_label'\].*the task sets n_classes and multi_label"),
    ({"task": {"n_classes": 3}, "tc_model": {"n_classes": 2}},
     r"section 'tc_model': \['n_classes'\].*the task sets n_classes and multi_label"),
    # a count is an integer by the kind rule, so a bool is not one
    ({"seeds": [True]}, "seeds must be non-negative integers"),
])
def test_config_rejects_out_of_range_settings(tmp_path, data, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(data)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"cfg\.json: "):
        ExperimentConfig.load(path)


def test_train_config_overrides(tmp_path):
    cfg = tiny_config(tmp_path)
    tc = cfg.train_config("mt", seed=7)
    assert tc.lr == 1e-3 and tc.epochs == 1 and tc.seed == 7
    ft = cfg.train_config("finetune", seed=2)
    assert ft.batch_size == 1 and ft.seed == 2


def test_each_stage_recipe_is_the_one_runs_have_trained_with():
    # TrainConfig's fields for each stage of a config without overrides
    recipes = {
        "mt": dict(epochs=10, batch_size=8, lr=3e-5, warmup_steps=500, weight_decay=0.01,
                   max_grad_norm=1.0, grad_accum=2),
        "tc": dict(epochs=10, batch_size=8, lr=3e-6, warmup_steps=500, weight_decay=0.01,
                   max_grad_norm=1.0, grad_accum=2),
        "finetune": dict(epochs=10, batch_size=1, lr=3e-6, warmup_steps=0, weight_decay=0.01,
                         max_grad_norm=1.0, grad_accum=1),
    }
    cfg = ExperimentConfig()
    for which, recipe in recipes.items():
        for seed in (0, 1, 7):
            assert dataclasses.asdict(cfg.train_config(which, seed)) == {**recipe, "seed": seed}


def test_field_kinds_take_numpy_numbers():
    cfg = TrainConfig(epochs=np.int64(2), lr=np.float32(0.5), max_grad_norm=1)
    assert (cfg.epochs, cfg.lr, cfg.max_grad_norm) == (2, 0.5, 1)
    assert FreezingPolicy(mt_fraction=np.float64(0.25), tc_fraction=1).tc_fraction == 1


def test_numpy_numbers_round_trip_through_the_config_file():
    # the count rule takes the integers the field kind rule takes, and the
    # JSON writer writes them as plain numbers
    cfg = ExperimentConfig(out_dir="r", mt_train={"epochs": np.int64(2)}, seeds=[np.int64(1)])
    assert ExperimentConfig.from_dict(json.loads(cfg.to_json())) == cfg


# a value below each numeric field's bound, for every class of _SECTIONS
_BELOW_BOUND = {
    "TaskSpec": dict(n_classes=0, markers_per_class=0, min_len=-1, max_len=-1, label_prob=-0.1),
    "SyntheticLanguageSpec": dict(seed=-1, n_function_words=-1, n_content_tokens=0,
                                  reorder_prob=-0.1, noise_rate=-0.1, max_reorder=-0.1,
                                  max_noise=-0.1),
    "MtConfig": dict(d_model=0, n_layers=-1, n_heads=0, d_ff=0, max_source_len=0,
                     max_decode_len=0, temperature=0.0, dropout=-0.1),
    "TcConfig": dict(d_model=0, n_layers=-1, n_heads=0, d_ff=0, max_len=1, n_classes=0),
    "FreezingPolicy": dict(mt_fraction=-0.1, tc_fraction=-0.1),
    "TrainConfig": dict(epochs=0, batch_size=0, lr=-1e-4, warmup_steps=-1, weight_decay=-0.01,
                        max_grad_norm=-1.0, grad_accum=0, seed=-1),
    "SweepSpec": dict(severity=-0.1),
}


@pytest.mark.parametrize("section,field", [
    (section, f.name) for section, target in harness._SECTIONS.items()
    for f in dataclasses.fields(target) if f.type in ("int", "float")])
def test_every_numeric_field_rejects_nan_and_values_below_its_bound(tmp_path, section, field):
    target = harness._SECTIONS[section]
    named = re.escape(f"{target.__name__}.{field}=")
    for value in (float("nan"), _BELOW_BOUND[target.__name__][field]):
        if field in harness._SECTION_KEYS[section]:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({section: {field: value}}))  # NaN as the NaN literal
            with pytest.raises(ValueError, match=r"cfg\.json: " + named):
                ExperimentConfig.load(path)
        else:  # the run seeds or the task set it, so the section refuses it
            with pytest.raises(ValueError, match=named):
                target(**{field: value})


def test_shared_vocabulary_covers_both_languages(tmp_path):
    cfg = tiny_config(tmp_path)
    lang = cfg.lang_spec()
    vocab = shared_vocabulary(lang)
    for t in lang.source_content() + lang.target_content() + lang.function_words():
        assert t in vocab.index


def test_gen_data_writes_and_respects_force(tmp_path):
    cfg = tiny_config(tmp_path)
    out = cmd_gen_data(cfg)
    assert (out / "manifest.json").exists()
    assert (out / "vocab.txt").exists()
    assert (out.parent / "config.json").exists()
    with pytest.raises(FileExistsError):
        cmd_gen_data(cfg)
    cmd_gen_data(cfg, force=True)  # no error


def test_gen_data_deterministic(tmp_path):
    a = cmd_gen_data(tiny_config(tmp_path / "a", out_dir=str(tmp_path / "a")))
    b = cmd_gen_data(tiny_config(tmp_path / "b", out_dir=str(tmp_path / "b")))
    for name in ["hr_train.tsv", "tg_test.tsv", "parallel_train.tsv", "vocab.txt"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cmd_train_requires_data(tmp_path):
    with pytest.raises(FileNotFoundError, match="gen-data"):
        cmd_train("mt", tiny_config(tmp_path))


def test_cmd_train_writes_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_gen_data(cfg)
    summary = cmd_train("tc", cfg, seed=1)
    assert summary["component"] == "tc" and summary["seed"] == 1
    assert len(summary["validation_curve"]) == 1
    assert (tmp_path / "run" / "checkpoints" / "tc_seed1" / "best.npz").exists()
    assert (tmp_path / "run" / "checkpoints" / "tc_seed1" / "training.json").exists()


def test_evaluate_report_schema(tmp_path):
    cfg = tiny_config(tmp_path)
    report = cmd_evaluate(cfg)
    methods = {r["method"] for r in report.rows}
    assert methods == {"pipeline_soft", "pipeline_hard"}
    budgets = {r["budget"] for r in report.rows}
    assert budgets == {0, 10}
    for row in report.rows:
        assert 0.0 <= row["metric"] <= 1.0
        assert row["ms_per_sample"] > 0
    assert report.soft_hard_delta.keys() == {"0", "10"}
    # files written
    rdir = tmp_path / "run" / "report"
    assert (rdir / "report.json").exists() and (rdir / "report.csv").exists()
    # report command reloads and verifies
    reloaded = cmd_report(cfg.out_dir)
    assert reloaded.rows == report.rows


def test_evaluate_rejects_unknown_method(tmp_path):
    # rejected as the config is built, before any command can run it
    with pytest.raises(ValueError, match=r"methods \['nope'\]: give one or more of"):
        tiny_config(tmp_path, methods=["nope"])


@pytest.mark.parametrize("command", [cmd_evaluate, cmd_sweep_bleu])
def test_bad_budget_fails_before_any_training(tmp_path, monkeypatch, command):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before the budgets were checked")

    monkeypatch.setattr(harness, "train_mt", no_training)
    monkeypatch.setattr(harness, "train_tc", no_training)
    cfg = tiny_config(tmp_path, budgets=[0, 5], sweep={"severity": 0.8, "budgets": [0, 5]})
    with pytest.raises(ValueError, match=r"budget 5 has no few-shot pool.*\[10, 100\]"):
        command(cfg, bundle=generate_bundle(cfg))


def test_sweep_rejects_too_few_epochs_before_training(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before the epoch count was checked")

    monkeypatch.setattr(harness, "train_mt", no_training)
    monkeypatch.setattr(harness, "train_tc", no_training)
    cfg = tiny_config(tmp_path, sweep={"severity": 0.8, "budgets": [0]})
    assert cfg.mt_train["epochs"] == 1
    with pytest.raises(ValueError, match="at least 3 MT checkpoints.*epochs=1"):
        cmd_sweep_bleu(cfg, bundle=generate_bundle(cfg))
    assert not (tmp_path / "run" / "sweep_checkpoints").exists()


def sweep_config(tmp_path, budgets):
    return tiny_config(tmp_path, sweep={"severity": 0.8, "budgets": budgets},
                       mt_train={"epochs": 2, "batch_size": 16, "lr": 1e-3,
                                 "warmup_steps": 0, "grad_accum": 1})


@pytest.mark.parametrize("budgets", [[10, 0], [10, 100]])
def test_sweep_starts_every_budget_from_the_trained_models(tmp_path, monkeypatch, budgets):
    # a budget after a positive one must not start from the translator that
    # the previous budget fine-tuned
    trained_tc, built = [], []
    train_tc_component = harness.train_tc_component
    pipeline_class = harness.TranslateTestPipeline

    def recording_train_tc(*args, **kwargs):
        model, result = train_tc_component(*args, **kwargs)
        trained_tc.append(model.store.state())
        return model, result

    def recording_pipeline(mt, tc, freezing):
        built.append((mt.store.state(), tc.store.state()))
        return pipeline_class(mt, tc, freezing)

    monkeypatch.setattr(harness, "train_tc_component", recording_train_tc)
    monkeypatch.setattr(harness, "TranslateTestPipeline", recording_pipeline)
    out = cmd_sweep_bleu(sweep_config(tmp_path, budgets))
    assert len(trained_tc) == 1 and len(built) == len(out["series"]) * len(budgets) == 6
    for i, entry in enumerate(out["series"]):
        checkpoint = load_checkpoint(entry["checkpoint"])[0]
        for mt_state, tc_state in built[i * len(budgets): (i + 1) * len(budgets)]:
            assert mt_state.keys() == checkpoint.keys()
            assert all(np.array_equal(mt_state[n], v) for n, v in checkpoint.items())
            assert all(np.array_equal(tc_state[n], v) for n, v in trained_tc[0].items())


def test_sweep_writes_an_undefined_correlation_as_null(tmp_path, monkeypatch):
    # a constant metric series has no rank correlation: strict JSON has no NaN
    monkeypatch.setattr(harness.TranslateTestPipeline, "evaluate_metric",
                        lambda self, data, hard=False: 0.5)
    out = cmd_sweep_bleu(sweep_config(tmp_path, [0]))
    assert out["spearman"] == {"0": None}

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    text = (tmp_path / "run" / "sweep" / "sweep.json").read_text()
    assert json.loads(text, parse_constant=reject)["spearman"] == {"0": None}


def test_translate_train_uses_the_configured_classifier(tmp_path, monkeypatch):
    built = []
    original = harness.train_tc_component

    def recording(*args, **kwargs):
        model, result = original(*args, **kwargs)
        built.append(model.config)
        return model, result

    monkeypatch.setattr(harness, "train_tc_component", recording)
    cfg = tiny_config(tmp_path, methods=["translate_train"], budgets=[0, 10])
    report = cmd_evaluate(cfg)
    assert {r["method"] for r in report.rows} == {"translate_train"}
    # one classifier per seed: each budget fine-tunes a restored copy of it
    assert [(c.d_model, c.n_layers, c.d_ff, c.max_len) for c in built] == [(16, 1, 32, 18)]


def test_lm_baseline_trains_the_same_with_or_without_the_pipeline(tmp_path, monkeypatch):
    # the pipeline method freezes the classifier's top layers; the LM baseline,
    # which restores that classifier for the next budget, must still train all of it
    runs, calls = {}, []  # calls: (trainable names, values after training) per train_tc
    original = harness.train_tc

    def recording(model, *args, **kwargs):
        trainable = [p.name for p in model.store.trainable()]
        result = original(model, *args, **kwargs)
        calls.append((trainable, model.store.state()))
        return result

    monkeypatch.setattr(harness, "train_tc", recording)
    for methods in (["lm"], ["lm", "pipeline"]):
        cfg = tiny_config(tmp_path / "+".join(methods), methods=methods, budgets=[0, 10])
        rows = [{k: v for k, v in r.items() if k != "ms_per_sample"}
                for r in cmd_evaluate(cfg).rows if r["method"] == "lm"]
        runs["+".join(methods)] = rows, calls[:]
        calls.clear()
    (lm_rows, lm_calls), (both_rows, both_calls) = runs["lm"], runs["lm+pipeline"]
    assert lm_rows == both_rows
    # train_tc runs for the trained classifier, then for the LM baseline at k=10
    assert len(lm_calls) == len(both_calls) == 2
    for (names, state), (both_names, both_state) in zip(lm_calls, both_calls):
        assert names == both_names == list(state)
        assert all(np.array_equal(state[n], both_state[n]) for n in names)


def test_report_detects_tampered_averages(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_evaluate(cfg)
    path = tmp_path / "run" / "report" / "report.json"
    data = json.loads(path.read_text())
    data["averages"][0]["metric_mean"] += 0.5
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="recompute"):
        cmd_report(cfg.out_dir)


@pytest.mark.parametrize("table", ["averages", "rows"])
def test_report_detects_dropped_row(tmp_path, table):
    cfg = tiny_config(tmp_path)
    cmd_evaluate(cfg)
    path = tmp_path / "run" / "report" / "report.json"
    data = json.loads(path.read_text())
    data[table].pop()
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="recompute"):
        cmd_report(cfg.out_dir)


def test_run_report_averages():
    report = RunReport(name="x", metric_kind="accuracy", rows=[
        {"method": "pipeline_soft", "budget": 0, "seed": 1, "metric": 0.6, "ms_per_sample": 1.0},
        {"method": "pipeline_soft", "budget": 0, "seed": 2, "metric": 0.8, "ms_per_sample": 3.0},
        {"method": "pipeline_hard", "budget": 0, "seed": 1, "metric": 0.5, "ms_per_sample": 1.0},
        {"method": "pipeline_hard", "budget": 0, "seed": 2, "metric": 0.6, "ms_per_sample": 1.0},
    ])
    report.compute_averages()
    avg = {(a["method"], a["budget"]): a for a in report.averages}
    assert avg[("pipeline_soft", 0)]["metric_mean"] == pytest.approx(0.7)
    assert avg[("pipeline_soft", 0)]["ms_per_sample_mean"] == pytest.approx(2.0)
    assert report.soft_hard_delta["0"] == pytest.approx(0.7 - 0.55)
