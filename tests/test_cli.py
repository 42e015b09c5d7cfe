"""Command-line surface: exit codes, error records, environment overrides."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import fresh_python, micro_mt, micro_tc, micro_vocab
from difftt.cli import main


def write_config(tmp_path, **overrides) -> Path:
    cfg = dict(
        name="cli-test",
        out_dir=str(tmp_path / "run"),
        lang={"seed": 0},
        mt_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                  "max_source_len": 16, "max_decode_len": 16},
        tc_model={"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                  "max_len": 18},
        budgets=[0],
        seeds=[1],
        methods=["pipeline"],
        sizes=[40, 115, 15],
        parallel_sizes=[30, 8, 8],
        mt_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                  "warmup_steps": 0, "grad_accum": 1},
        tc_train={"epochs": 1, "batch_size": 16, "lr": 1e-3,
                  "warmup_steps": 0, "grad_accum": 1},
        finetune={"epochs": 1, "batch_size": 1, "lr": 1e-4,
                  "warmup_steps": 0, "grad_accum": 1},
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_help_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ["gen-data", "train-mt", "train-tc",
                "finetune", "evaluate", "sweep-bleu", "report"]:
        assert cmd in result.output


def test_gen_data_and_force(tmp_path):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["gen-data", str(cfg)])
    assert result.exit_code == 0, result.output
    assert "wrote dataset bundle" in result.output

    # second run without --force fails with a machine-readable record
    result = runner.invoke(main, ["gen-data", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "output-exists"

    result = runner.invoke(main, ["gen-data", str(cfg), "--force"])
    assert result.exit_code == 0


def test_train_without_data_fails_cleanly(tmp_path):
    cfg = write_config(tmp_path)
    result = CliRunner().invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "missing-input"
    assert "gen-data" in err["error"]["message"]


def test_invalid_config_fails_cleanly(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"no_such_key": 1}')
    result = CliRunner().invoke(main, ["evaluate", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "bad.json" in err["error"]["message"]
    assert "no_such_key" in err["error"]["message"]


@pytest.mark.parametrize("text", ['{"task": {"colour": 1}}',
                                  '{"mt_train": {"lr": 0.1, "colour": 1}}'],
                         ids=["task", "mt_train"])
def test_unknown_key_in_a_config_section_fails_cleanly(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["evaluate", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "bad.json" in err["error"]["message"]
    assert "colour" in err["error"]["message"]


@pytest.mark.parametrize("section,value", [("mt_train", {"epochs": 0}),
                                           ("finetune", {"seed": 5}),
                                           ("mt_model", {"temperature": -1.0}),
                                           ("tc_model", {"max_len": 10}),
                                           ("task", {"kind": "multiclass"}),
                                           ("task", {"n_classes": 50}),
                                           ("task", {"min_len": 9, "max_len": 3}),
                                           ("lang", {"noise_rate": 1.5}),
                                           ("lang", {"n_content_tokens": 0}),
                                           ("tc_train", {"epochs": 2.5}),
                                           ("freezing", {"freeze_tc_head": "false"}),
                                           ("finetune", {"max_grad_norm": float("nan")})])
def test_out_of_range_config_fails_before_training(tmp_path, section, value):
    path = write_config(tmp_path, **{section: value})
    result = CliRunner().invoke(main, ["evaluate", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "config.json" in err["error"]["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides", [{"sizes": [200, 150]}, {"seeds": ["a"]}])
def test_malformed_split_sizes_or_seeds_fail_at_gen_data(tmp_path, overrides):
    # rejected as the config loads, before any data is written
    path = write_config(tmp_path, **overrides)
    result = CliRunner().invoke(main, ["gen-data", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "config.json" in err["error"]["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("severity", [True, "0.5"])
def test_sweep_severity_of_the_wrong_kind_fails_at_gen_data(tmp_path, severity):
    # the sweep section holds its fields' kinds like every other section
    path = write_config(tmp_path, sweep={"severity": severity})
    result = CliRunner().invoke(main, ["gen-data", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert f"SweepSpec.severity={severity!r}: type" in err["error"]["message"]
    assert not (tmp_path / "run").exists()


def test_too_small_sentence_space_fails_cleanly(tmp_path):
    # only the empty sentence exists; run in a fresh interpreter with a
    # timeout, since the failure this guards against is a generation that
    # never ends
    cfg = write_config(tmp_path, task={"kind": "multi_label", "min_len": 0, "max_len": 0,
                                       "label_prob": 0.0})
    done = fresh_python("-m", "difftt.cli", "gen-data", str(cfg), timeout=60)
    assert done.returncode == 2
    err = json.loads(done.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "train split: 1 of 40 distinct sentences" in err["error"]["message"]


def test_malformed_config_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",}')
    result = CliRunner().invoke(main, ["evaluate", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "bad.json" in err["error"]["message"]


@pytest.mark.parametrize("budget", ["5", "0"])
def test_finetune_with_no_pool_of_that_size_fails_cleanly(tmp_path, budget):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    result = runner.invoke(main, ["finetune", str(cfg), "-k", budget])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "pool sizes [10, 100]" in err["error"]["message"]


def test_finetune_saves_a_loadable_pipeline(tmp_path):
    from difftt.pipeline import TranslateTestPipeline

    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    result = runner.invoke(main, ["finetune", str(cfg), "-k", "10"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["saved"].endswith("pipeline_k10_seed1")
    assert len(summary["val_metric"]) == 1
    pipe = TranslateTestPipeline.load(summary["saved"])
    assert len(pipe.predict_batch([[5, 6, 7]])) == 1


def test_corrupt_manifest_fails_cleanly(tmp_path):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    (tmp_path / "run" / "data" / "manifest.json").write_text("{truncated")
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "manifest.json" in err["error"]["message"]


@pytest.mark.parametrize("few_shot", [None, "10", [10, -1], [1.5], {"10": 10}])
def test_bad_few_shot_sizes_in_the_manifest_fail_cleanly(tmp_path, few_shot):
    # None: the manifest's sizes lack the key
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    path = tmp_path / "run" / "data" / "manifest.json"
    manifest = json.loads(path.read_text())
    if few_shot is None:
        del manifest["sizes"]["few_shot"]
    else:
        manifest["sizes"]["few_shot"] = few_shot
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "manifest.json: sizes.few_shot must be non-negative integers" in err["error"]["message"]


def test_bad_tsv_row_fails_cleanly_naming_file_and_line(tmp_path):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    path = tmp_path / "run" / "data" / "hr_train.tsv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].split("\t")[0] + "\tx"
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "hr_train.tsv:3: invalid literal for int()" in err["error"]["message"]


@pytest.mark.parametrize("case", ["not-utf8", "duplicate", "empty"])
def test_bad_vocab_file_fails_cleanly_naming_it(tmp_path, case):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    path = tmp_path / "run" / "data" / "vocab.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    data, named = {
        "not-utf8": (path.read_bytes() + b"\xff\n", f"{path} is not UTF-8 text"),
        "duplicate": (("\n".join(lines + [lines[6]]) + "\n").encode(),
                      f"{path}:{len(lines) + 1}: the token {lines[6]!r} repeats line 7"),
        "empty": (b"", f"{path}: vocabulary must start with the special-token block"),
    }[case]
    path.write_bytes(data)
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert named in err["error"]["message"]


def test_corrupt_checkpoint_is_reported_as_bad_data(tmp_path, capsys):
    # a truncated npz is bad input, not an internal error
    from difftt.checkpoint import load_checkpoint
    from difftt.cli import _fail

    path = tmp_path / "mt.npz"
    path.write_bytes(b"PK\x03\x04 truncated")
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    with pytest.raises(SystemExit) as exit_info:
        _fail(info.value)
    assert exit_info.value.code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert "mt.npz" in err["error"]["message"]


def test_diverged_training_fails_cleanly(tmp_path):
    # a huge learning rate overflows the weights after one step, and the next
    # gradient is NaN: training stops with its own category, not "internal"
    cfg = write_config(tmp_path, tc_train={"epochs": 1, "batch_size": 8, "lr": 1e300,
                                           "warmup_steps": 0, "grad_accum": 1})
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "training-diverged"
    assert "non-finite gradient norm" in err["error"]["message"]


def test_missing_config_path():
    result = CliRunner().invoke(main, ["evaluate", "/no/such/config.json"])
    assert result.exit_code != 0


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("DIFFTT_OUTPUT_DIR", str(override))
    result = CliRunner().invoke(main, ["gen-data", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (override / "data" / "manifest.json").exists()
    assert not (tmp_path / "run").exists()


def test_train_and_report_flow(tmp_path):
    cfg = write_config(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["gen-data", str(cfg)]).exit_code == 0
    result = runner.invoke(main, ["train-tc", str(cfg)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["component"] == "tc"

    result = runner.invoke(main, ["evaluate", str(cfg)])
    assert result.exit_code == 0, result.output

    result = runner.invoke(main, ["report", str(cfg)])
    assert result.exit_code == 0, result.output
    assert "pipeline_soft" in result.output


@pytest.mark.parametrize("change", [{"extra_key": 1}, {"rows": None},
                                    {"rows": [{"method": "lm"}]}, {"rows": "abc"},
                                    {"averages": 5}],
                         ids=["unknown-key", "missing-key", "row-without-keys", "rows-not-a-list",
                              "averages-not-a-list"])
def test_report_with_bad_keys_fails_cleanly(tmp_path, change):
    cfg = write_config(tmp_path)
    report = {"name": "cli-test", "metric_kind": "accuracy", "rows": [], "averages": [],
              "soft_hard_delta": {}}
    report.update(change)
    report = {k: v for k, v in report.items() if v is not None}
    path = tmp_path / "run" / "report" / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(report))
    result = CliRunner().invoke(main, ["report", str(cfg)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    assert next(iter(change)) in err["error"]["message"]
    assert "report.json" in err["error"]["message"]


def test_stale_pipeline_vocab_hash_names_the_file_and_both_hashes(tmp_path, capsys):
    # a pipeline.json whose vocab_hash is another vocabulary's: bad data, and
    # the message says which directory is stale and how
    from difftt.cli import _fail
    from difftt.pipeline import TranslateTestPipeline, vocab_hash

    vocab = micro_vocab()
    TranslateTestPipeline(micro_mt(vocab), micro_tc(vocab)).save(tmp_path / "pipe")
    path = tmp_path / "pipe" / "pipeline.json"
    meta = json.loads(path.read_text())
    meta["vocab_hash"] = vocab_hash(micro_vocab(16))
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as info:
        TranslateTestPipeline.load(tmp_path / "pipe")
    with pytest.raises(SystemExit) as exit_info:
        _fail(info.value)
    assert exit_info.value.code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["category"] == "invalid-config-or-data"
    message = err["error"]["message"]
    assert str(path) in message and str(tmp_path / "pipe" / "vocab.txt") in message
    assert meta["vocab_hash"] in message and vocab_hash(vocab) in message
