"""Command-line experiment runner.

Subcommands: gen-data, train-mt, train-tc, finetune, evaluate, sweep-bleu,
report. Every subcommand takes a JSON experiment config (see ExperimentConfig
for the schema). Environment overrides: DIFFTT_OUTPUT_DIR replaces the
config's out_dir, DIFFTT_THREADS caps the BLAS thread count. Exit code 0 on
success; on failure a machine-readable error record is printed to stderr and
the exit code is nonzero.
"""

from __future__ import annotations

import json
import os
import sys


def _apply_thread_env():
    threads = os.environ.get("DIFFTT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_apply_thread_env()

import click

ERROR_CATEGORIES = {
    FileNotFoundError: "missing-input",
    FileExistsError: "output-exists",
    ValueError: "invalid-config-or-data",
    KeyError: "missing-component",
    FloatingPointError: "training-diverged",
}


def _fail(exc: BaseException):
    category = "internal"
    for etype, name in ERROR_CATEGORIES.items():
        if isinstance(exc, etype):
            category = name
            break
    print(json.dumps({"error": {"category": category, "message": str(exc)}}),
          file=sys.stderr)
    sys.exit(2 if category != "internal" else 1)


def _load_config(path):
    from .harness import ExperimentConfig

    config = ExperimentConfig.load(path)
    override = os.environ.get("DIFFTT_OUTPUT_DIR")
    if override:
        config.out_dir = override
    return config


@click.group()
def main():
    """Differentiable translate-and-test experiment harness."""


@main.command("gen-data")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--force", is_flag=True, help="Overwrite an existing output directory.")
def gen_data(config_path, force):
    """Generate the synthetic dataset bundle and its manifest."""
    from .harness import cmd_gen_data

    try:
        out = cmd_gen_data(_load_config(config_path), force=force)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)
    click.echo(f"wrote dataset bundle to {out}")


def _train(which, config_path, seed):
    from .harness import cmd_train

    try:
        summary = cmd_train(which, _load_config(config_path), seed)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(json.dumps(summary, indent=2))


@main.command("train-mt")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Seed (default: first config seed).")
@click.option("--reverse", is_flag=True,
              help="Train the reverse (high-resource to target) translator.")
def train_mt_cmd(config_path, seed, reverse):
    """Train the translator, keeping per-epoch checkpoints."""
    _train("reverse-mt" if reverse else "mt", config_path, seed)


@main.command("train-tc")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
def train_tc_cmd(config_path, seed):
    """Train the high-resource classifier."""
    _train("tc", config_path, seed)


@main.command("finetune")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--budget", "-k", type=int, default=100, help="Few-shot budget (10 or 100).")
@click.option("--seed", type=int, default=None)
def finetune_cmd(config_path, budget, seed):
    """Jointly fine-tune the pipeline on k target-language shots."""
    from pathlib import Path

    from .harness import (generate_bundle, shared_vocabulary,
                          train_mt_component, train_tc_component)
    from .data_io import read_bundle
    from .pipeline import TranslateTestPipeline

    try:
        config = _load_config(config_path)
        data_dir = Path(config.out_dir) / "data"
        bundle = read_bundle(data_dir) if data_dir.exists() else generate_bundle(config)
        if budget not in bundle.few_shot:
            raise ValueError(f"budget {budget} has no few-shot pool; finetune takes one of "
                             f"the pool sizes {sorted(bundle.few_shot)}")
        vocab = shared_vocabulary(bundle.lang)
        seed = config.seeds[0] if seed is None else seed
        mt, _ = train_mt_component(config, bundle, vocab, seed)
        tc, _ = train_tc_component(config, bundle, vocab, seed)
        pipe = TranslateTestPipeline(mt, tc, config.freezing_policy())
        result = pipe.finetune_end_to_end(bundle.few_shot[budget], bundle.selection_dev,
                                          config.train_config("finetune", seed))
        out = Path(config.out_dir) / f"pipeline_k{budget}_seed{seed}"
        pipe.save(out)
        click.echo(json.dumps({"saved": str(out), "best_epoch": result.best_epoch,
                               "val_metric": result.val_metric,
                               "train_loss": result.train_loss}, indent=2))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command("evaluate")
@click.argument("config_path", type=click.Path(exists=True))
def evaluate_cmd(config_path):
    """Run the full method x budget x seed evaluation matrix."""
    from .harness import cmd_evaluate

    try:
        report = cmd_evaluate(_load_config(config_path))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(report.to_json())


@main.command("sweep-bleu")
@click.argument("config_path", type=click.Path(exists=True))
def sweep_cmd(config_path):
    """Translation-quality sensitivity sweep over MT checkpoints."""
    from .harness import cmd_sweep_bleu

    try:
        out = cmd_sweep_bleu(_load_config(config_path))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(json.dumps(out["spearman"], indent=2))


@main.command("report")
@click.argument("config_path", type=click.Path(exists=True))
def report_cmd(config_path):
    """Reload a run report, verify its averages, and print the table."""
    from .harness import cmd_report

    try:
        config = _load_config(config_path)
        report = cmd_report(config.out_dir)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    click.echo(f"{report.name} ({report.metric_kind})")
    for row in report.averages:
        click.echo(f"  {row['method']:>16}  k={row['budget']:<4} "
                   f"{row['metric_mean']:.4f}  ({row['ms_per_sample_mean']:.1f} ms/sample)")
    if report.soft_hard_delta:
        for budget, delta in sorted(report.soft_hard_delta.items()):
            click.echo(f"  soft-vs-hard delta k={budget}: {delta:+.4f}")


if __name__ == "__main__":
    main()
