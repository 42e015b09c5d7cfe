"""Command-line experiment runner.

Subcommands: gen-data, train-mt, train-tc, finetune, evaluate, sweep-bleu,
report. Every subcommand takes a JSON experiment config (see ExperimentConfig
for the schema). Environment override: DIFFTT_OUTPUT_DIR replaces the
config's out_dir. Exit code 0 on success; on failure a machine-readable error
record is printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import harness

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


class _Command(click.Command):
    """The CLI's one error boundary: a failure after parsing becomes an error record."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            _fail(exc)


def _load_config(path):
    config = harness.ExperimentConfig.load(path)
    override = os.environ.get("DIFFTT_OUTPUT_DIR")
    if override:
        config.out_dir = override
    return config


@click.group()
def main():
    """Differentiable translate-and-test experiment harness."""


main.command_class = _Command  # every subcommand below is one


@main.command("gen-data")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--force", is_flag=True, help="Overwrite an existing output directory.")
def gen_data(config_path, force):
    """Generate the synthetic dataset bundle and its manifest."""
    out = harness.cmd_gen_data(_load_config(config_path), force=force)
    click.echo(f"wrote dataset bundle to {out}")


@main.command("train-mt")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Seed (default: first config seed).")
@click.option("--reverse", is_flag=True,
              help="Train the reverse (high-resource to target) translator.")
def train_mt_cmd(config_path, seed, reverse):
    """Train the translator, keeping per-epoch checkpoints."""
    summary = harness.cmd_train("reverse-mt" if reverse else "mt",
                                _load_config(config_path), seed)
    click.echo(json.dumps(summary, indent=2))


@main.command("train-tc")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
def train_tc_cmd(config_path, seed):
    """Train the high-resource classifier."""
    click.echo(json.dumps(harness.cmd_train("tc", _load_config(config_path), seed), indent=2))


@main.command("finetune")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--budget", "-k", type=int, default=100, help="Few-shot budget (10 or 100).")
@click.option("--seed", type=int, default=None)
def finetune_cmd(config_path, budget, seed):
    """Jointly fine-tune the pipeline on k target-language shots."""
    summary = harness.cmd_finetune(_load_config(config_path), budget, seed)
    click.echo(json.dumps(summary, indent=2))


@main.command("evaluate")
@click.argument("config_path", type=click.Path(exists=True))
def evaluate_cmd(config_path):
    """Run the full method x budget x seed evaluation matrix."""
    click.echo(harness.cmd_evaluate(_load_config(config_path)).to_json())


@main.command("sweep-bleu")
@click.argument("config_path", type=click.Path(exists=True))
def sweep_cmd(config_path):
    """Translation-quality sensitivity sweep over MT checkpoints."""
    out = harness.cmd_sweep_bleu(_load_config(config_path))
    click.echo(json.dumps(out["spearman"], indent=2))


@main.command("report")
@click.argument("config_path", type=click.Path(exists=True))
def report_cmd(config_path):
    """Reload a run report, verify its averages, and print the table."""
    report = harness.cmd_report(_load_config(config_path).out_dir)
    click.echo(f"{report.name} ({report.metric_kind})")
    for row in report.averages:
        click.echo(f"  {row['method']:>16}  k={row['budget']:<4} "
                   f"{row['metric_mean']:.4f}  ({row['ms_per_sample_mean']:.1f} ms/sample)")
    if report.soft_hard_delta:
        for budget, delta in sorted(report.soft_hard_delta.items()):
            click.echo(f"  soft-vs-hard delta k={budget}: {delta:+.4f}")


if __name__ == "__main__":
    main()
