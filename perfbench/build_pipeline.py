"""Train and save the pipeline that the `finetune`, `evaluate` and
`evaluate_split` workloads load.

The pipeline is the one of the acceptance evaluation config (seed 1): a
translator and a classifier trained on the 3-class task in the cipher
language with reorder 0.2 and noise 0.1. It does not depend on the
benchmark seed. Its files are kept in `perfbench/pipeline/` and loaded as
they are, so that two versions of the program are measured with the same
weights: weights trained by each version would differ in their rounding,
decode to different lengths and time different work. Regenerate them only
when the checkpoint format changes, and then measure both versions with the
new files:

    python3 perfbench/build_pipeline.py [output directory]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIPELINE_DIR = HERE / "pipeline"

# The service language and task, shared with the workloads that load the
# pipeline: they regenerate this bundle to draw held-out inputs from it.
LANG = {"seed": 0, "reorder_prob": 0.2, "noise_rate": 0.1}
TASK = {"kind": "multi_class", "n_classes": 3}
SIZES = (5000, 500, 500)
PARALLEL_SIZES = (5000, 500, 500)
MODEL_SEED = 1


def experiment_config():
    from difftt.harness import ExperimentConfig

    return ExperimentConfig(
        name="perfbench-service",
        lang=dict(LANG),
        task=dict(TASK),
        sizes=list(SIZES),
        parallel_sizes=list(PARALLEL_SIZES),
        mt_train={"epochs": 4, "batch_size": 32, "lr": 2e-3,
                  "warmup_steps": 100, "grad_accum": 1},
        tc_train={"epochs": 3, "batch_size": 32, "lr": 1e-3,
                  "warmup_steps": 50, "grad_accum": 1},
    )


def build(out_dir: Path):
    from difftt.harness import (generate_bundle, shared_vocabulary,
                                train_mt_component, train_tc_component)
    from difftt.pipeline import TranslateTestPipeline

    cfg = experiment_config()
    bundle = generate_bundle(cfg)
    vocab = shared_vocabulary(bundle.lang)
    tc, _ = train_tc_component(cfg, bundle, vocab, MODEL_SEED)
    mt, _ = train_mt_component(cfg, bundle, vocab, MODEL_SEED)
    TranslateTestPipeline(mt, tc, cfg.freezing_policy()).save(out_dir)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: build_pipeline.py [output directory]")
    sys.path.insert(0, str(ROOT / "src"))
    build(Path(sys.argv[1]) if len(sys.argv) == 2 else PIPELINE_DIR)
