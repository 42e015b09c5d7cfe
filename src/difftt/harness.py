"""Config-driven experiment runner.

A declarative JSON config describes the synthetic task/language, model sizes,
training hyperparameters (with overrides), freezing policy, few-shot budgets
and seeds. The runner reproduces the full protocol: data generation,
component training, zero/few-shot evaluation of the method matrix, the
soft-vs-hard comparison, the translate-and-train baseline, and the
translation-quality sensitivity sweep. Every run is deterministic given its
config, so reports regenerate bit-identically.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .data_io import json_text, read_bundle, read_json, write_bundle, write_csv, write_json
from .fields import check_counts, check_fields
from .mt import MtConfig, MtModel, evaluate_bleu, train_mt
from .optim import TrainConfig
from .pipeline import FreezingPolicy, TranslateTestPipeline, check_lengths, translate_corpus
from .synthlang import (DatasetBundle, SyntheticLanguageSpec, TaskSpec, check_markers_fit,
                        degrade_language, gen_classification_dataset)
from .tc import TcConfig, TcModel, train_tc
from .vocab import SPECIALS, Vocabulary


def _check_distinct_counts(key: str, values):
    """``check_counts``, and no value repeats: a repeat would write duplicate
    report rows, or overwrite a sweep column."""
    check_counts(key, values)
    if len(set(values)) < len(values):
        raise ValueError(f"{key} {values} repeat a value")


@dataclass
class SweepSpec:
    """The BLEU sensitivity sweep: how far ``degrade_language`` degrades the
    language, and the few-shot budgets each checkpoint is scored at."""
    severity: float = 0.8
    budgets: list = field(default_factory=lambda: [0])

    def __post_init__(self):
        check_fields(self, unit=("severity",))
        _check_distinct_counts("sweep budgets", self.budgets)


# the class each override section of ExperimentConfig is passed to
_SECTIONS = {"task": TaskSpec, "lang": SyntheticLanguageSpec, "mt_model": MtConfig,
             "tc_model": TcConfig, "freezing": FreezingPolicy, "mt_train": TrainConfig,
             "tc_train": TrainConfig, "finetune": TrainConfig, "sweep": SweepSpec}
# the fields of a section's class that the section refuses, and what sets them
# instead; a section takes the other fields of its class
_SEEDED = ({"seed"}, "the config's seeds set the training seed")
_SET_ELSEWHERE = {"mt_train": _SEEDED, "tc_train": _SEEDED, "finetune": _SEEDED,
                  "tc_model": ({"n_classes", "multi_label"},
                               "the task sets n_classes and multi_label")}
_SECTION_KEYS = {section: {f.name for f in dataclasses.fields(target)}
                 - _SET_ELSEWHERE.get(section, (set(), ""))[0]
                 for section, target in _SECTIONS.items()}
# each stage's recipe: TrainConfig's defaults with these, under the section's overrides
_STAGE_RECIPES = {"mt": {}, "tc": dict(lr=3e-6),
                  "finetune": dict(lr=3e-6, warmup_steps=0, grad_accum=1, batch_size=1)}
_METHODS = ("lm", "pipeline", "translate_train")


@dataclass
class ExperimentConfig:
    """Declarative experiment description; JSON-serializable field-for-field.
    Building one checks it: an unknown or refused section key, a setting out
    of range or of the wrong kind and a malformed list raise ``ValueError``
    before any data is generated or model trained (README, "Command line")."""
    name: str = "experiment"
    out_dir: str = "runs/experiment"
    task: dict = field(default_factory=dict)       # TaskSpec overrides
    lang: dict = field(default_factory=dict)       # SyntheticLanguageSpec overrides
    mt_model: dict = field(default_factory=dict)   # MtConfig overrides
    tc_model: dict = field(default_factory=dict)   # TcConfig overrides
    freezing: dict = field(default_factory=dict)   # FreezingPolicy overrides
    budgets: list = field(default_factory=lambda: [0, 10, 100])
    seeds: list = field(default_factory=lambda: [1, 2, 3])
    methods: list = field(default_factory=lambda: ["lm", "pipeline"])
    sizes: list = field(default_factory=lambda: [5000, 500, 500])
    parallel_sizes: list = field(default_factory=lambda: [5000, 500, 500])
    mt_train: dict = field(default_factory=dict)   # TrainConfig overrides
    tc_train: dict = field(default_factory=dict)
    finetune: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)      # SweepSpec overrides

    def __post_init__(self):
        for section, known in _SECTION_KEYS.items():
            overrides = getattr(self, section)
            if not isinstance(overrides, dict):
                raise ValueError(f"config section {section!r} must be an object, "
                                 f"got {type(overrides).__name__}")
            unknown = set(overrides) - known
            if unknown:
                refused, reason = _SET_ELSEWHERE.get(section, (set(), ""))
                why = f"; {reason}" if unknown & refused else ""
                raise ValueError(f"unknown keys in config section {section!r}: "
                                 f"{sorted(unknown)}; it takes {sorted(known)}{why}")
        check_fields(self)
        # build every section's config, so that a bad value fails here, before
        # any data is generated or model trained
        try:
            task, lang = self.task_spec(), self.lang_spec()
            check_markers_fit(task, lang)
            check_lengths(MtConfig(**self.mt_model), self.tc_config(task))
            for which in _STAGE_RECIPES:
                self.train_config(which, seed=0)
            self.freezing_policy()
            self.sweep_spec()
            if not self.methods or not set(self.methods) <= set(_METHODS):
                raise ValueError(f"methods {self.methods!r}: give one or more of "
                                 f"{list(_METHODS)}")
            check_counts("sizes", self.sizes, 3)
            check_counts("parallel_sizes", self.parallel_sizes, 3)
            _check_distinct_counts("seeds", self.seeds)
            _check_distinct_counts("budgets", self.budgets)
        except TypeError as exc:  # e.g. a list where a number belongs
            raise ValueError(str(exc)) from exc
        if not self.seeds:
            raise ValueError("seeds is empty; a run needs at least one seed")

    def to_json(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """A config from plain data; an unknown top-level key raises ``ValueError``."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """The config in the JSON file ``path``; a malformed file or an
        unknown key raises ``ValueError`` naming it."""
        data = read_json(path)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    # ---- derived objects -------------------------------------------------

    def task_spec(self) -> TaskSpec:
        return TaskSpec(**self.task)

    def lang_spec(self) -> SyntheticLanguageSpec:
        return SyntheticLanguageSpec(**self.lang)

    def freezing_policy(self) -> FreezingPolicy:
        return FreezingPolicy(**self.freezing)

    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(**self.sweep)

    def train_config(self, which: str, seed: int) -> TrainConfig:
        """Stage ``which``'s recipe under its section's overrides, for run seed ``seed``."""
        overrides = {"mt": self.mt_train, "tc": self.tc_train,
                     "finetune": self.finetune}[which]
        return TrainConfig(**{**_STAGE_RECIPES[which], **overrides, "seed": seed})

    def tc_config(self, task: TaskSpec) -> TcConfig:
        """The classifier shape for ``task`` with the ``tc_model`` overrides; every
        classifier of a run, the translate-and-train one included, has it."""
        return TcConfig(n_classes=task.n_classes, multi_label=task.kind == "multi_label",
                        **self.tc_model)


def shared_vocabulary(lang: SyntheticLanguageSpec) -> Vocabulary:
    """One vocabulary covering both languages' full token inventories, in
    sorted order after the specials."""
    inventory = lang.function_words() + lang.source_content() + lang.target_content()
    return Vocabulary(SPECIALS + sorted(set(inventory)))


def generate_bundle(config: ExperimentConfig,
                    lang: SyntheticLanguageSpec | None = None) -> DatasetBundle:
    return gen_classification_dataset(
        config.task_spec(), lang or config.lang_spec(),
        sizes=tuple(config.sizes), parallel_sizes=tuple(config.parallel_sizes))


def load_bundle(config: ExperimentConfig) -> DatasetBundle:
    """The bundle ``cmd_gen_data`` wrote under ``out_dir``, else a new one."""
    data_dir = Path(config.out_dir) / "data"
    return read_bundle(data_dir) if data_dir.exists() else generate_bundle(config)


def cmd_gen_data(config: ExperimentConfig, force: bool = False) -> Path:
    out = Path(config.out_dir) / "data"
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(f"output directory {out} exists; pass --force to overwrite")
    bundle = generate_bundle(config)
    write_bundle(bundle, out)
    shared_vocabulary(config.lang_spec()).save(out / "vocab.txt")
    write_json(Path(config.out_dir) / "config.json", asdict(config))
    return out


# ---------------------------------------------------------------------------
# component training
# ---------------------------------------------------------------------------

def train_mt_component(config: ExperimentConfig, bundle: DatasetBundle, vocab: Vocabulary,
                       seed: int, checkpoint_dir=None, reverse: bool = False) -> tuple[MtModel, object]:
    # stored pairs are (high-resource, target); the translator direction is
    # target -> high-resource, the reverse model high-resource -> target
    if reverse:
        pairs_train = list(bundle.parallel.train)
        pairs_dev = list(bundle.parallel.dev)
    else:
        pairs_train = [(t, s) for s, t in bundle.parallel.train]
        pairs_dev = [(t, s) for s, t in bundle.parallel.dev]
    model = MtModel(vocab, MtConfig(**config.mt_model), seed=seed)
    result = train_mt(model, pairs_train, pairs_dev,
                      config.train_config("mt", seed), checkpoint_dir=checkpoint_dir)
    return model, result


def train_tc_component(config: ExperimentConfig, bundle: DatasetBundle, vocab: Vocabulary,
                       seed: int, checkpoint_dir=None) -> tuple[TcModel, object]:
    model = TcModel(vocab, config.tc_config(bundle.task), seed=seed)
    result = train_tc(model, bundle.hr_train, bundle.hr_dev,
                      config.train_config("tc", seed), checkpoint_dir=checkpoint_dir)
    return model, result


def cmd_train(which: str, config: ExperimentConfig, seed: int | None = None) -> dict:
    """Train one component ('mt', 'reverse-mt' or 'tc'), saving per-epoch
    checkpoints and marking the best one."""
    data_dir = Path(config.out_dir) / "data"
    if not data_dir.exists():
        raise FileNotFoundError(f"no data at {data_dir}; run gen-data first")
    bundle = read_bundle(data_dir)
    vocab = Vocabulary.load(data_dir / "vocab.txt")
    seed = config.seeds[0] if seed is None else seed
    ckpt_dir = Path(config.out_dir) / "checkpoints" / f"{which}_seed{seed}"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    if which in ("mt", "reverse-mt"):
        model, result = train_mt_component(config, bundle, vocab, seed,
                                           checkpoint_dir=ckpt_dir,
                                           reverse=which == "reverse-mt")
    else:
        model, result = train_tc_component(config, bundle, vocab, seed,
                                           checkpoint_dir=ckpt_dir)
    best_path = ckpt_dir / "best.npz"
    model.save(best_path, extra={"best_epoch": result.best_epoch})
    summary = {"component": which, "seed": seed, "best_epoch": result.best_epoch,
               "validation_curve": result.val_metric, "train_loss": result.train_loss,
               "best_checkpoint": str(best_path),
               "epoch_checkpoints": result.checkpoint_paths}
    write_json(ckpt_dir / "training.json", summary)
    return summary


# ---------------------------------------------------------------------------
# evaluation matrix
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Per-(method, budget, seed) metrics plus seed averages."""
    name: str
    metric_kind: str
    rows: list = field(default_factory=list)
    averages: list = field(default_factory=list)
    soft_hard_delta: dict = field(default_factory=dict)

    def compute_averages(self):
        groups: dict[tuple, list] = {}
        for r in self.rows:
            groups.setdefault((r["method"], r["budget"]), []).append(r)
        self.averages = [{
            "method": method, "budget": budget,
            "metric_mean": sum(r["metric"] for r in rows) / len(rows),
            "ms_per_sample_mean": sum(r["ms_per_sample"] for r in rows) / len(rows),
            "n_seeds": len(rows),
        } for (method, budget), rows in sorted(groups.items())]
        means = {(a["method"], a["budget"]): a["metric_mean"] for a in self.averages}
        self.soft_hard_delta = {str(budget): mean - means["pipeline_hard", budget]
                                for (method, budget), mean in means.items()
                                if method == "pipeline_soft" and ("pipeline_hard", budget) in means}

    def to_json(self) -> str:
        return json_text(asdict(self))

    def write(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_json(directory / "report.json", asdict(self))
        write_csv(directory / "report.csv", ["method", "budget", "seed", "metric",
                                             "ms_per_sample"], self.rows)


def _check_budgets(budgets, bundle: DatasetBundle):
    """A budget is 0 (zero-shot) or the size of one of the bundle's few-shot pools."""
    for budget in budgets:
        if budget != 0 and budget not in bundle.few_shot:
            raise ValueError(f"budget {budget!r} has no few-shot pool; valid budgets are 0 "
                             f"and the pool sizes {sorted(bundle.few_shot)}")


def few_shot_pipeline(config: ExperimentConfig, bundle: DatasetBundle, seed: int,
                      budget: int, mt: MtModel, tc: TcModel,
                      trained: tuple[dict, dict]) -> tuple[TranslateTestPipeline, object]:
    """Restore ``mt`` and ``tc`` to ``trained``, their ``store.state()``, couple them
    under the config's freezing policy and, for ``budget`` > 0, fine-tune jointly on
    that pool. Returns the pipeline and the fine-tuning result (None at zero shots)."""
    for model, state in zip((mt, tc), trained):
        model.store.load_state(state)
    pipe = TranslateTestPipeline(mt, tc, config.freezing_policy())
    result = None
    if budget:
        result = pipe.finetune_end_to_end(bundle.few_shot[budget], bundle.selection_dev,
                                          config.train_config("finetune", seed))
    return pipe, result


def few_shot_classifier(config: ExperimentConfig, bundle: DatasetBundle, seed: int,
                        budget: int, tc: TcModel, trained: dict) -> TcModel:
    """The LM and translate-and-train baselines' step: restore ``tc`` to ``trained``,
    unfreeze all of it (the pipeline's freezing may have frozen some layers) and, for
    ``budget`` > 0, go on training it alone on that pool, as ``train_tc`` does."""
    tc.store.load_state(trained)
    for group in tc.store.groups:
        tc.store.set_group_frozen(group, False)
    if budget:
        train_tc(tc, bundle.few_shot[budget], bundle.selection_dev,
                 config.train_config("finetune", seed))
    return tc


def cmd_finetune(config: ExperimentConfig, budget: int, seed: int | None = None) -> dict:
    """Train both components, fine-tune them jointly on ``budget`` shots, save the pipeline."""
    bundle = load_bundle(config)
    if budget not in bundle.few_shot:
        raise ValueError(f"budget {budget} has no few-shot pool; finetune takes one of "
                         f"the pool sizes {sorted(bundle.few_shot)}")
    vocab = shared_vocabulary(bundle.lang)
    seed = config.seeds[0] if seed is None else seed
    mt, _ = train_mt_component(config, bundle, vocab, seed)
    tc, _ = train_tc_component(config, bundle, vocab, seed)
    pipe, result = few_shot_pipeline(config, bundle, seed, budget, mt, tc,
                                     (mt.store.state(), tc.store.state()))
    out = Path(config.out_dir) / f"pipeline_k{budget}_seed{seed}"
    pipe.save(out)
    return {"saved": str(out), "best_epoch": result.best_epoch,
            "val_metric": result.val_metric, "train_loss": result.train_loss}


def cmd_evaluate(config: ExperimentConfig, bundle: DatasetBundle | None = None) -> RunReport:
    """Run the {LM baseline, soft, hard, translate-and-train} x budgets x seeds
    matrix and emit the report (JSON + CSV)."""
    if bundle is None:
        bundle = load_bundle(config)
    vocab = shared_vocabulary(bundle.lang)
    task = bundle.task
    metric_kind = "mrp" if task.kind == "multi_label" else "accuracy"
    report = RunReport(name=config.name, metric_kind=metric_kind)
    test = bundle.tg_test
    methods = set(config.methods)
    _check_budgets(config.budgets, bundle)

    def add_row(method: str, evaluate):
        """Time ``evaluate()`` alone and record its metric for this seed and budget."""
        start = time.perf_counter()
        metric = evaluate()
        ms = (time.perf_counter() - start) * 1000.0 / max(len(test), 1)
        report.rows.append({"method": method, "budget": budget, "seed": seed,
                            "metric": metric, "ms_per_sample": ms})

    for seed in config.seeds:
        if methods & {"lm", "pipeline"}:
            tc, _ = train_tc_component(config, bundle, vocab, seed)
            tc_state = tc.store.state()
        if "pipeline" in methods:
            mt, _ = train_mt_component(config, bundle, vocab, seed)
            trained = (mt.store.state(), tc_state)
        if "translate_train" in methods:
            # a target-language classifier trained on the translated training data
            reverse_mt, _ = train_mt_component(config, bundle, vocab, seed, reverse=True)
            translated = dataclasses.replace(
                bundle, hr_train=translate_corpus(reverse_mt, bundle.hr_train),
                hr_dev=translate_corpus(reverse_mt, bundle.hr_dev))
            tt, _ = train_tc_component(config, translated, vocab, seed)
            tt_state = tt.store.state()

        for budget in config.budgets:
            if "lm" in methods:
                model = few_shot_classifier(config, bundle, seed, budget, tc, tc_state)
                add_row("lm", lambda: model.evaluate_metric(test))
            if "pipeline" in methods:
                pipe, _ = few_shot_pipeline(config, bundle, seed, budget, mt, tc, trained)
                add_row("pipeline_soft", lambda: pipe.evaluate_metric(test))
                add_row("pipeline_hard", lambda: pipe.evaluate_metric(test, hard=True))
            if "translate_train" in methods:
                model = few_shot_classifier(config, bundle, seed, budget, tt, tt_state)
                add_row("translate_train", lambda: model.evaluate_metric(test))

    report.compute_averages()
    report.write(Path(config.out_dir) / "report")
    return report


# ---------------------------------------------------------------------------
# sensitivity sweep
# ---------------------------------------------------------------------------

def cmd_sweep_bleu(config: ExperimentConfig, bundle: DatasetBundle | None = None) -> dict:
    """Translation-quality sensitivity: per MT checkpoint, test BLEU and the
    downstream metric; reports the (BLEU, metric) series and their Spearman
    rank correlation, None where a series is constant and it is undefined."""
    sweep = config.sweep_spec()
    severity, budgets = float(sweep.severity), list(sweep.budgets)
    lang = degrade_language(config.lang_spec(), severity)
    if bundle is None:
        bundle = generate_bundle(config, lang=lang)
    _check_budgets(budgets, bundle)
    seed = config.seeds[0]
    mt_train = config.train_config("mt", seed)
    if mt_train.epochs < 2:  # the untrained checkpoint plus one per epoch
        raise ValueError(f"sweep needs at least 3 MT checkpoints, so mt_train.epochs >= 2; "
                         f"got epochs={mt_train.epochs}")
    vocab = shared_vocabulary(lang)

    ckpt_dir = Path(config.out_dir) / "sweep_checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    # the model train_mt_component starts from: it builds the same one from the seed
    untrained = ckpt_dir / "mt_untrained.npz"
    MtModel(vocab, MtConfig(**config.mt_model), seed=seed).save(untrained, extra={"epoch": -1})
    mt, result = train_mt_component(config, bundle, vocab, seed, checkpoint_dir=ckpt_dir)
    checkpoints = [str(untrained)] + result.checkpoint_paths

    tc, _ = train_tc_component(config, bundle, vocab, seed)
    tc_state = tc.store.state()
    test_src = [mt.source_ids(t) for _, t in bundle.parallel.test]
    test_refs = [list(s) for s, _ in bundle.parallel.test]

    series = []
    for path in checkpoints:
        model = MtModel.load(path, vocab)
        bleu = evaluate_bleu(model, test_src, test_refs)
        entry = {"checkpoint": path, "bleu": bleu}
        trained = (model.store.state(), tc_state)
        for budget in budgets:
            pipe, _ = few_shot_pipeline(config, bundle, seed, budget, model, tc, trained)
            entry[f"metric_k{budget}"] = pipe.evaluate_metric(bundle.tg_test)
        series.append(entry)

    from scipy import stats  # about 45 MB resident and most of a second to import

    out = {"severity": severity, "budgets": budgets, "series": series,
           "spearman": {}}
    bleus = [e["bleu"] for e in series]
    for budget in budgets:
        metrics = [e[f"metric_k{budget}"] for e in series]
        rho = float(stats.spearmanr(bleus, metrics).statistic)
        out["spearman"][str(budget)] = None if math.isnan(rho) else rho

    sweep_dir = Path(config.out_dir) / "sweep"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    write_json(sweep_dir / "sweep.json", out)
    write_csv(sweep_dir / "sweep.csv", ["checkpoint", "bleu"] + [f"metric_k{b}" for b in budgets],
              series)
    return out


def cmd_report(out_dir) -> RunReport:
    """Reload a written report and verify its averages recompute identically."""
    path = Path(out_dir) / "report" / "report.json"
    data = read_json(path)
    known = {f.name for f in dataclasses.fields(RunReport)}
    unknown, missing = sorted(set(data) - known), sorted(known - set(data))
    if unknown or missing:
        raise ValueError(f"{path} does not match the report schema: "
                         f"unknown keys {unknown}, missing keys {missing}")
    report = RunReport(**data)
    stored = report.averages
    if not (isinstance(report.rows, list) and isinstance(stored, list)):
        raise ValueError(f"{path}: rows and averages must be lists")
    try:
        report.compute_averages()
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: rows must be objects holding every key of a row, "
                         f"with numeric metrics: {exc!r}") from exc
    if len(stored) != len(report.averages):
        raise ValueError(f"{path}: stored averages do not recompute: {len(stored)} stored rows "
                         f"vs {len(report.averages)} recomputed")
    for a, b in zip(stored, report.averages):
        if a != b:
            raise ValueError(f"{path}: stored averages do not recompute: {a} vs {b}")
    return report
