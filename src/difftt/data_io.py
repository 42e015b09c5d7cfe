"""On-disk formats: parallel corpora, labeled corpora, dataset manifests.

Parallel corpus: one record per line, source and target separated by a tab,
tokens separated by single spaces, UTF-8.
Labeled corpus: text, tab, label id (multi-class) or comma-separated label
ids (multi-label; empty field for no labels).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .fields import check_counts
from .synthlang import DatasetBundle, ParallelCorpus, SyntheticLanguageSpec, TaskSpec

MANIFEST_VERSION = 1
# The splits of a bundle besides its few-shot pools: the labeled ones, each
# in <name>.tsv, and those of the parallel corpus, each in parallel_<name>.tsv.
_LABELED_SPLITS = ("hr_train", "hr_dev", "hr_test", "tg_test", "selection_dev")
_PARALLEL_SPLITS = ("train", "dev", "test")


def write_parallel(path, pairs):
    lines = ["{}\t{}".format(" ".join(s), " ".join(t)) for s, t in pairs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_parallel(path):
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        src, tgt = line.split("\t")
        pairs.append((src.split(), tgt.split()))
    return pairs


def write_labeled(path, samples, multi_label: bool):
    lines = []
    for toks, label in samples:
        if multi_label:
            lab = ",".join(str(int(x)) for x in label)
        else:
            lab = str(int(label))
        lines.append("{}\t{}".format(" ".join(toks), lab))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labeled(path, multi_label: bool):
    samples = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        text, lab = line.split("\t")
        if multi_label:
            label = [int(x) for x in lab.split(",") if x != ""]
        else:
            label = int(lab)
        samples.append((text.split(), label))
    return samples


def write_bundle(bundle: DatasetBundle, directory):
    """Write every split plus a manifest that reproduces the bundle exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ml = bundle.task.kind == "multi_label"
    sizes = {"few_shot": sorted(bundle.few_shot)}
    for name in _LABELED_SPLITS:
        samples = getattr(bundle, name)
        write_labeled(directory / f"{name}.tsv", samples, ml)
        sizes[name] = len(samples)
    for k, pool in bundle.few_shot.items():
        write_labeled(directory / f"few_shot_{k}.tsv", pool, ml)
    for name in _PARALLEL_SPLITS:
        pairs = getattr(bundle.parallel, name)
        write_parallel(directory / f"parallel_{name}.tsv", pairs)
        sizes[f"parallel_{name}"] = len(pairs)
    manifest = {"manifest_version": MANIFEST_VERSION, "task": dataclasses.asdict(bundle.task),
                "lang": dataclasses.asdict(bundle.lang), "sizes": sizes}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def read_json(path, required: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``path``. A file that does not hold one, or lacks
    a ``required`` key, raises ``ValueError`` naming it."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{path} lacks the keys {missing}")
    return data


def read_bundle(directory) -> DatasetBundle:
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json(path, ("task", "lang", "sizes"))
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise ValueError("unsupported manifest version")
    try:
        task = TaskSpec(**manifest["task"])
        lang = SyntheticLanguageSpec(**manifest["lang"])
    except TypeError as exc:  # unknown or missing spec fields
        raise ValueError(f"{path}: {exc}") from exc
    few_shot = manifest["sizes"].get("few_shot") if isinstance(manifest["sizes"], dict) else None
    check_counts(f"{path}: sizes.few_shot", few_shot)
    ml = task.kind == "multi_label"
    return DatasetBundle(
        task=task, lang=lang,
        **{name: read_labeled(directory / f"{name}.tsv", ml) for name in _LABELED_SPLITS},
        few_shot={k: read_labeled(directory / f"few_shot_{k}.tsv", ml)
                  for k in few_shot},
        parallel=ParallelCorpus(**{name: read_parallel(directory / f"parallel_{name}.tsv")
                                   for name in _PARALLEL_SPLITS}))
