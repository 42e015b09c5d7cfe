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

from .synthlang import DatasetBundle, ParallelCorpus, SyntheticLanguageSpec, TaskSpec

MANIFEST_VERSION = 1


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
    write_labeled(directory / "hr_train.tsv", bundle.hr_train, ml)
    write_labeled(directory / "hr_dev.tsv", bundle.hr_dev, ml)
    write_labeled(directory / "hr_test.tsv", bundle.hr_test, ml)
    write_labeled(directory / "tg_test.tsv", bundle.tg_test, ml)
    write_labeled(directory / "selection_dev.tsv", bundle.selection_dev, ml)
    for k, pool in bundle.few_shot.items():
        write_labeled(directory / f"few_shot_{k}.tsv", pool, ml)
    write_parallel(directory / "parallel_train.tsv", bundle.parallel.train)
    write_parallel(directory / "parallel_dev.tsv", bundle.parallel.dev)
    write_parallel(directory / "parallel_test.tsv", bundle.parallel.test)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "task": dataclasses.asdict(bundle.task),
        "lang": dataclasses.asdict(bundle.lang),
        "sizes": {
            "hr_train": len(bundle.hr_train), "hr_dev": len(bundle.hr_dev),
            "hr_test": len(bundle.hr_test),
            "parallel_train": len(bundle.parallel.train),
            "parallel_dev": len(bundle.parallel.dev),
            "parallel_test": len(bundle.parallel.test),
            "few_shot": sorted(bundle.few_shot),
        },
    }
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
    ml = task.kind == "multi_label"
    few_shot = {k: read_labeled(directory / f"few_shot_{k}.tsv", ml)
                for k in manifest["sizes"]["few_shot"]}
    return DatasetBundle(
        task=task, lang=lang,
        hr_train=read_labeled(directory / "hr_train.tsv", ml),
        hr_dev=read_labeled(directory / "hr_dev.tsv", ml),
        hr_test=read_labeled(directory / "hr_test.tsv", ml),
        tg_test=read_labeled(directory / "tg_test.tsv", ml),
        selection_dev=read_labeled(directory / "selection_dev.tsv", ml),
        few_shot=few_shot,
        parallel=ParallelCorpus(
            train=read_parallel(directory / "parallel_train.tsv"),
            dev=read_parallel(directory / "parallel_dev.tsv"),
            test=read_parallel(directory / "parallel_test.tsv"),
        ),
    )
