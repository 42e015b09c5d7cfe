"""On-disk formats: parallel corpora, labeled corpora, dataset manifests,
and the one JSON and CSV writer of every output.

Parallel corpus: one record per line, source and target separated by a tab,
tokens separated by single spaces, UTF-8.
Labeled corpus: text, tab, label id (multi-class) or comma-separated label
ids (multi-label; empty field for no labels).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .fields import check_counts, check_version
from .synthlang import DatasetBundle, ParallelCorpus, SyntheticLanguageSpec, TaskSpec

MANIFEST_VERSION = 1
# The splits of a bundle besides its few-shot pools: the labeled ones, each
# in <name>.tsv, and those of the parallel corpus, each in parallel_<name>.tsv.
_LABELED_SPLITS = ("hr_train", "hr_dev", "hr_test", "tg_test", "selection_dev")
_PARALLEL_SPLITS = ("train", "dev", "test")


def _write_rows(path, rows, field=" ".join):
    """Write (tokens, value) rows as TSV lines: the tokens joined by spaces, a
    tab, then ``field(value)``."""
    lines = ("{}\t{}".format(" ".join(toks), field(value)) for toks, value in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_rows(path, field=str.split) -> list:
    """The (tokens, ``field(second column)``) rows of the non-empty lines of
    the TSV file ``path``. A line that is not UTF-8, that lacks exactly two
    tab-separated columns or whose second column ``field`` rejects raises
    ``ValueError`` naming ``path:line``."""
    rows = []
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line:
            continue
        try:
            columns = line.decode("utf-8").split("\t")
            if len(columns) != 2:
                raise ValueError(f"{len(columns)} tab-separated columns, expected 2")
            rows.append((columns[0].split(), field(columns[1])))
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ValueError(f"{path}:{number}: {exc}") from exc
    return rows


def write_parallel(path, pairs):
    _write_rows(path, pairs)


def read_parallel(path):
    return _read_rows(path)


def write_labeled(path, samples, multi_label: bool):
    def field(label):
        return ",".join(str(int(x)) for x in label) if multi_label else str(int(label))

    _write_rows(path, samples, field)


def read_labeled(path, multi_label: bool):
    def field(text):
        return [int(x) for x in text.split(",") if x != ""] if multi_label else int(text)

    return _read_rows(path, field)


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
    write_json(directory / "manifest.json", manifest)


def _plain_number(value):
    """A numpy number as the Python number it holds; ``json`` calls this for
    any value it cannot write, and anything else stays an error."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} {value!r} is not JSON serializable")


def json_text(data) -> str:
    """``data`` as JSON text: indent 2, sorted keys, numpy numbers as plain
    numbers. NaN or an infinity raises ``ValueError``."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False, default=_plain_number)


def write_json(path, data):
    """Write ``data`` to ``path`` as ``json_text``."""
    Path(path).write_text(json_text(data), encoding="utf-8")


def write_csv(path, fields: list[str], rows: list[dict]):
    """Write ``rows`` as CSV under a header of ``fields``."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


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
    check_version(path, "manifest version", manifest.get("manifest_version"), MANIFEST_VERSION)
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
