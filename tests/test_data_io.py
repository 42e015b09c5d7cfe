"""On-disk round-trips for corpora and dataset bundles."""

import json
import re

import pytest

from difftt.data_io import (read_bundle, read_labeled, read_parallel,
                            write_bundle, write_labeled, write_parallel)
from difftt.synthlang import (SyntheticLanguageSpec, TaskSpec,
                              gen_classification_dataset)


def test_parallel_roundtrip(tmp_path):
    pairs = [(["a", "b"], ["x"]), (["c"], ["y", "z"])]
    write_parallel(tmp_path / "p.tsv", pairs)
    assert read_parallel(tmp_path / "p.tsv") == pairs


def test_labeled_roundtrip_multi_class(tmp_path):
    samples = [(["a", "b"], 0), (["c"], 2)]
    write_labeled(tmp_path / "l.tsv", samples, multi_label=False)
    assert read_labeled(tmp_path / "l.tsv", multi_label=False) == samples


def test_labeled_roundtrip_multi_label(tmp_path):
    samples = [(["a"], [0, 2]), (["b"], [])]
    write_labeled(tmp_path / "l.tsv", samples, multi_label=True)
    assert read_labeled(tmp_path / "l.tsv", multi_label=True) == samples


def test_bundle_roundtrip(tmp_path):
    lang = SyntheticLanguageSpec(seed=1, reorder_prob=0.1)
    bundle = gen_classification_dataset(TaskSpec(), lang, sizes=(30, 120, 20),
                                        parallel_sizes=(20, 5, 5))
    write_bundle(bundle, tmp_path / "data")
    clone = read_bundle(tmp_path / "data")
    assert clone.task == bundle.task
    assert clone.lang == bundle.lang
    assert clone.hr_train == bundle.hr_train
    assert clone.tg_test == bundle.tg_test
    assert clone.few_shot == bundle.few_shot
    assert clone.parallel.train == bundle.parallel.train


def test_bundle_manifest_version_checked(tmp_path):
    lang = SyntheticLanguageSpec(seed=1)
    bundle = gen_classification_dataset(TaskSpec(), lang, sizes=(30, 120, 20),
                                        parallel_sizes=(20, 5, 5))
    write_bundle(bundle, tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["manifest_version"] = 99
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json: unsupported manifest version 99"):
        read_bundle(tmp_path / "data")


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_manifest_version_must_be_the_integer_1(tmp_path, version):
    # true == 1 and 1.0 == 1 in Python, so a plain comparison let both load
    bundle = gen_classification_dataset(TaskSpec(), SyntheticLanguageSpec(seed=1),
                                        sizes=(30, 120, 20), parallel_sizes=(20, 5, 5))
    write_bundle(bundle, tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["manifest_version"] = version
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unsupported manifest version {version!r}")):
        read_bundle(tmp_path / "data")


@pytest.mark.parametrize("content", ["{truncated", "[1, 2]", '{"manifest_version": 1}', None],
                         ids=["not-json", "not-object", "missing-keys", "unknown-task-key"])
def test_corrupt_manifest_is_a_named_value_error(tmp_path, content):
    bundle = gen_classification_dataset(TaskSpec(), SyntheticLanguageSpec(seed=1),
                                        sizes=(30, 120, 20), parallel_sizes=(20, 5, 5))
    write_bundle(bundle, tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    if content is None:
        manifest = json.loads(path.read_text())
        manifest["task"]["colour"] = 1
        content = json.dumps(manifest)
    path.write_text(content)
    with pytest.raises(ValueError, match="manifest.json"):
        read_bundle(tmp_path / "data")


@pytest.mark.parametrize("row,reader,match", [
    (b"a b\tx", lambda p: read_labeled(p, multi_label=False), "invalid literal for int"),
    (b"a b", read_parallel, "1 tab-separated columns, expected 2"),
    (b"a\tb\tc", read_parallel, "3 tab-separated columns, expected 2"),
    (b"a \xff\tb", read_parallel, "'utf-8' codec can't decode byte 0xff"),
], ids=["text-label", "one-column", "three-columns", "not-utf8"])
def test_bad_tsv_row_is_a_value_error_naming_file_and_line(tmp_path, row, reader, match):
    path = tmp_path / "split.tsv"
    path.write_bytes(b"a\t0\n\n" + row + b"\nb\t1\n")
    with pytest.raises(ValueError, match=f"split.tsv:3: {match}"):
        reader(path)
