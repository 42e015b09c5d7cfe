"""Names and files of the program that the benchmark under ``perfbench/`` pins.

The benchmark's modules are loaded from their files and only read, so a
change to the program that would break a benchmark run fails here, in the
fast suite, instead of only in a benchmark run.
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

from difftt.harness import shared_vocabulary
from difftt.synthlang import SyntheticLanguageSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # build_pipeline pins the BLAS thread variables when imported; keep them
    # from leaking into the processes later tests start
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_owner():
    # tracing() looks each one up in its owner's __dict__; a deleted or renamed
    # name would surface only as a KeyError inside a traced benchmark run
    tracing = load_perfbench("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TRACE_POINTS if attr not in vars(owner)]
    assert not missing


def test_shared_vocabulary_equals_the_committed_benchmark_vocabulary(tmp_path):
    # the committed pipeline's vocab.txt and its vocab_hash were written by the
    # same function; a different token order would fail its load
    build_pipeline = load_perfbench("build_pipeline")
    vocab = shared_vocabulary(SyntheticLanguageSpec(**build_pipeline.LANG))
    vocab.save(tmp_path / "vocab.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == \
        (PERFBENCH / "pipeline" / "vocab.txt").read_bytes()
