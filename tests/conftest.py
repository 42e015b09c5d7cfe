import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import difftt
from difftt.mt import MtConfig, MtModel
from difftt.tc import TcConfig, TcModel
from difftt.vocab import SPECIALS, Vocabulary


SRC = str(Path(difftt.__file__).resolve().parents[1])


def fresh_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """`python ARGS` in a new interpreter that imports the difftt under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def micro_vocab(n_tokens: int = 15) -> Vocabulary:
    return Vocabulary(SPECIALS + [f"t{i}" for i in range(n_tokens)])


def micro_mt(vocab, seed=3, **overrides) -> MtModel:
    cfg = dict(d_model=8, n_layers=2, n_heads=2, d_ff=16,
               max_source_len=5, max_decode_len=5)
    cfg.update(overrides)
    return MtModel(vocab, MtConfig(**cfg), seed=seed)


def micro_tc(vocab, seed=4, **overrides) -> TcModel:
    cfg = dict(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_len=7, n_classes=3)
    cfg.update(overrides)
    return TcModel(vocab, TcConfig(**cfg), seed=seed)


@pytest.fixture
def vocab():
    return micro_vocab()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
