"""Checkpoint file round-trips, including frozen flags."""

import gc
import json
import re
import warnings

import numpy as np
import pytest

from difftt.checkpoint import load_checkpoint, save_checkpoint
from difftt.mt import MtModel
from difftt.params import Parameter, ParamStore
from difftt.tc import TcModel

from conftest import micro_vocab


def test_parameter_roundtrip(tmp_path, rng):
    params = [Parameter("a", rng.normal(size=(3, 4))),
              Parameter("b", rng.normal(size=7), frozen=True)]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, extra_meta={"kind": "test", "epoch": 3})
    values, frozen, meta = load_checkpoint(path)
    assert np.array_equal(values["a"], params[0].data)
    assert np.array_equal(values["b"], params[1].data)
    assert frozen == {"a": False, "b": True}
    assert meta == {"kind": "test", "epoch": 3}


def test_version_mismatch_rejected(tmp_path, monkeypatch):
    import difftt.checkpoint as cp

    path = tmp_path / "ckpt.npz"
    monkeypatch.setattr(cp, "FORMAT_VERSION", 99)
    save_checkpoint(path, [Parameter("w", np.zeros(2))])
    monkeypatch.undo()
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_format_version_must_be_the_integer_1(tmp_path, monkeypatch, version):
    # true == 1 and 1.0 == 1 in Python, so a plain comparison let both load
    import difftt.checkpoint as cp

    path = tmp_path / "ckpt.npz"
    monkeypatch.setattr(cp, "FORMAT_VERSION", version)
    save_checkpoint(path, [Parameter("w", np.zeros(2))])
    monkeypatch.undo()
    with pytest.raises(ValueError, match=re.escape(
            f"cannot load checkpoint {path}: __meta__: unsupported checkpoint format version "
            f"{version!r}")):
        load_checkpoint(path)


DAMAGE = ["truncated", "empty", "not-npz", "flipped-byte"]


def damaged_checkpoint(tmp_path, damage):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, [Parameter("w", np.arange(40.0))])
    data = path.read_bytes()
    path.write_bytes({"truncated": data[: len(data) // 2], "empty": b"",
                      "not-npz": b"not a checkpoint\n" * 8,
                      "flipped-byte": data[:200] + bytes([data[200] ^ 0xFF]) + data[201:]}[damage])
    return path


@pytest.mark.parametrize("damage", DAMAGE)
def test_corrupt_checkpoint_is_a_named_value_error(tmp_path, damage):
    path = damaged_checkpoint(tmp_path, damage)
    with pytest.raises(ValueError, match="cannot load checkpoint .*ckpt.npz"):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", DAMAGE)
def test_failed_load_closes_the_file(tmp_path, damage):
    path = damaged_checkpoint(tmp_path, damage)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_param_store_load_state_rejects_bad_states(rng):
    store = ParamStore(rng)
    store.linear("lin", 2, 3, "g")
    state = store.state()
    with pytest.raises(KeyError, match="missing parameter in state: lin.b"):
        store.load_state({"lin.w": state["lin.w"]})
    with pytest.raises(ValueError, match="shape mismatch for lin.b"):
        store.load_state({**state, "lin.b": np.zeros(4)})
    with pytest.raises(KeyError, match="unknown parameters in state: extra, lin.x"):
        store.load_state({**state, "lin.x": np.zeros(1), "extra": np.zeros(2)})
    # a rejected state changes nothing
    assert all(np.array_equal(store[n].data, v) for n, v in state.items())


@pytest.mark.parametrize("saved_cls,model_cls,match", [
    (MtModel, MtModel, "colour"), (TcModel, TcModel, "colour"),
    # a classifier checkpoint loaded as a translator: the stored kind is read
    (TcModel, MtModel, "kind 'tc', not 'mt'"),
], ids=["mt", "tc", "tc-as-mt"])
def test_unknown_config_key_is_a_named_value_error(tmp_path, saved_cls, model_cls, match):
    vocab = micro_vocab()
    path = tmp_path / "model.npz"
    saved_cls(vocab).save(path)
    if saved_cls is model_cls:
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["extra"]["config"]["colour"] = "blue"
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)
    with pytest.raises(ValueError, match=f"model.npz .*{match}"):
        model_cls.load(path, vocab)
