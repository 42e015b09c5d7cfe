"""Checkpoint file round-trips, including frozen flags."""

import numpy as np
import pytest

from difftt.checkpoint import load_checkpoint, save_checkpoint
from difftt.params import Parameter, ParamStore


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
