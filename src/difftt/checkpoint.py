"""Self-describing checkpoint files (npz with a JSON metadata record).

Layout of the archive:
  __meta__      JSON string: format version, parameter names/frozen flags,
                arbitrary extra metadata (model config etc.)
  p:<name>      row-major float64 values of each parameter
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def save_checkpoint(path, params, extra_meta: dict | None = None):
    """Write parameters (list of Parameter) and their metadata."""
    path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "params": [{"name": p.name, "shape": list(p.data.shape), "frozen": bool(p.frozen)}
                   for p in params],
        "extra": extra_meta or {},
    }
    arrays = {"p:" + p.name: p.data for p in params}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path):
    """Return (values: name -> ndarray, frozen: name -> bool, meta).

    A file that is not a whole checkpoint (truncated, not an npz, a bad
    metadata record) raises ``ValueError`` naming it."""
    path = Path(path)
    try:
        # numpy does not close a file it opened itself when the archive is
        # truncated, so the handle is ours to close
        with open(path, "rb") as f, np.load(f) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            version = meta.get("format_version") if isinstance(meta, dict) else None
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint format version: {version}")
            values = {}
            frozen = {}
            for rec in meta["params"]:
                name = rec["name"]
                values[name] = np.asarray(z["p:" + name], dtype=np.float64)
                if list(values[name].shape) != rec["shape"]:
                    raise ValueError(f"shape mismatch for {name}")
                frozen[name] = bool(rec["frozen"])
            return values, frozen, meta["extra"]
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot load checkpoint {path}: {exc}") from exc


def load_model(path, model_cls, config_cls, vocab):
    """A ``model_cls`` rebuilt from the checkpoint at ``path``: its stored
    ``config_cls`` fields, parameter values and frozen flags. A stored config
    the class rejects (an unknown key, a bad value) raises ``ValueError``
    naming the file."""
    values, frozen, meta = load_checkpoint(path)
    try:
        model = model_cls(vocab, config_cls(**meta["config"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} holds no valid {config_cls.__name__}: "
                         f"{exc!r}") from exc
    model.store.load_state(values)
    for name, fz in frozen.items():
        model.store[name].frozen = fz
    return model
