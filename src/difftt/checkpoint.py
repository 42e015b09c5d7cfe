"""Self-describing checkpoint files (npz with a JSON metadata record).

Layout of the archive:
  __meta__      JSON string: format version, parameter names/frozen flags,
                arbitrary extra metadata (model config etc.)
  p:<name>      row-major float64 values of each parameter
"""

from __future__ import annotations

import json
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
    """Return (values: name -> ndarray, frozen: name -> bool, meta)."""
    with np.load(Path(path)) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version: {meta.get('format_version')}")
        values = {}
        frozen = {}
        for rec in meta["params"]:
            name = rec["name"]
            values[name] = np.asarray(z["p:" + name], dtype=np.float64)
            if list(values[name].shape) != rec["shape"]:
                raise ValueError(f"corrupt checkpoint: shape mismatch for {name}")
            frozen[name] = bool(rec["frozen"])
    return values, frozen, meta["extra"]
