"""Self-describing checkpoint files (npz with a JSON metadata record).

Layout of the archive:
  __meta__      JSON string: format version, parameter names/frozen flags,
                arbitrary extra metadata (model config etc.)
  p:<name>      row-major float64 values of each parameter
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np

from .fields import check_version

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
            check_version("__meta__", "checkpoint format version", version, FORMAT_VERSION)
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


class ModelFile:
    """The model files of a class built as ``cls(vocab, config)`` whose
    instances hold ``store`` and ``config``: checkpoints of its ``kind``."""
    kind: str
    config_cls: type

    def save(self, path, extra: dict | None = None):
        save_checkpoint(path, self.store.parameters(),
                        extra_meta={**(extra or {}), "kind": self.kind,
                                    "config": dataclasses.asdict(self.config)})

    @classmethod
    def load(cls, path, vocab):
        """The model in the checkpoint at ``path``: its stored config,
        parameter values and frozen flags. A checkpoint of another kind, or
        a stored config the class rejects (an unknown key, a bad value),
        raises ``ValueError`` naming the file."""
        values, frozen, meta = load_checkpoint(path)
        try:
            if meta["kind"] != cls.kind:
                raise ValueError(f"kind {meta['kind']!r}, not {cls.kind!r}")
            model = cls(vocab, cls.config_cls(**meta["config"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path} holds no valid {cls.__name__}: "
                             f"{exc!r}") from exc
        model.store.load_state(values)
        for name, fz in frozen.items():
            model.store[name].frozen = fz
        return model

    def epoch_saver(self, directory):
        """``fit``'s ``checkpoint`` callback that saves each epoch to
        ``<directory>/<kind>_epochNNN.npz``; None without a directory."""
        def save_epoch(epoch, metric):
            path = f"{directory}/{self.kind}_epoch{epoch:03d}.npz"
            self.save(path, extra={"epoch": epoch, "val_metric": metric})
            return path

        return None if directory is None else save_epoch
