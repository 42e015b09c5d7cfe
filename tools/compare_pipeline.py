"""Check that a rebuilt benchmark pipeline equals the committed one.

`perfbench/build_pipeline.py DIR` trains the benchmark's translator and
classifier from scratch. This script passes when DIR holds the same model as
`perfbench/pipeline/`: every parameter array, frozen flag and stored model
config in `mt.npz` and `tc.npz` is equal, and `pipeline.json` and `vocab.txt`
are byte-identical. It compares arrays rather than archive bytes, because
the metadata of the committed archives may hold keys that the current writer
no longer emits. Any change to the floats of training shows up here.

The PASS/FAIL line names the OpenBLAS kernel that computed the rebuild. The
committed pipeline was trained with the SkylakeX kernel, and another kernel
(Haswell on an AVX2-only machine) gives other training floats.

    python3 perfbench/build_pipeline.py "$DIR"
    python3 tools/compare_pipeline.py "$DIR"
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "pipeline"


def blas_core_name(libs: Path | None = None) -> str:
    """The kernel (e.g. ``SkylakeX``) that numpy's bundled OpenBLAS picked
    for this CPU, read through ``scipy_openblas_get_corename64_`` in the
    ``numpy.libs`` directory ``libs``; ``unknown`` when no such library or
    symbol is found."""
    if libs is None:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def differences(built: Path) -> list[str]:
    """What differs between the pipeline directory ``built`` and ``REFERENCE``."""
    from difftt.checkpoint import load_checkpoint

    found = []
    for name in ("pipeline.json", "vocab.txt"):
        if (built / name).read_bytes() != (REFERENCE / name).read_bytes():
            found.append(f"{name}: the bytes differ")
    for name in ("mt.npz", "tc.npz"):
        values, frozen, extra = load_checkpoint(built / name)
        ref_values, ref_frozen, ref_extra = load_checkpoint(REFERENCE / name)
        if list(values) != list(ref_values):
            found.append(f"{name}: parameter names differ")
            continue
        found += [f"{name}: {param} differs" for param in values
                  if not np.array_equal(values[param], ref_values[param])]
        if frozen != ref_frozen:
            found.append(f"{name}: frozen flags differ")
        if extra.get("config") != ref_extra.get("config"):
            found.append(f"{name}: model config {extra.get('config')} != {ref_extra.get('config')}")
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: compare_pipeline.py BUILT_DIRECTORY")
    sys.path.insert(0, str(ROOT / "src"))
    found = differences(Path(sys.argv[1]))
    for line in found:
        print(line)
    print(f"{'FAIL' if found else 'PASS'}: {sys.argv[1]} against {REFERENCE.relative_to(ROOT)} "
          f"(OpenBLAS kernel {blas_core_name()})")
    sys.exit(1 if found else 0)
