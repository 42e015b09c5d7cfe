"""Check that a rebuilt benchmark pipeline equals the committed one.

`perfbench/build_pipeline.py DIR` trains the benchmark's translator and
classifier from scratch. This script passes when DIR holds the same model as
`perfbench/pipeline/`: every parameter array, frozen flag and stored model
config in `mt.npz` and `tc.npz` is equal, and `pipeline.json` and `vocab.txt`
are byte-identical. It compares arrays rather than archive bytes, because
the metadata of the committed archives may hold keys that the current writer
no longer emits. Any change to the floats of training shows up here.

    python3 perfbench/build_pipeline.py "$DIR"
    python3 tools/compare_pipeline.py "$DIR"
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "pipeline"


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
    print(f"{'FAIL' if found else 'PASS'}: {sys.argv[1]} against {REFERENCE.relative_to(ROOT)}")
    sys.exit(1 if found else 0)
