"""Check that the benchmark's seed-1 round digests equal the committed ones.

Runs one untraced round of each `perfbench` workload at seed 1, through
`perfbench/run.py`'s `make_workload` and `run_round`, and compares each
round's digest with the entry in `DIGESTS.json` for the OpenBLAS kernel
that computed it (read with `compare_pipeline.blas_core_name`). The digests
hash the workloads' outputs and, for the training workloads, every trained
parameter, so any change to the floats of the program shows up here.

One more case, `short_blocks`, covers what the workloads' 64-row blocks
never reach: blocks whose decode stops short of the batch's step count. It
classifies the 500-row target-language test split on the committed pipeline
at `mt.BLOCK_ROWS` = 2 (61 blocks below the split's 13 steps, 20 of them at an
odd step count) and hashes the soft, hard and forced one-hot logits.

A mismatch prints the workload, the kernel and both digests, and exits 1.
A kernel without an entry prints its name and exits 0: another kernel
computes other floats (Haswell on an AVX2-only machine), and no digest of it
has been committed. A change that alters floats on purpose updates the file.
BLAS is pinned to one thread before numpy is imported, as `run.py` does.

    python3 tools/digests.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "DIGESTS.json"
SEED = 1


def short_blocks_digest() -> str:
    """The committed pipeline's soft, hard and forced one-hot logits on the
    target-language test split, in row blocks of 2."""
    import run
    import workloads
    from difftt import mt

    bundle, pipe = workloads.load_service(run.PIPELINE_DIR)
    ids = [pipe.vocab.encode(tokens) for tokens, _ in bundle.tg_test]
    rows, mt.BLOCK_ROWS = mt.BLOCK_ROWS, 2
    try:
        preds = (pipe.predict_batch(ids) + pipe.predict_hard_batch(ids)
                 + pipe.predict_forced_onehot_batch(ids))
    finally:
        mt.BLOCK_ROWS = rows
    return workloads._digest(*(p.logits for p in preds))


def round_digests(names) -> dict[str, str]:
    """The digest of each case in ``names``: ``short_blocks``, or one
    untraced seed-``SEED`` round of the workload of that name."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run

    digests = {}
    for name in names:
        if name == "short_blocks":
            digests[name] = short_blocks_digest()
            continue
        workload = run.make_workload(name)
        workload.setup(SEED)
        digests[name] = run.run_round(workload).digest
    return digests


def check(table: dict, kernel: str, compute) -> tuple[int, list[str]]:
    """The exit code and report lines for ``table`` (kernel -> workload ->
    digest) on ``kernel``; ``compute(names) -> digests`` runs the workloads,
    and is called only when ``table`` has an entry for the kernel."""
    expected = table.get(kernel)
    if expected is None:
        return 0, [f"SKIP: no digests committed for OpenBLAS kernel {kernel}"]
    computed = compute(sorted(expected))
    failures = [f"FAIL: {name} on OpenBLAS kernel {kernel}: digest {computed[name]}, "
                f"committed {digest}"
                for name, digest in sorted(expected.items()) if computed[name] != digest]
    summary = (f"{'FAIL' if failures else 'PASS'}: {len(expected) - len(failures)} of "
               f"{len(expected)} seed-{SEED} digests equal on OpenBLAS kernel {kernel}")
    return (1 if failures else 0), failures + [summary]


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, with compare_pipeline
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from compare_pipeline import blas_core_name

    code, lines = check(json.loads(DIGESTS.read_text()), blas_core_name(), round_digests)
    print("\n".join(lines))
    sys.exit(code)
