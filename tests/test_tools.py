"""The repository's command-line tools under ``tools/``."""

import _ctypes
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blas_core_name_names_the_kernel_or_says_unknown(tmp_path):
    compare = load_tool("compare_pipeline")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    name = compare.blas_core_name()
    if any(libs.glob("libscipy_openblas64_*.so*")):
        # a numpy wheel's OpenBLAS names the kernel it picked, e.g. SkylakeX
        assert name != "unknown" and name.isidentifier()
    else:
        assert name == "unknown"
    assert compare.blas_core_name(tmp_path) == "unknown"  # no library
    (tmp_path / "libscipy_openblas64_-broken.so").write_bytes(b"not a shared object")
    assert compare.blas_core_name(tmp_path) == "unknown"
    # a shared object without the symbol
    shutil.copy(_ctypes.__file__, tmp_path / "libscipy_openblas64_-other.so")
    assert compare.blas_core_name(tmp_path) == "unknown"


def test_digests_fail_on_a_corrupted_entry_and_name_it():
    # the comparison alone: the stand-in for the workloads returns the
    # committed digests, so no workload runs here
    digests = load_tool("digests")
    table = json.loads(digests.DIGESTS.read_text())
    kernel = next(iter(table))
    committed = table[kernel]
    ran = []

    def committed_rounds(names):
        ran.append(list(names))
        return {name: committed[name] for name in names}

    code, lines = digests.check(table, kernel, committed_rounds)
    assert code == 0 and lines[-1].startswith("PASS") and ran == [sorted(committed)]
    name = sorted(committed)[0]
    flipped = committed[name][:-1] + ("0" if committed[name][-1] != "0" else "1")
    corrupted = {kernel: {**committed, name: flipped}}
    code, lines = digests.check(corrupted, kernel, committed_rounds)
    assert code == 1 and lines[-1].startswith("FAIL")
    assert lines[:-1] == [f"FAIL: {name} on OpenBLAS kernel {kernel}: digest {committed[name]}, "
                          f"committed {flipped}"]
    # a kernel with no entry is named and not run
    code, lines = digests.check(table, "NoSuchKernel", committed_rounds)
    assert code == 0 and "NoSuchKernel" in lines[0] and len(ran) == 2
