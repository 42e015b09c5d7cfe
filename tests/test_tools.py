"""The repository's command-line tools under ``tools/``."""

import _ctypes
import importlib.util
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
