"""What importing difftt costs a process: modules loaded and the allocator
setting that keeps freed heap pages mapped. Each check runs in a fresh
interpreter, so nothing the test process already imported or allocated
hides the cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import difftt
from difftt import autodiff as ad

SRC = str(Path(difftt.__file__).resolve().parents[1])


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 45 MB resident; only the BLEU sweep needs it
    out = run_python("import sys, difftt, difftt.harness, difftt.cli\n"
                     "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert out == "[]"


@pytest.mark.skipif(not ad._keep_freed_heap_pages(),
                    reason="needs glibc with malloc left to difftt's setting")
def test_freed_arrays_reuse_heap_pages():
    # a tape-sized batch of 8 MB arrays, freed and allocated again: the pages
    # stay mapped, where glibc's defaults fault thousands back in per cycle
    out = run_python(
        "import resource\n"
        "import numpy as np\n"
        "import difftt\n"
        "def cycle():\n"
        "    arrays = [np.ones((500, 16, 128)) for _ in range(8)]\n"
        "    del arrays\n"
        "cycle()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    cycle()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(out) == 0
