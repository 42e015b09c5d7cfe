"""What importing difftt costs a process: modules loaded and the allocator
setting that keeps freed heap pages mapped. Each check runs in a fresh
interpreter, so nothing the test process already imported or allocated
hides the cost."""

import pytest

from conftest import fresh_python
from difftt import autodiff as ad


def run_python(code: str) -> str:
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 45 MB resident; only the BLEU sweep needs it
    out = run_python("import sys, difftt, difftt.harness, difftt.cli\n"
                     "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert out == "[]"


def test_import_loads_no_scipy_package():
    # only the extension that holds erf loads; the scipy.special package
    # costs about 20 MB resident and a quarter of a second, and importing it
    # here would mean the loader fell back to it
    out = run_python("import sys, difftt, difftt.harness, difftt.cli\n"
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out == "['scipy.special._special_ufuncs']"


ERF_GRID = (
    "import numpy as np\n"
    "grid = np.concatenate([\n"
    "    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,\n"
    "     np.finfo(float).tiny, -np.finfo(float).tiny, 40.0, -40.0, 1e300, -1e300],\n"
    "    np.linspace(-40.0, 40.0, 80_001),\n"
    "    np.random.default_rng(0).standard_normal(100_000)])\n")


def test_erf_is_bitwise_scipy_special_erf():
    # each side in its own interpreter: difftt's erf before anything imports
    # scipy.special, against the package's erf without difftt
    digest = "import hashlib\nprint(hashlib.sha256(erf(grid).tobytes()).hexdigest())\n"
    ours = run_python("import sys\nfrom difftt.autodiff import erf\n"
                      "assert 'scipy.special' not in sys.modules\n" + ERF_GRID + digest)
    theirs = run_python("import sys\nfrom scipy.special import erf\n"
                        "assert 'difftt' not in sys.modules\n" + ERF_GRID + digest)
    assert ours == theirs


def test_scipy_special_imported_later_shares_erf():
    # the sweep imports scipy.stats after difftt: one extension module, one ufunc
    out = run_python("import sys\n"
                     "from difftt import autodiff\n"
                     "import scipy.special\n"
                     "from scipy import stats\n"
                     "assert scipy.special.erf is autodiff.erf\n"
                     "assert sys.modules['scipy.special._special_ufuncs'].erf is autodiff.erf\n"
                     "print(stats.spearmanr([1, 2, 3, 4], [1, 3, 2, 4]).statistic)")
    assert float(out) == pytest.approx(0.8)


def test_erf_falls_back_to_the_package_without_the_extension():
    # a scipy whose erf extension is not found gets `from scipy.special import erf`
    # (the import system's own finders keep their copies of the suffixes)
    out = run_python("import importlib.machinery, sys\n"
                     "importlib.machinery.EXTENSION_SUFFIXES = []\n"
                     "from difftt import autodiff\n"
                     "loaded = 'scipy.special' in sys.modules\n"
                     "import scipy.special\n"
                     "print(loaded, autodiff.erf is scipy.special.erf)")
    assert out == "True True"


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


def test_a_paired_call_joins_its_helper_thread_before_it_returns():
    # importing, building models and a one-block batch start no thread; a
    # batch of two blocks on two CPUs runs one block on a helper thread that
    # the call starts and joins, so no thread is left after any call
    out = run_python(
        "import os, threading\n"
        "import numpy as np\n"
        "import difftt.cli, difftt.pipeline\n"
        "from difftt import mt\n"
        "from difftt.vocab import SPECIALS, Vocabulary\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "model = mt.MtModel(Vocabulary(SPECIALS + ['a', 'b']), mt.MtConfig(d_model=4, "
        "n_layers=1, n_heads=1, d_ff=4, max_source_len=4, max_decode_len=4))\n"
        "counts = [threading.active_count()]\n"
        "model.greedy_decode_batch(np.full((mt.BLOCK_ROWS, 2), 5))\n"
        "counts.append(threading.active_count())\n"
        "for _ in range(2):\n"
        "    model.greedy_decode_batch(np.full((2 * mt.BLOCK_ROWS, 2), 5))\n"
        "    counts.append(threading.active_count())\n"
        "names = mt.map_blocks(lambda i: threading.current_thread().name, range(2))\n"
        "print(counts, names[0] == threading.current_thread().name,\n"
        "      names[1].startswith('difftt-blocks'))\n")
    assert out == "[1, 1, 1, 1] True True"
