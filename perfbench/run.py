"""Benchmark of the difftt pipeline: one workload per run, in one process.

    python3 perfbench/run.py --workload {train,finetune,evaluate,evaluate_split} \
        --seed N --seconds S --trace {0,1}

With `--trace 0` it sets up three times, then runs whole rounds of the
workload until `--seconds` have passed, and prints the end-to-end metrics
of BENCHMARK.json. With `--trace 1` it alternates an untraced and a traced
round and prints the per-layer metrics of one traced round. Both check the
program's outputs (see `checks.py`). The last line of standard output is
one JSON object: correct, attempted, failed and metrics. A full record of
the run goes to `perfbench/results/`.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "difftt"
PIPELINE_DIR = HERE / "pipeline"
SETUP_REPEATS = 3


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)   # seconds, successful ops
    outputs: list = field(default_factory=list)            # None for a failed op
    samples: int = 0
    failed: int = 0
    digest: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def source_digest() -> str:
    """SHA-256 of `src/difftt`: names the code where no git SHA is at hand."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def make_workload(name: str):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(PIPELINE_DIR) if cls.needs_pipeline else cls()


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, from numpy's bundled library."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(digest: str) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": digest,
    }


def run_round(workload, tracer=None) -> Round:
    from tracing import tracing

    workload.before_round()
    rnd = Round()
    with tracing(tracer) if tracer is not None else nullcontext():
        for op in workload.round_ops():
            start = perf_counter()
            try:
                samples, out = op()
            except Exception:
                traceback.print_exc()
                rnd.failed += 1
                rnd.outputs.append(None)
                continue
            rnd.latencies.append(perf_counter() - start)
            rnd.samples += samples
            rnd.outputs.append(out)
    rnd.digest = workload.digest(rnd.outputs)
    return rnd


def gather(workload, rounds: list[Round], layers=None) -> dict:
    """The evidence of a run: that of its last round's outputs, the digest of
    every round and, in a traced run, the layer metrics of every traced round."""
    evidence = workload.evidence(rounds[-1].outputs)
    evidence["digests"] = [r.digest for r in rounds]
    if layers is not None:
        evidence["layers"] = layers
    return evidence


def judge_evidence(workload, evidence: dict):
    import checks
    from tracing import COUNT_METRICS

    result = workload.judge(evidence)
    if "layers" in evidence:
        result.append(checks.counts_repeat(evidence["layers"], COUNT_METRICS))
    return result


def judge(workload, rounds: list[Round], layers=None):
    from checks import Check

    try:
        return judge_evidence(workload, gather(workload, rounds, layers))
    except Exception:
        traceback.print_exc()
        return [Check("evidence_gathered", False, "gathering the evidence raised")]


def percentile_ms(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile: an observed latency, in ms."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1000.0


def measure(workload, seed: int, seconds: float):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(seed)
        setup_times.append(perf_counter() - start)
    rounds = []
    start = perf_counter()
    while len(rounds) < workload.min_rounds or perf_counter() - start < seconds:
        rounds.append(run_round(workload))
    latencies = [t for r in rounds for t in r.latencies]
    metrics = {
        "samples_per_s": statistics.median(r.samples / r.seconds for r in rounds),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": percentile_ms(latencies, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"setup_times_s": setup_times, "round_seconds": [r.seconds for r in rounds],
              "round_samples": [r.samples for r in rounds], "latencies_s": latencies}
    return rounds, metrics, judge(workload, rounds), record


def measure_traced(workload, seed: int, seconds: float):
    from tracing import Tracer, layer_metrics, tracing

    setup_tracer = Tracer()
    with tracing(setup_tracer):
        workload.setup(seed)
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_round(workload))
        tracer = Tracer()
        traced.append(run_round(workload, tracer))
        layers.append(layer_metrics(tracer))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["synthlang.generate_s"] = setup_tracer.seconds["synthlang.generate"]
    metrics["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                   - statistics.median(r.seconds for r in plain))
    # the digest check spans untraced and traced rounds alike
    checks = judge(workload, plain + traced, layers)
    record = {"per_round_layers": layers,
              "plain_round_seconds": [r.seconds for r in plain],
              "traced_round_seconds": [r.seconds for r in traced]}
    return plain + traced, metrics, checks, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no difftt sources at {SOURCE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload)
    env = environment(source_digest())
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    measure_fn = measure_traced if args.trace else measure
    rounds, values, checks, record = measure_fn(workload, args.seed, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    attempted = sum(len(r.outputs) for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = all(c.ok for c in checks)

    for c in checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    print(f"rounds {len(rounds)}, operations {attempted} attempted, {failed} failed, "
          f"digest {rounds[0].digest[:16]}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "digests": [r.digest for r in rounds], "metrics": metrics,
        "checks": [vars(c) for c in checks], **record,
    }, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
