"""Benchmark of joinscaffold: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload wide_schema_plan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory; the run fails
without printing a result when it is missing. One closed-loop client in one
thread performs operations for ``--seconds`` and checks the canonical
document of each against digests recorded on the seed commit (digests.json,
rebuilt by record_digests.py).

``--trace 0`` measures the end-to-end metrics with nothing wrapped. Set-up is
timed here and in four fresh interpreters, and the median is reported.
``--trace 1`` wraps every layer's public functions (spans.py), runs each
operation once traced and once untraced, and reports the per-layer metrics
plus the tracing overhead; the spans are written to ``.bench_out/``.
``--workload all`` runs every workload, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("wide_schema_plan", "deep_data_validate", "large_graph_solve", "planner_compare")
SETUP_CHILDREN = 4
TAIL_BEYOND = 10


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit if it is missing."""
    if not (SRC / "joinscaffold" / "__init__.py").is_file():
        sys.exit(f"run.py: no joinscaffold sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import joinscaffold

    if Path(joinscaffold.__file__).resolve().parent != SRC / "joinscaffold":
        sys.exit(f"run.py: imported joinscaffold from {joinscaffold.__file__}, not {SRC}")


def digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least 10 samples above it.

    Below 20 samples no percentile from the median up qualifies, and the
    maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


class Checker:
    """Runs one operation, times it, and compares its document with the reference."""

    def __init__(self, workload: str):
        with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)[workload]
        self.attempted = 0
        self.failed = 0

    def run(self, key, op, render) -> float | None:
        """Latency in seconds, or None when the operation failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = op()
            elapsed = time.perf_counter() - start
            got = digest(render(result))
        except Exception:  # an unexpected exception is a failed operation
            traceback.print_exc()
            self.failed += 1
            return None
        if got != self.expected.get(key):
            print(f"digest mismatch on {key}: {got} != {self.expected.get(key)}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed


def setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(wl) -> float:
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def measure(name: str, wl, seed: int, seconds: float, workdir: Path) -> tuple[Checker, dict]:
    """End-to-end metrics, nothing wrapped."""
    setups = [setup_in_child(name, seed, workdir) for _ in range(SETUP_CHILDREN)]
    setups.append(timed_setup(wl))
    check = Checker(name)
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = next(wl.order)
        latency = check.run(*wl.operation(item))
        if latency is not None:
            latencies.append(latency)
    elapsed = time.perf_counter() - start
    p, tail_s = tail(latencies)
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"latency: {len(latencies)} samples; latency_tail_ms is p{p}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "throughput_ops_s": (len(latencies) / elapsed, "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return check, metrics


def measure_traced(name: str, wl, seed: int, seconds: float) -> tuple[Checker, dict]:
    """Per-layer metrics: each operation runs traced, then again untraced."""
    from spans import OPERATION_TIMES, Recorder, instrument, layer_metrics, per_layer_units

    rec = Recorder()
    instrument(rec)
    try:
        wl.setup(rec)
    finally:
        rec.unpatch()
    check = Checker(name)
    traced, plain, keys = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = next(wl.order)
        key, op, render = wl.operation(item, rec)
        instrument(rec)
        rec.operation = len(keys)
        keys.append(key)
        try:
            latency = check.run(key, op, render)
        finally:
            rec.operation = None
            rec.unpatch()
        untraced = check.run(*wl.operation(item))
        if latency is not None and untraced is not None:
            traced.append(latency)
            plain.append(untraced)
    overhead = 100 * (statistics.median(t / p for t, p in zip(traced, plain)) - 1)
    values = layer_metrics(rec, 1, len(keys), getattr(wl, "ratios", {}).values(), overhead)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"operations": keys, "spans": rec.dump(), "counters": rec.counters}, fh)
    top = max((metric for metric, _span in OPERATION_TIMES), key=values.get)
    print(f"traced {len(keys)} operations; largest self time per operation: {top}")
    print(f"tracing overhead: median {1000 * statistics.median(traced):.3f} ms traced, "
          f"{1000 * statistics.median(plain):.3f} ms untraced; median of paired ratios "
          f"{overhead:+.1f}%")
    units = per_layer_units()
    return check, {k: (values[k], units[k]) for k in units}


def run_workload(args) -> int:
    load_program()
    from workloads import WORKLOADS as FACTORIES

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = FACTORIES[args.workload](args.seed, workdir)
        wl.prepare()
        print(f"{args.workload} seed {args.seed}: {wl.description}")
        if args.trace:
            check, metrics = measure_traced(args.workload, wl, args.seed, args.seconds)
        else:
            check, metrics = measure(args.workload, wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {check.failed / check.attempted:.6g} ratio "
          f"({check.failed}/{check.attempted})")
    if getattr(wl, "iterations", None):
        mix = Counter(wl.iterations.values())
        print(f"  iterations used by the {len(wl.iterations)} questions run: "
              + ", ".join(f"{mix[k]} took {k}" for k in sorted(mix)))
    if getattr(wl, "ratios", None):
        print(f"  mean_optimality_ratio = {statistics.fmean(wl.ratios.values()):.6g} ratio "
              f"(KMB cost / oracle cost, {len(wl.ratios)} instances)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def setup_only(args) -> int:
    load_program()
    from workloads import WORKLOADS as FACTORIES

    wl = FACTORIES[args.workload](args.seed, Path(args.setup_only))
    print(json.dumps({"setup_s": timed_setup(wl)}))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0:
            return out.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
