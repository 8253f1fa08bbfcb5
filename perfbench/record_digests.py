"""Record the reference digest of every operation the workloads can perform.

    python3 perfbench/record_digests.py          # rewrite perfbench/digests.json
    python3 perfbench/record_digests.py --check  # exit 1 if any digest differs

Run it on the commit whose outputs are the reference. It walks each closed
input pool in full (every schema variant and question, every graph instance)
and also checks that each question took the iterations its fault plan
scripts, so the workload's mix of 1, 2 and 3 iterations is the designed one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from itertools import chain

from run import BENCH_DIR, ROOT, digest, load_program

load_program()

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED_OUTCOME = {"ok": "sql", "syntax": "syntax_error", "exec": "syntax_error",
                    "drop": "max_iterations", "join": "max_iterations"}


def pipeline_digests(name: str, variants: int, workdir) -> dict[str, str]:
    out = {}
    for variant in range(variants):
        wl = WORKLOADS[name](variant, workdir)
        wl.prepare()
        wl.setup()
        for index, question in enumerate(wl.inputs.questions):
            key, op, render = wl.operation(index)
            result = op()
            planned = (len(question.plan), EXPECTED_OUTCOME[question.plan[-1]])
            if (result.iterations_used, result.outcome) != planned:
                raise SystemExit(f"{name} {key}: got {result.outcome} after "
                                 f"{result.iterations_used} iterations, planned {planned}")
            out[key] = digest(render(result))
        print(f"{name} variant {variant}: {len(wl.inputs.questions)} questions", file=sys.stderr)
    return out


def graph_digests(name: str, strata) -> dict[str, str]:
    wl = WORKLOADS[name](0, None)
    out = {}
    for item in chain.from_iterable(strata):
        key, op, render = wl.operation(item)
        out[key] = digest(render(op()))
    print(f"{name}: {len(out)} instances", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    workdir = ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        digests = {
            "wide_schema_plan": pipeline_digests(
                "wide_schema_plan", inputs.WIDE_VARIANTS, workdir),
            "deep_data_validate": pipeline_digests(
                "deep_data_validate", inputs.DEEP_VARIANTS, workdir),
            "large_graph_solve": graph_digests("large_graph_solve", inputs.large_strata()),
            "planner_compare": graph_digests("planner_compare", inputs.planner_strata()),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = BENCH_DIR / "digests.json"
    if args.check:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        bad = [(w, k) for w in digests for k in digests[w] if stored[w].get(k) != digests[w][k]]
        print(f"{len(bad)} digests differ" + (f", first {bad[0]}" if bad else ""))
        return 1 if bad else 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
