"""Self-test of the benchmark harness at toy size (about three minutes).

    python3 vmbench/selftest.py

Runs every workload on toy inputs (c13's body, a ~2k-point plate, a
~1.6k-vertex plate) through ``run.py`` and checks that:

- each run completes and prints a result with the metric names and units
  ``BENCHMARK.json`` lists, end-to-end with ``--trace 0`` and per-layer
  with ``--trace 1``;
- a planted wrong expectation is counted as a failed op;
- in a traced pass, the self times summed from the written spans plus
  ``trace.unattributed_s`` equal each op's wall time, and tracing leaves
  the outputs byte-identical.

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline_pair", "register_pairs", "simplify_plate")


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "toy",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = ROOT / ".vmbench_work" / f"{workload}_s0_t{trace}_toy"
    return result, work


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        raise SystemExit(1)


def summed_self(spans):
    """Per-op sum of span durations minus their direct children's."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    per_op = defaultdict(float)
    for i, s in enumerate(spans):
        per_op[s["op"]] += (s["end"] - s["start"]) - child[i]
    return per_op


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    for workload in WORKLOADS:
        result, _ = bench(workload, 0)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["attempted"] >= 1 and sorted(result["metrics"]) == sorted(e2e)
               and all(v["unit"] == units[k] for k, v in result["metrics"].items()),
               f"{workload}: completes and reports every end-to-end metric "
               f"({result['attempted']} ops, {result['failed']} failed)")
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{workload}: no end-to-end metric reads 0")

        traced, work = bench(workload, 1)
        expect(sorted(traced["metrics"]) == sorted(per_layer)
               and all(v["unit"] == units[k] for k, v in traced["metrics"].items()),
               f"{workload}: traced pass reports every per-layer metric")
        detail = json.loads((work / "result.json").read_text())
        spans = json.loads((work / "spans.json").read_text())
        sums = summed_self(spans)
        worst = max(abs(sums[op["index"]] + op["unattributed_s"] - op["wall_s"])
                    for op in detail["traced_ops"])
        expect(worst < 1e-9 and all(op["unattributed_s"] >= 0
                                    for op in detail["traced_ops"]),
               f"{workload}: summed self time + unattributed = op wall time "
               f"(worst residual {worst:.1e} s)")
        expect(traced["correct"] and all(op["matches_untraced"]
                                         for op in detail["traced_ops"]),
               f"{workload}: traced outputs are byte-identical to untraced")

    planted, _ = bench("simplify_plate", 0, "--plant-failure")
    expect(planted["failed"] >= 1 and not planted["correct"],
           f"planted wrong expectation counted ({planted['failed']} of "
           f"{planted['attempted']} ops failed, correct={planted['correct']})")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
