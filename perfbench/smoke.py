"""Smoke test of the benchmark: every workload at tiny size.

    python3 perfbench/smoke.py        # from the root of a bohrlab checkout

For each workload it runs perfbench/run.py --tiny untraced once and traced
twice on one seed, and checks that
- the last stdout line has exactly the keys correct/attempted/failed/metrics,
  with correct true and no failed op;
- every metric BENCHMARK.json names is printed, with its unit;
- the exact per-round counts of the two traced runs agree bit for bit.
It also checks that run.py refuses, without a result, to run outside a
checkout.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
EXACT = (
    "series.schur_synthesis.calls",
    "series.schur_synthesis.coeffs",
    "montecarlo.order_mean",
    "montecarlo.violations",
    "radii.maximize_envelope.calls",
)


def run(workload: str, trace: int, cwd: str = ".") -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL {what}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"FAIL {what}: {result['attempted']} attempted, {result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"FAIL {what}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"FAIL {what}: {name} = {m['value']!r}")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for wl in (w["name"] for w in bench["workloads"]):
        check_result(run(wl, 0), end_to_end, f"{wl} trace=0")
        first, second = run(wl, 1), run(wl, 1)
        for result in (first, second):
            check_result(result, per_layer, f"{wl} trace=1")
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                raise SystemExit(f"FAIL {wl}: {name} differs between traced runs: {a!r} vs {b!r}")
        print(f"ok {wl}: " + ", ".join(f"{n}={first['metrics'][n]['value']:g}" for n in EXACT))

    outside = os.path.join(".bench_out", "not-a-checkout")
    os.makedirs(outside, exist_ok=True)
    proc = subprocess.run([sys.executable, RUN, "--workload", "scalar_cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=outside, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("FAIL: run.py produced a result outside a checkout")
    print("ok: run.py refuses to run outside a checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
