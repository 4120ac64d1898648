"""bohrlab benchmark: one workload, one seed, one run.

Usage, from the root of a bohrlab checkout:

    python3 perfbench/run.py --workload mc_acceptance --seed 1 --seconds 24 --trace 0

Workloads: mc_acceptance, mc_high_r, scalar_cli (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run and writes its spans to .bench_out/.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before it
records the machine, the sample counts and any failed output checks.

Every process runs in a fresh interpreter with BOHRLAB_THREADS unset and the
BLAS thread counts at 1.  Set-up (import, inputs, one untimed op) is measured
in SETUP_SAMPLES fresh interpreters and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "series.schur_synthesis.self_us_per_trial": "us",
    "series.schur_synthesis.calls": "count/round",
    "series.schur_synthesis.coeffs": "count/round",
    "series.coeffs_per_s": "1/s",
    "montecarlo.sample_schur.self_us_per_trial": "us",
    "montecarlo.verify.self_ms_per_report": "ms",
    "montecarlo.order_mean": "count",
    "montecarlo.violations": "count/round",
    "majorant.sums.self_us_per_trial": "us",
    "eilenberg.be_lp_combination_sum.self_us_per_trial": "us",
    "radii.maximize_envelope.calls": "count/round",
    "radii.maximize_envelope.self_ms_per_call": "ms",
    "radii.powered_radius_rp.ms_per_call": "ms",
    "radii.psymmetric_radius.ms_per_call": "ms",
    "harmonic.self_ms_per_op": "ms",
    "eilenberg.radius.ms_per_op": "ms",
    "cli.main.self_ms_per_op": "ms",
    "series.self_pct": "%",
    "majorant.self_pct": "%",
    "montecarlo.self_pct": "%",
    "radii.self_pct": "%",
    "harmonic.self_pct": "%",
    "eilenberg.self_pct": "%",
    "cli.self_pct": "%",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.warmup_s": "s",
    "trace.trials_per_s": "1/s",
    "trace.ops_per_s": "1/s",
    "trace.overhead_trials_pct": "%",
    "trace.overhead_ops_pct": "%",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BOHRLAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="few trials per report and two set-up samples (smoke test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "bohrlab", "__init__.py")):
        print("error: run from the root of a bohrlab checkout (src/bohrlab not found)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    samples = 2 if args.tiny else SETUP_SAMPLES
    try:
        setups = [run_worker([*common, "--setup-only"], env, deadline) for _ in range(samples - 1)]
        main_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            main_args += ["--trace-file",
                          os.path.join(".bench_out", f"trace-{args.workload}-{args.seed}.csv")]
        result = run_worker(main_args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for s in setups for e in s["errors"]] + result["errors"]
    setups = [s["setup"] for s in setups] + [result["setup"]]
    median = lambda key: statistics.median(s[key] for s in setups)
    values = dict(result["metrics"])
    if args.trace:
        for key in ("import_s", "inputs_s", "warmup_s"):
            values[f"setup.{key}"] = median(key)
        units = PER_LAYER_UNITS
    else:
        values["setup_s"] = median("setup_s")
        values["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END_UNITS
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    detail = dict(result["detail"], workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples=[s["setup_s"] for s in setups],
                  raw_setup_samples=[s["raw_setup_s"] for s in setups], failed_checks=errors[:10])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
