"""One benchmark process: set up, run whole rounds of a workload, report.

Started by perfbench/run.py in a fresh interpreter at the root of a bohrlab
checkout, with PYTHONPATH=src.  ``--setup-only`` stops after set-up.  Prints
one JSON object as its last line of stdout.

Untraced, every op is timed on its own and its output checked after the
clock stops.  Traced (``--trace 1``), untraced and traced rounds alternate,
so the gap between them is the tracing overhead, and the per-layer figures
come from the traced rounds' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import reference
import tracing
import workloads

WARMUP_ROUND = -1


def setup(name: str, seed: int, tiny: bool):
    """Import bohrlab, generate the first inputs and run one untimed op."""
    t0 = time.perf_counter()
    import bohrlab
    import bohrlab.cli
    t1 = time.perf_counter()
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(bohrlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"bohrlab was imported from {bohrlab.__file__}, not from {src}")
    wl = workloads.make(name, seed, tiny)
    target = bohrlab.cli if name == "scalar_cli" else bohrlab.montecarlo
    op = wl.ops(WARMUP_ROUND, target)[0]
    t2 = time.perf_counter()
    err, _ = op.check(op.run())
    t3 = time.perf_counter()
    speed = reference.Speed()
    for _ in range(5):
        speed.sample()
    scale = speed.scale()
    times = {"import_s": (t1 - t0) * scale, "inputs_s": (t2 - t1) * scale,
             "warmup_s": (t3 - t2) * scale, "setup_s": (t3 - t0) * scale, "raw_setup_s": t3 - t0}
    return wl, target, times, err


def run_round(ops, speed: reference.Speed, tracer=None):
    """Time each op; returns [(slot, start, end, error, reports)]."""
    rec = []
    for j, op in enumerate(ops):
        speed.maybe_sample()
        t = time.perf_counter()
        out = op.run() if tracer is None else tracer.call(f"op.{op.label}", op.run)
        end = time.perf_counter()
        err, reports = op.check(out)
        rec.append((j, t, end, f"{op.label}: {err}" if err else None, reports))
    return rec


def timed(rounds):
    """Records as (slot, seconds, error, reports)."""
    return [[(j, end - t, err, reps) for j, t, end, err, reps in r] for r in rounds]


def slot_medians(rounds) -> list[float]:
    """Each slot's median latency across rounds: the ops of a typical round.
    On a shared machine interference comes in bursts that slow single ops;
    the per-slot median discards them."""
    return [statistics.median(r[j][1] for r in rounds) for j in range(len(rounds[0]))]


def throughput(rounds) -> tuple[float, float]:
    """(trials/s, ops/s) of a typical round."""
    round_s = sum(slot_medians(rounds))
    trials = sum(t for r in rounds for _, _, _, reps in r for t, _, _ in reps) / len(rounds)
    return trials / round_s, len(rounds[0]) / round_s


def end_to_end(rounds, scale: float) -> dict[str, float]:
    """Metrics of a typical round, in reference seconds (see reference.py).
    The latency quantiles are taken over the slot medians."""
    deciles = statistics.quantiles(slot_medians(rounds), n=10, method="inclusive")
    trials_per_s, ops_per_s = throughput(rounds)
    n_ops = sum(len(r) for r in rounds)
    ok = sum(1 for r in rounds for _, _, err, _ in r if err is None)
    return {
        "trials_per_s": trials_per_s / scale,
        "ops_per_s": ops_per_s / scale,
        "op_p50_ms": deciles[4] * scale * 1e3,
        "op_p90_ms": deciles[8] * scale * 1e3,
        "ok_frac": ok / n_ops,
    }


def per_layer(tracer: tracing.Tracer, traced, untraced, scale: float) -> dict[str, float]:
    own, total, calls = tracer.self_times()
    n_rounds = len(traced)
    recs = [x for r in traced for x in r]
    reports = [rep for _, _, _, reps in recs for rep in reps]
    trials = sum(t for t, _, _ in reports)
    op_s = sum(dt for _, dt, _, _ in recs)
    n_ops = len(recs)

    def self_of(*names):
        return sum(own.get(n, 0.0) for n in names)

    def layer_self(layer):
        return sum(v for n, v in own.items() if n.split(".")[0] == layer)

    def per(x, n, scale):
        return x / n * scale if n else 0.0

    synth = "series.schur_synthesis"
    verify = [n for n in own if n.startswith("montecarlo.verify_")]
    majorant = [n for n in own if n.startswith("majorant.")]
    ordered = [(t, o) for t, _, o in reports if o is not None]
    order_trials = sum(t for t, _ in ordered)
    rp, psym = "radii.powered_radius_rp", "radii.psymmetric_radius"
    env = "radii.maximize_envelope"
    be_radii = ("eilenberg.be_radius", "eilenberg.be_harmonic_radius")

    traced_trials, traced_ops = throughput(traced)
    plain_trials, plain_ops = throughput(untraced)
    out = {
        "series.schur_synthesis.self_us_per_trial": per(own.get(synth, 0.0), trials, 1e6),
        "series.schur_synthesis.calls": calls.get(synth, 0) / n_rounds,
        "series.schur_synthesis.coeffs": tracer.coeffs / n_rounds,
        "series.coeffs_per_s": per(tracer.coeffs, own.get(synth, 0.0), 1.0),
        "montecarlo.sample_schur.self_us_per_trial":
            per(own.get("montecarlo.sample_schur", 0.0), trials, 1e6),
        "montecarlo.verify.self_ms_per_report": per(self_of(*verify), len(reports), 1e3),
        "montecarlo.order_mean": per(sum(t * o for t, o in ordered), order_trials, 1.0),
        "montecarlo.violations": sum(f for _, f, _ in reports) / n_rounds,
        "majorant.sums.self_us_per_trial": per(self_of(*majorant), trials, 1e6),
        "eilenberg.be_lp_combination_sum.self_us_per_trial":
            per(own.get("eilenberg.be_lp_combination_sum", 0.0), trials, 1e6),
        "radii.maximize_envelope.calls": calls.get(env, 0) / n_rounds,
        "radii.maximize_envelope.self_ms_per_call": per(own.get(env, 0.0), calls.get(env, 0), 1e3),
        "radii.powered_radius_rp.ms_per_call": per(total.get(rp, 0.0), calls.get(rp, 0), 1e3),
        "radii.psymmetric_radius.ms_per_call": per(total.get(psym, 0.0), calls.get(psym, 0), 1e3),
        "harmonic.self_ms_per_op": per(layer_self("harmonic"), n_ops, 1e3),
        "eilenberg.radius.ms_per_op": per(sum(total.get(n, 0.0) for n in be_radii), n_ops, 1e3),
        "cli.main.self_ms_per_op": per(layer_self("cli"), n_ops, 1e3),
        "trace.trials_per_s": traced_trials / scale,
        "trace.ops_per_s": traced_ops / scale,
        "trace.overhead_trials_pct": (1.0 - traced_trials / plain_trials) * 100.0,
        "trace.overhead_ops_pct": (1.0 - traced_ops / plain_ops) * 100.0,
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_pct"] = per(layer_self(layer), op_s, 100.0)
    return out


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    wl, target, setup_times, setup_err = setup(args.workload, args.seed, args.tiny)
    result = {"setup": setup_times, "errors": [setup_err] if setup_err else []}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    speed = reference.Speed()
    untraced, traced = [], []
    # whole rounds (whole untraced/traced pairs when traced), and no round is
    # started that the last one says would end after --seconds
    start = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        ops = wl.ops(k, target)
        if tracer is not None and k % 2:
            tracer.install()
            try:
                traced.append(run_round(ops, speed, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(run_round(ops, speed))
        k += 1
        if tracer is not None and k % 2:
            continue
        now = time.perf_counter()
        if now - start + (now - round_start) * (2 if tracer else 1) > args.seconds:
            break
    elapsed = time.perf_counter() - start
    speed.sample()

    recs = [x for r in untraced + traced for x in r]
    result["errors"] += [err for *_, err, _ in recs if err]
    result["attempted"] = len(recs)
    result["failed"] = sum(1 for *_, err, _ in recs if err)
    raw = timed(untraced)
    scale = speed.scale()
    if tracer is None:
        result["metrics"] = end_to_end(raw, scale)
    else:
        result["metrics"] = per_layer(tracer, timed(traced), raw, scale)
        if args.trace_file:
            tracer.write(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["detail"] = {
        "rounds": k,
        "ops_timed": len(recs),
        "ops_per_round": len(recs) // k,
        "loop_s": elapsed,
        "spans": len(tracer.spans) if tracer else 0,
        "scale": scale,
        "raw_wall_clock": end_to_end(raw, 1.0),
        "reference_loop_ms": [round(d * 1e3, 3) for d in
                              statistics.quantiles([d for _, d in speed.samples], n=4)],
        "slot_median_ms": {f"{j} {op.label}": round(med * 1e3, 3)
                           for j, (op, med) in enumerate(zip(wl.ops(0, target), slot_medians(raw)))},
        "machine": machine(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
