"""The benchmark's workloads: seeded inputs, the calls they make, output checks.

A workload is a fixed mix of ops, run in whole rounds.  Round k draws its
inputs from a ``random.Random`` seeded with the workload name, the seed and
k, so one seed always gives the same inputs and each round gets fresh ones.
Each op calls bohrlab's public API through a module attribute looked up at
call time, so the tracer's wrappers see it.

This module imports neither numpy nor bohrlab: the worker times that import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Op:
    """One call: ``run()`` returns the output and ``check(output)`` returns
    (error or None, reports), each report as (trials, failures, order or None)."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


# ---------------------------------------------------------------------------
# Monte-Carlo workloads: one op is one verify_* call, one report per claim
# (verify_be returns two).  Order and depth stay at their defaults.

# acceptance criterion 10's nine reports, at the CLI's default trial count
MC_ACCEPTANCE = (
    ("theorem1 p=1 r=0.5", lambda mc, n, s: mc.verify_theorem1(1.0, 0.5, n, seed=s)),
    ("theorem1 p=1.5 r=0.9", lambda mc, n, s: mc.verify_theorem1(1.5, 0.9, n, seed=s)),
    ("lemma21 R=1", lambda mc, n, s: mc.verify_lemma_quadratic(n, 1.0, seed=s)),
    ("theorem2 p=1 r=0.3", lambda mc, n, s: mc.verify_theorem2(1.0, 0.3, n, seed=s)),
    ("theorem2 p=3 r=0.6", lambda mc, n, s: mc.verify_theorem2(3.0, 0.6, n, seed=s)),
    ("be r=0.65 p=1", lambda mc, n, s: mc.verify_be(0.65, 1.0, n, seed=s)),
    ("be r=1/sqrt3 p=2", lambda mc, n, s: mc.verify_be(1.0 / math.sqrt(3.0), 2.0, n, seed=s)),
)

# claims whose r lifts the truncation order to 872..4000 (the cap).  The
# cheapest comes first because slot 0 is also the untimed set-up op.
MC_HIGH_R = (
    ("theorem2 p=3 r=0.97", lambda mc, n, s: mc.verify_theorem2(3.0, 0.97, n, seed=s)),
    ("theorem1 p=1.5 r=0.99", lambda mc, n, s: mc.verify_theorem1(1.5, 0.99, n, seed=s)),
    ("theorem1 p=1.5 r=0.995", lambda mc, n, s: mc.verify_theorem1(1.5, 0.995, n, seed=s)),
    ("lemma21 R=0.99", lambda mc, n, s: mc.verify_lemma_quadratic(n, 0.99, seed=s)),
    ("be r=0.97 p=1", lambda mc, n, s: mc.verify_be(0.97, 1.0, n, seed=s)),
)


def _mc_check(trials: int):
    def check(out):
        reports = list(out) if isinstance(out, tuple) else [out]
        err = None
        for rep in reports:
            if rep.trials != trials:
                err = err or f"{rep.claim_id}: trials {rep.trials} != {trials}"
            if rep.failures:
                err = err or f"{rep.claim_id}: {rep.failures} failures on a true claim"
            if not math.isfinite(rep.worst_margin):
                err = err or f"{rep.claim_id}: worst_margin {rep.worst_margin}"
        return err, [(rep.trials, rep.failures, rep.params.get("order")) for rep in reports]

    return check


class MonteCarlo:
    def __init__(self, name: str, mix, trials: int, seed: int):
        self.name, self.mix, self.trials, self.seed = name, mix, trials, seed

    def ops(self, k: int, montecarlo) -> list[Op]:
        out = []
        for j, (label, call) in enumerate(self.mix):
            s = random.Random(f"{self.name}:{self.seed}:{k}:{j}").getrandbits(32)
            run = lambda call=call, s=s: call(montecarlo, self.trials, s)
            out.append(Op(label, run, _mc_check(self.trials)))
        return out


# ---------------------------------------------------------------------------
# scalar_cli: in-process ``bohrlab.cli.main(argv)`` with stdout captured.
# Output checks recompute closed forms here, independently of bohrlab.

def _close(got: float, want: float, tol: float, what: str):
    if not abs(got - want) <= tol:
        return f"{what}: {got!r} misses {want!r} by {abs(got - want):.3g} (tol {tol:g})"
    return None


def _envelope(a: float, p: float, r: float, weight: float = 1.0) -> float:
    return a**p + weight * r * (1.0 - a * a) ** p / (1.0 - r * a**p)


def _psym_equation(r: float, p: int, m: int) -> float:
    return -6.0 * r ** (p - m) + r ** (2 * (p - m)) + 8.0 * r ** (2 * p) + 1.0


def _json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _check_rp(p):
    def check(out):
        d = _json_line(out)
        r = d["radius"]
        e = 1.0 / (2.0 - p)
        m_p = p / (2.0**e + p**e) ** (2.0 - p)  # closed-form lower bound, m_p <= r_p
        if not m_p - 1e-9 <= r < 1.0:
            return f"rp({p}) = {r!r} outside [m_p={m_p!r}, 1)"
        # no a in [0, 1] may push the envelope above 1 at the radius
        worst = max(_envelope(i / 400.0, p, r) for i in range(401))
        if worst > 1.0 + 1e-9:
            return f"envelope reaches {worst!r} at rp({p}) = {r!r}"
        return None

    return check


def _check_radius(want: float, tol: float):
    return lambda out: _close(_json_line(out)["radius"], want, tol, "radius")


def _check_psymmetric(p: int, m: int):
    def check(out):
        r = _json_line(out)["radius"]
        if m == 0:  # (3 r^p - 1)^2: a double root, located to ~1e-10
            return _close(r, 3.0 ** (-1.0 / p), 1e-9, f"psymmetric({p},{m})")
        if m == p:  # 8 r^(2p) - 4
            return _close(r, 2.0 ** (-0.5 / p), 1e-10, f"psymmetric({p},{m})")
        if abs(_psym_equation(r, p, m)) > 1e-9:
            return f"psymmetric({p},{m}) = {r!r} leaves residual {_psym_equation(r, p, m)!r}"
        # largest root: no sign change between the radius and 1
        grid = [r + (1.0 - r) * i / 200.0 for i in range(1, 200)]
        if any(_psym_equation(x, p, m) < 0.0 for x in grid):
            return f"psymmetric({p},{m}) = {r!r} is not the largest root"
        return None

    return check


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.strip().splitlines()
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def _check_envelope(steps: int, closed):
    def check(out):
        rows = _csv_rows(out, "r,value,argmax,exact")
        if len(rows) != steps:
            return f"{len(rows)} rows, expected {steps}"
        for r, value, argmax, exact in rows:
            err = closed(float(r), float(value), float(argmax), exact)
            if err:
                return err
        return None

    return check


def _bombieri(r, value, argmax, exact):
    if exact != "true":
        return f"r={r}: exact flag {exact}"
    return _close(value, (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r, 1e-10, f"bombieri r={r}")


def _harmonic_p1(r, value, argmax, exact):
    return _close(value, (5.0 - 2.0 * math.sqrt(6.0) * math.sqrt(1.0 - r * r)) / r, 1e-10,
                  f"harmonic p=1 r={r}")


def _envelope_max(p):
    def closed(r, value, argmax, exact):
        if exact != ("true" if r <= 2.0 ** (p / 2.0 - 1.0) else "false"):
            return f"p={p} r={r}: exact flag {exact}"
        err = _close(value, _envelope(argmax, p, r), 1e-12, f"F(argmax) p={p} r={r}")
        if err:
            return err
        best = max(_envelope(i / 64.0, p, r) for i in range(65))
        if value < best - 1e-12:
            return f"p={p} r={r}: max {value!r} below grid value {best!r}"
        return None

    return closed


def _check_extremal(lower_closed, reference):
    def check(out):
        d = _json_line(out)
        return (_close(d["envelope_value"], reference, 1e-12, "envelope_value")
                or _close(d["powered_sum_lower"], lower_closed, 1e-10, "powered_sum_lower")
                or _close(d["gap"], reference - lower_closed, 1e-10, "gap"))

    return check


def _table_expected() -> dict[tuple[str, str], tuple[float, float]]:
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    e = 2.0  # 1 / (2 - p) at p = 1.5
    return {
        ("powered_radius", "p=1"): (1.0 / 3.0, 1e-10),
        ("powered_radius", "p=2"): (1.0, 0.0),
        ("lower_bound", "p=1"): (1.0 / 3.0, 1e-12),
        ("lower_bound", "p=1.5"): (1.5 / (2.0**e + 1.5**e) ** 0.5, 1e-12),
        ("exact_branch_threshold", "p=1"): (1.0 / s2, 1e-12),
        ("majorant_supremum", "p=1 r=1/3"): (1.0, 1e-12),
        ("majorant_supremum", "p=1 r=0.5"): ((3.0 - math.sqrt(6.0)) / 0.5, 1e-12),
        ("majorant_supremum", "p=1 r=1/sqrt2"): (s2, 1e-12),
        ("psymmetric_radius", "p=1 m=0"): (1.0 / 3.0, 1e-10),
        ("psymmetric_radius", "p=1 m=1"): (1.0 / s2, 1e-10),
        ("psymmetric_radius", "p=2 m=2"): (2.0**-0.25, 1e-10),
        ("psymmetric_extremal_a", "p=1 m=1"): (1.0 / s2, 1e-10),
        ("blaschke_sharpness_radius", "d=1 p=1"): (1.0 / s2, 1e-12),
        ("blaschke_sharpness_radius", "d=2 p=1"): (math.sqrt(2.0 / 3.0), 1e-12),
        ("harmonic_radius", "p=1"): (0.2, 1e-10),
        ("harmonic_threshold", "p=1"): (math.sqrt(2.0 / 3.0), 1e-12),
        ("harmonic_closed_form", "r=1/5"): (1.0, 1e-12),
        ("be_radius", ""): (1.0 / s2, 1e-12),
        ("be_harmonic_radius", "p=1"): (1.0 / math.sqrt(5.0), 1e-12),
        ("be_harmonic_radius", "p=2"): (1.0 / s3, 1e-12),
    }


def _check_table(out):
    rows = _csv_rows(out, "name,params,value")
    if len(rows) != 29:
        return f"{len(rows)} table rows, expected 29"
    got = {(name, params): float(value) for name, params, value in rows}
    for key, (want, tol) in _table_expected().items():
        if key not in got:
            return f"table row {key} missing"
        err = _close(got[key], want, tol, f"table {key}")
        if err:
            return err
    return None


def _check_theorem_b(p):
    def check(out):
        d = _json_line(out)
        if d["claim_id"] != "theoremB" or d["trials"] != 4 or d["failures"] != 0:
            return f"theoremB p={p}: {d}"
        # r = 0.999 lies beyond the exact branch for p < 1.997: closed-form bound
        r = 0.999
        want = (1.0 - r ** (2.0 / (2.0 - p))) ** (p / 2.0 - 1.0) * (1.0 - r) ** (1.0 - p / 2.0)
        return _close(d["params"]["ratio_0.999"], want, 1e-9 * want, f"theoremB p={p} ratio")

    return check


PSYMMETRIC_PAIRS = tuple((p, m) for p in (1, 2, 3) for m in range(p + 1))
ENVELOPE_STEPS = 9


def _f(x: float) -> str:
    return f"{x:.6f}"


def _cli_round(rng: random.Random) -> list[tuple[str, list[str], object]]:
    """The 15 calls of one scalar_cli round as (label, argv, check).

    Slot 0 (table) repeats identically every round; every other slot draws
    fresh parameters inside its kind's domain.
    """
    u = rng.uniform
    calls = [("table", ["table"], _check_table)]

    p = float(_f(u(1.05, 1.95)))
    calls.append(("radius rp", ["radius", "--kind", "rp", "--p", _f(p)], _check_rp(p)))

    p = float(_f(u(0.1, 1.9)))
    e = 1.0 / (2.0 - p)
    calls.append(("radius mp_lower", ["radius", "--kind", "mp_lower", "--p", _f(p)],
                  _check_radius(p / (2.0**e + p**e) ** (2.0 - p), 1e-12)))

    for _ in range(2):
        pp, m = rng.choice(PSYMMETRIC_PAIRS)
        calls.append(("radius psymmetric",
                      ["radius", "--kind", "psymmetric", "--p", str(pp), "--m", str(m)],
                      _check_psymmetric(pp, m)))

    calls.append(("radius harmonic_p1", ["radius", "--kind", "harmonic_p1"],
                  _check_radius(0.2, 1e-10)))
    calls.append(("radius be", ["radius", "--kind", "be"], _check_radius(INV_SQRT2, 1e-12)))

    p = float(_f(u(1.0, 3.0)))
    closed = 1.0 / math.sqrt(1.0 + 2.0 * max(2.0 ** (2.0 / p - 1.0), 1.0))
    calls.append(("radius be_harmonic", ["radius", "--kind", "be_harmonic", "--p", _f(p)],
                  _check_radius(closed, 1e-12)))

    # p = 1 windows inside the closed-form ranges [1/3, 1/sqrt2] and [1/5, sqrt(2/3)]
    lo = float(_f(u(0.34, 0.5)))
    hi = float(_f(u(0.55, 0.7)))
    calls.append(("envelope bombieri",
                  ["envelope", "--p", "1", "--r-start", _f(lo), "--r-end", _f(hi),
                   "--steps", str(ENVELOPE_STEPS)],
                  _check_envelope(ENVELOPE_STEPS, _bombieri)))
    lo = float(_f(u(0.21, 0.45)))
    hi = float(_f(u(0.5, 0.8)))
    calls.append(("envelope doubled",
                  ["envelope", "--p", "1", "--r-start", _f(lo), "--r-end", _f(hi),
                   "--steps", str(ENVELOPE_STEPS), "--doubled"],
                  _check_envelope(ENVELOPE_STEPS, _harmonic_p1)))
    p = float(_f(u(1.1, 1.9)))
    lo = float(_f(u(0.05, 0.45)))
    hi = float(_f(u(0.5, 0.95)))
    calls.append(("envelope p",
                  ["envelope", "--p", _f(p), "--r-start", _f(lo), "--r-end", _f(hi),
                   "--steps", str(ENVELOPE_STEPS)],
                  _check_envelope(ENVELOPE_STEPS, _envelope_max(p))))

    a, r = float(_f(u(0.05, 0.95))), float(_f(u(0.05, 0.9)))
    mobius = a + r * (1.0 - a * a) / (1.0 - r * a)  # sum |a_k| r^k of (a - z)/(1 - a z)
    calls.append(("extremal mobius",
                  ["extremal", "--family", "mobius", "--a", _f(a), "--p", "1", "--r", _f(r)],
                  _check_extremal(mobius, mobius)))
    a, r = float(_f(u(0.05, 0.95))), float(_f(u(0.05, 0.9)))
    be_sum = a * r + (1.0 - a * a) * r * r / (1.0 - a * r)  # z (a - z)/(1 - a z)
    calls.append(("extremal be", ["extremal", "--family", "be", "--a", _f(a), "--r", _f(r)],
                  _check_extremal(be_sum, r / math.sqrt(1.0 - r * r))))

    for _ in range(2):
        p = float(_f(u(0.1, 1.6)))
        calls.append(("verify theoremB",
                      ["verify", "theoremB", "--p", _f(p), "--seed", str(rng.getrandbits(16))],
                      _check_theorem_b(p)))
    return calls


def _cli_check(inner):
    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}", []
        try:
            err = inner(stdout)
            reports = []
            if stdout.startswith("{\"claim_id\""):  # verify prints one report per line
                for line in stdout.splitlines():
                    d = json.loads(line)
                    reports.append((d["trials"], d["failures"], d["params"].get("order")))
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output ({exc!r}): {stdout[:200]!r}", []
        return err, reports

    return check


class ScalarCli:
    name = "scalar_cli"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, k: int, cli) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        out = []
        for label, argv, check in _cli_round(rng):
            def run(argv=argv):
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    code = cli.main(argv)
                return code, so.getvalue(), se.getvalue()

            out.append(Op(label, run, _cli_check(check)))
        return out


WORKLOADS = ("mc_acceptance", "mc_high_r", "scalar_cli")


def make(name: str, seed: int, tiny: bool = False):
    """The workload object; ``tiny`` shrinks trial counts for the smoke test."""
    if name == "mc_acceptance":
        return MonteCarlo(name, MC_ACCEPTANCE, 10 if tiny else 1000, seed)
    if name == "mc_high_r":
        return MonteCarlo(name, MC_HIGH_R, 2 if tiny else 100, seed)
    if name == "scalar_cli":
        return ScalarCli(seed)
    raise ValueError(f"unknown workload {name!r}")
