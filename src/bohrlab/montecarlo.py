"""Seeded Monte-Carlo stress tests of the implemented inequalities.

Each claim draws deterministic unit-ball samples (per-trial seeds derived from
the run seed by a splitmix-style counter hash), measures the slack of the
claimed bound against a certified upper enclosure of the sample's sum, and
reports failures, worst margin and replay data.  Reports are deterministic
for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .eilenberg import be_bound, be_harmonic_bound, be_lp_combination_sum
from .harmonic import harmonic_bound, harmonic_threshold
from .majorant import harmonic_powered_sum, powered_sum, quadratic_sum_check
from .radii import _check_r, maximize_envelope, mp_theorem1
from .series import SchurFunction, harmonic_pair, mobius_automorphism_coeffs, schur_synthesis

SLACK_TOL = 1e-9
WITNESS_TOL = 1e-8
DEFAULT_DEPTH = 12
DEFAULT_ORDER = 64

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one seeded claim run; params carries replay diagnostics."""

    claim_id: str
    trials: int
    failures: int
    worst_margin: float
    seed: int
    params: dict = field(default_factory=dict)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(seed: int, index: int) -> int:
    """Per-trial seed: run seed xor splitmix hash of the trial counter."""
    return (int(seed) ^ _splitmix64(int(index))) & _MASK64


def sample_schur(seed: int, depth: int) -> SchurFunction:
    """Deterministic disk-uniform Schur parameters: modulus sqrt(U), uniform angle."""
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    rng = np.random.default_rng(int(seed) & _MASK64)
    mods = np.sqrt(rng.random(depth + 1))
    angles = 2.0 * np.pi * rng.random(depth + 1)
    return SchurFunction(mods * np.exp(1j * angles))


def _effective_order(order: int, r: float) -> int:
    """Raise the truncation order until the generic tail r^(N+1)/(1-r) falls
    below the slack tolerance.

    The enclosures compare their conservative side against the bound, so at
    large r a coarse order would flag tail-sized spurious failures on tight
    witnesses; the adaptive floor keeps the tail ignorable at every radius.
    """
    order = int(order)
    if r <= 0.0:
        return order
    need = math.log(0.1 * SLACK_TOL * (1.0 - r)) / math.log(r)
    return max(order, min(int(need) + 1, 4000))


def _collect_slacks(slack: Callable[[int], float], trials: int, seed: int) -> np.ndarray:
    """Slack of every trial, each evaluated on its own derived trial seed."""
    if int(trials) < 0:
        raise DomainError(f"trial count must be non-negative, got {trials}")
    return np.array([slack(trial_seed(seed, i)) for i in range(int(trials))])


def _reduce(claim_id, slacks, witness_slacks, seed, params, witness_abs_tol=None):
    """Reduction of the trial slacks and witness slacks into a report.

    Witness slacks join the failure count: dominance witnesses at SLACK_TOL,
    equality witnesses (witness_abs_tol set) on |slack|.
    """
    failures = int(np.sum(slacks < -SLACK_TOL))
    worst = float(slacks.min()) if len(slacks) else np.inf
    if len(slacks):
        worst_idx = int(np.lexsort((np.arange(len(slacks)), slacks))[0])
        params = dict(params, worst_trial=worst_idx)
        if failures:
            # regenerates the offending sample through sample_schur for replay
            params["worst_trial_seed"] = trial_seed(seed, worst_idx)
    if witness_slacks:
        warr = np.array(witness_slacks)
        if witness_abs_tol is not None:
            failures += int(np.sum(np.abs(warr) > witness_abs_tol))
            params["witness_max_abs_slack"] = float(np.abs(warr).max())
        else:
            failures += int(np.sum(warr < -SLACK_TOL))
            params["witness_min_slack"] = float(warr.min())
        worst = min(worst, float(warr.min()))
    return VerificationReport(
        claim_id=claim_id,
        trials=len(slacks),
        failures=failures,
        worst_margin=worst,
        seed=int(seed),
        params=params,
    )


# ---------------------------------------------------------------------------
# claims

def verify_theorem1(
    p: float,
    r: float,
    trials: int,
    order: int = DEFAULT_ORDER,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Dominance of the powered majorant bound over random unit-ball samples.

    The extremal automorphism family is always injected alongside the random
    trials (at the envelope argmax and a spread of parameters), since random
    sampling alone need not probe the near-extremal region.
    """
    p, r = float(p), _check_r(r)
    if not 0.0 < p <= 2.0:
        raise DomainError(f"exponent p must lie in (0, 2], got {p}")
    depth = int(depth)
    order = _effective_order(order, r)
    bound = mp_theorem1(p, r).value

    def slack(tseed: int) -> float:
        sample = schur_synthesis(sample_schur(tseed, depth), order)
        return bound - powered_sum(sample, p, r).upper

    slacks = _collect_slacks(slack, trials, int(seed))
    witness_a = [0.2, 0.5, 0.8, min(maximize_envelope(p, r).argmax, 1.0 - 1e-8)]
    witness = [
        bound - powered_sum(mobius_automorphism_coeffs(a, order), p, r).upper
        for a in witness_a
    ]
    params = {"p": p, "r": r, "depth": depth, "order": order}
    return _reduce("theorem1", slacks, witness, seed, params)


def verify_lemma_quadratic(
    trials: int,
    big_r: float,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Quadratic coefficient inequality over random samples plus equality witnesses.

    The automorphism witnesses at a in {0.2, 0.5, 0.8} attain equality, so
    their |slack| must stay below 1e-8; violations count as failures.
    """
    big_r = float(big_r)
    order, depth = int(order), int(depth)
    if big_r < 1.0:
        order = _effective_order(order, big_r)  # at R = 1 the remainder fold is exact

    def slack(tseed: int) -> float:
        check = quadratic_sum_check(schur_synthesis(sample_schur(tseed, depth), order), big_r)
        return check.rhs - check.lhs

    slacks = _collect_slacks(slack, trials, int(seed))
    witness = []
    for a in (0.2, 0.5, 0.8):
        check = quadratic_sum_check(mobius_automorphism_coeffs(a, max(order, 400)), big_r)
        witness.append(check.rhs - check.lhs)
    params = {"R": big_r, "depth": depth, "order": order}
    return _reduce("lemma21", slacks, witness, seed, params, witness_abs_tol=WITNESS_TOL)


def verify_theorem2(
    p: float,
    r: float,
    trials: int,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Dominance of the harmonic bound over random dominated-dilatation pairs."""
    p, r = float(p), _check_r(r)
    if p <= 0.0:
        raise DomainError(f"exponent p must be positive, got {p}")
    if p < 2.0 and r > harmonic_threshold(p):
        raise DomainError(
            f"r={r} exceeds the validity threshold {harmonic_threshold(p)} for p={p}"
        )
    depth = int(depth)
    order = _effective_order(order, r)
    bound = harmonic_bound(p, r).value

    def slack(tseed: int) -> float:
        pair = harmonic_pair(
            sample_schur(tseed, depth), sample_schur(_splitmix64(tseed), depth), 1.0, order
        )
        return bound - harmonic_powered_sum(pair, p, r).upper

    slacks = _collect_slacks(slack, trials, int(seed))
    witness = []
    omega_one = SchurFunction([1.0])
    if p <= 2.0:
        a_w = min(maximize_envelope(p, r, doubled=True).argmax, 1.0 - 1e-8)
        # phi_a has Schur parameters [a, -1]; omega = 1 doubles every term
        pair = harmonic_pair(SchurFunction([a_w, -1.0]), omega_one, 1.0, order)
        witness.append(bound - harmonic_powered_sum(pair, p, r).upper)
    pair_z = harmonic_pair(SchurFunction([0.0, 1.0]), omega_one, 1.0, order)
    witness.append(bound - harmonic_powered_sum(pair_z, p, r).upper)
    params = {"p": p, "r": r, "depth": depth, "order": order}
    return _reduce("theorem2", slacks, witness, seed, params)


def verify_be(
    r: float,
    p: float,
    trials: int,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> tuple[VerificationReport, VerificationReport]:
    """Dominance for the vanishing-at-0 class: analytic and harmonic claims.

    Samples are z * (Schur synthesis), contained in the class, so both the
    majorant bound (p = 1 sum) and the l^p-combination bound must dominate.
    Returns one report per claim.
    """
    r = _check_r(r)
    p = float(p)
    depth = int(depth)
    order = _effective_order(order, r)
    bound_a = be_bound(r)
    bound_h = be_harmonic_bound(p, r)

    def shifted_sample(tseed: int) -> SchurFunction:
        # a leading zero parameter synthesizes z * g
        return SchurFunction(np.concatenate(([0.0], sample_schur(tseed, depth).params)))

    def slack_a(tseed: int) -> float:
        return bound_a - powered_sum(schur_synthesis(shifted_sample(tseed), order), 1.0, r).upper

    def slack_h(tseed: int) -> float:
        pair = harmonic_pair(
            shifted_sample(tseed), sample_schur(_splitmix64(tseed), depth), 1.0, order
        )
        return bound_h - be_lp_combination_sum(pair, p, r).upper

    slacks_a = _collect_slacks(slack_a, trials, int(seed))
    sums_a = bound_a - slacks_a
    # the extremal z(a-z)/(1-az) at a = 1/sqrt(2) attains the bound at the radius
    ext = SchurFunction([0.0, 1.0 / np.sqrt(2.0), -1.0])
    witness_a = [bound_a - powered_sum(schur_synthesis(ext, order), 1.0, r).upper]
    max_sum = float(sums_a.max()) if len(sums_a) else 0.0
    params_a = {"r": r, "depth": depth, "order": order, "max_sum": max_sum}
    report_a = _reduce("be_analytic", slacks_a, witness_a, seed, params_a)

    # distinct deterministic stream for the harmonic half
    slacks_h = _collect_slacks(slack_h, trials, trial_seed(seed, 0x5EED))
    pair_w = harmonic_pair(ext, SchurFunction([1.0]), 1.0, order)
    witness_h = [bound_h - be_lp_combination_sum(pair_w, p, r).upper]
    params_h = {"p": p, "r": r, "depth": depth, "order": order}
    report_h = _reduce("be_harmonic", slacks_h, witness_h, seed, params_h)
    return report_a, report_h


_RATIO_GRID = (0.5, 0.9, 0.99, 0.999)
_RATIO_BOUNDS = (0.1, 10.0)


def verify_theoremB_ratio(p: float, seed: int = 0) -> VerificationReport:
    """Two-sided comparability: M_p(r) (1-r)^(1-p/2) stays inside [0.1, 10]."""
    p = float(p)
    if not 0.0 < p < 2.0:
        raise DomainError(f"exponent p must lie in (0, 2), got {p}")
    lo, hi = _RATIO_BOUNDS
    ratios = {}
    margins = []
    for r in _RATIO_GRID:
        ratio = mp_theorem1(p, r).value * (1.0 - r) ** (1.0 - p / 2.0)
        ratios[f"ratio_{r}"] = ratio
        margins.append(min(ratio - lo, hi - ratio))
    failures = sum(1 for m in margins if m < 0.0)
    params = {"p": p, **ratios}
    return VerificationReport(
        claim_id="theoremB",
        trials=len(_RATIO_GRID),
        failures=failures,
        worst_margin=float(min(margins)),
        seed=int(seed),
        params=params,
    )
