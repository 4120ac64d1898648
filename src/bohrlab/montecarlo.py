"""Seeded Monte-Carlo stress tests of the implemented inequalities.

Each claim draws deterministic unit-ball samples (per-trial seeds derived from
the run seed by a splitmix-style counter hash), measures the slack of the
claimed bound against a certified upper enclosure of the sample's sum, and
reports failures, worst margin and replay data.  Reports are deterministic
for a given seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError
from .eilenberg import be_bound, be_harmonic_bound, be_lp_combination_sum
from .harmonic import harmonic_bound, harmonic_threshold
from .majorant import harmonic_powered_sum, powered_sum, quadratic_sum_check
from .radii import _check_r, maximize_envelope, mp_theorem1
from .series import (
    CoefficientSeries,
    SchurFunction,
    _harmonic_pair_rows,
    harmonic_pair,
    mobius_automorphism_coeffs,
    schur_synthesis,
    schur_synthesis_rows,
)

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


def _order_and_depth(order: int, depth: int, r: float) -> tuple[int, int]:
    """Validated truncation order and sampling depth, the order raised until the
    generic tail r^(N+1)/(1-r) falls below the slack tolerance.

    The enclosures compare their conservative side against the bound, so at
    large r a coarse order would flag tail-sized spurious failures on tight
    witnesses; the adaptive floor keeps the tail ignorable at every radius.
    """
    order, depth = int(order), int(depth)
    if order < 0 or depth < 0:
        raise DomainError(f"order and depth must be non-negative, got {order} and {depth}")
    if not 0.0 < r < 1.0:
        return order, depth
    need = math.log(0.1 * SLACK_TOL * (1.0 - r)) / math.log(r)
    return max(order, min(int(need) + 1, 4000)), depth


def _dominance(bound: float, enclose: Callable) -> Callable[[object], float]:
    """Slack of a dominance claim: bound minus the certified upper enclosure."""
    return lambda x: bound - enclose(x).upper


# Most coefficients, rows x (order + 1), synthesized in one block of trials.
# Larger blocks spread the division's per-step numpy overhead over more rows
# but hold more memory at once (peak RSS bounds the budget).  High orders get
# their speed from the division's k outputs a step (series._BLOCK_OUTPUTS),
# not from the block size.
_BLOCK_COEFFS = 1 << 14


def _samples(draw: Callable, trials: int, seed: int, order: int) -> Iterator[object]:
    """Every trial's sample in trial order, drawn from its own derived trial seed.

    draw(tseed) gives the trial's Schur functions: (f,) for a unit-ball series,
    (h, omega) for a harmonic pair.  The rows of a block of trials are
    synthesized in one call; samples are yielded one at a time.
    """
    start = 0
    while start < trials:
        first = draw(trial_seed(seed, start))
        width = len(first)
        stop = min(trials, start + max(1, _BLOCK_COEFFS // (width * (order + 1))))
        rest = (s for i in range(start + 1, stop) for s in draw(trial_seed(seed, i)))
        rows = schur_synthesis_rows(itertools.chain(first, rest), order)
        for trial_rows in rows.reshape(stop - start, width, order + 1):
            if width == 1:
                yield CoefficientSeries(trial_rows[0], certified=True)
            else:
                yield _harmonic_pair_rows(*trial_rows)
        start = stop


def _collect_slacks(
    slack: Callable, draw: Callable, trials: int, seed: int, order: int
) -> np.ndarray:
    """Slack of every trial's sample (see _samples)."""
    trials = int(trials)
    if trials < 0:
        raise DomainError(f"trial count must be non-negative, got {trials}")
    return np.fromiter(map(slack, _samples(draw, trials, seed, order)), float, count=trials)


def _reduce(claim_id, slacks, witness_slacks, seed, params, witness_abs_tol=None):
    """Reduction of the trial slacks and witness slacks into a report.

    Witness slacks join the failure count: dominance witnesses at SLACK_TOL,
    equality witnesses (witness_abs_tol set) on |slack|.
    """
    failures = int(np.sum(slacks < -SLACK_TOL))
    worst = float(slacks.min()) if len(slacks) else np.inf
    if len(slacks):
        worst_idx = int(np.argmin(slacks))
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
    order, depth = _order_and_depth(order, depth, r)
    slack = _dominance(mp_theorem1(p, r).value, lambda c: powered_sum(c, p, r))
    draw = lambda tseed: (sample_schur(tseed, depth),)
    slacks = _collect_slacks(slack, draw, trials, int(seed), order)
    witness_a = [0.2, 0.5, 0.8, min(maximize_envelope(p, r).argmax, 1.0 - 1e-8)]
    witness = [slack(mobius_automorphism_coeffs(a, order)) for a in witness_a]
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
    their |slack| must stay below 1e-8; violations count as failures.  At
    R = 1 the order is not raised: the Parseval remainder fold is exact there.
    """
    big_r = float(big_r)
    order, depth = _order_and_depth(order, depth, big_r)

    def slack(c) -> float:
        check = quadratic_sum_check(c, big_r)
        return check.rhs - check.lhs

    draw = lambda tseed: (sample_schur(tseed, depth),)
    slacks = _collect_slacks(slack, draw, trials, int(seed), order)
    witness = [slack(mobius_automorphism_coeffs(a, max(order, 400))) for a in (0.2, 0.5, 0.8)]
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
    order, depth = _order_and_depth(order, depth, r)
    slack = _dominance(harmonic_bound(p, r).value, lambda pair: harmonic_powered_sum(pair, p, r))
    draw = lambda tseed: (sample_schur(tseed, depth), sample_schur(_splitmix64(tseed), depth))
    slacks = _collect_slacks(slack, draw, trials, int(seed), order)
    h_witnesses = [SchurFunction([0.0, 1.0])]
    if p <= 2.0:
        # phi_a has Schur parameters [a, -1]; omega = 1 doubles every term
        a_w = min(maximize_envelope(p, r, doubled=True).argmax, 1.0 - 1e-8)
        h_witnesses.append(SchurFunction([a_w, -1.0]))
    witness = [slack(harmonic_pair(h, SchurFunction([1.0]), order)) for h in h_witnesses]
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
    order, depth = _order_and_depth(order, depth, r)
    bound_a = be_bound(r)
    slack_a = _dominance(bound_a, lambda c: powered_sum(c, 1.0, r))
    slack_h = _dominance(be_harmonic_bound(p, r), lambda pair: be_lp_combination_sum(pair, p, r))

    def shifted_sample(tseed: int) -> SchurFunction:
        # a leading zero parameter synthesizes z * g
        return SchurFunction(np.concatenate(([0.0], sample_schur(tseed, depth).params)))

    draw_a = lambda tseed: (shifted_sample(tseed),)
    draw_h = lambda tseed: (shifted_sample(tseed), sample_schur(_splitmix64(tseed), depth))
    slacks_a = _collect_slacks(slack_a, draw_a, trials, int(seed), order)
    sums_a = bound_a - slacks_a
    # the extremal z(a-z)/(1-az) at a = 1/sqrt(2) attains the bound at the radius
    ext = SchurFunction([0.0, 1.0 / np.sqrt(2.0), -1.0])
    witness_a = [slack_a(schur_synthesis(ext, order))]
    max_sum = float(sums_a.max()) if len(sums_a) else 0.0
    params_a = {"r": r, "depth": depth, "order": order, "max_sum": max_sum}
    report_a = _reduce("be_analytic", slacks_a, witness_a, seed, params_a)

    # distinct deterministic stream for the harmonic half
    slacks_h = _collect_slacks(slack_h, draw_h, trials, trial_seed(seed, 0x5EED), order)
    witness_h = [slack_h(harmonic_pair(ext, SchurFunction([1.0]), order))]
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
