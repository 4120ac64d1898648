"""Seeded Monte-Carlo stress tests of the implemented inequalities.

Each claim draws deterministic unit-ball samples (trial i of a run is words
of a splitmix64 counter stream keyed by the run seed, see _sample_rows),
measures the slack of the claimed bound against a certified upper enclosure
of the sample's sum, and reports failures, worst margin and the worst trial.
Reports are deterministic for a given seed.

What does not depend on the seed is one record per claim (_Claim), built once
per claim key and kept in its builder's lru_cache: the claim's id, its trial
streams with their leading zero parameters, the bound, the slack and the
witnesses' slacks at the full order.  Only a process that verifies a claim
again gains from it; the first call does the same work as building the record
inline.  One runner, _run, turns a record and a seed into a report; as the
record names its streams, a report's seed, worst_trial, depth and order
replay its worst trial through the record alone: be's row i, for one, is
_sample_rows(seed, stream, [i], depth, lead=1), z times a unit-ball sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    _check_big_r,
    _check_count,
    _check_p,
    _check_p_from_one,
    _check_positive_p,
    _check_r,
    _check_seed,
)
from .eilenberg import be_bound, be_harmonic_bound
from .harmonic import harmonic_bound, harmonic_threshold
from .majorant import _harmonic_rows, _lp_combination_rows, _powered_rows, _quadratic_rows
from .radii import maximize_envelope, mp_theorem1
from .series import (
    SchurFunction,
    _coanalytic_rows,
    _synthesize_params,
    mobius_automorphism_coeffs,
    schur_synthesis_rows,
)

SLACK_TOL = 1e-9
WITNESS_TOL = 1e-8
DEFAULT_DEPTH = 12
DEFAULT_ORDER = 64

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment, the golden ratio in 64 bits


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one seeded claim run; params carries replay diagnostics."""

    claim_id: str
    trials: int
    failures: int
    worst_margin: float
    seed: int
    params: dict = field(default_factory=dict)


def _splitmix64(x):
    """splitmix64 hash of an int, or of each entry of a uint64 array."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_schur(seed: int, index: int, depth: int) -> SchurFunction:
    """Trial index of run seed: depth + 1 disk-uniform Schur parameters,
    modulus sqrt(U) and uniform angle.

    It is the one-row case of _sample_rows on stream 0 without a lead, so it
    replays trial index of theorem1's and lemma21's reports of that seed and
    depth.  Each claim's record names its streams (_Claim.streams); be's row,
    for one, is _sample_rows(seed, stream, [index], depth, lead=1).  The index
    counts mod 2^64, as the stream's counters do.
    """
    index, depth = _check_count(index, "index"), _check_count(depth, "depth")
    return SchurFunction(_sample_rows(_check_seed(seed), 0, [index & _MASK64], depth)[0])


def _disk_params(u: np.ndarray) -> np.ndarray:
    """Parameters sqrt(U) exp(2 pi i V) from uniforms [U | V] along the last axis."""
    half = u.shape[-1] // 2
    return np.sqrt(u[..., :half]) * np.exp(1j * (2.0 * np.pi * u[..., half:]))


def _sample_rows(
    seed: int,
    stream: int,
    trials,
    depth: int,
    *,
    width: int | None = None,
    lead: int = 0,
) -> np.ndarray:
    """Schur parameters of the trials numbered in an array (each below 2^64)
    of a stream: (len(trials), depth + 1).

    Word k of the stream is the splitmix64 output _splitmix64(base + k gamma)
    mod 2^64 (Steele, Lea & Flood, OOPSLA 2014), with base a hash of the seed
    and the stream number; each claim's record names the streams it draws
    (_Claim.streams).  Trial i takes words [2(d+1) i, 2(d+1)(i+1)),
    depth + 1 moduli then depth + 1 angles, each word a uniform
    (x >> 11) 2^-53.  A word depends on its counter alone, so a row does not
    depend on the block it is drawn in, and (seed, stream, trial, depth)
    replays it.  width draws only the first width parameters of each row
    (all depth + 1 by default); each entry keeps its bits.
    lead puts that many zero parameters ahead of each row, counted in width:
    a leading zero synthesizes z times the sample.
    """
    n = 2 * (depth + 1)
    width = depth + 1 if width is None else min(width - lead, depth + 1)
    base = _splitmix64(_splitmix64(seed & _MASK64) ^ stream)
    trials = np.asarray(trials, dtype=np.uint64)
    words = np.r_[0:width, depth + 1 : depth + 1 + width].astype(np.uint64)  # moduli, angles
    counters = np.uint64(base) + (trials[:, None] * np.uint64(n) + words) * np.uint64(_GAMMA)
    params = _disk_params((_splitmix64(counters) >> np.uint64(11)).astype(float) * 2.0**-53)
    return np.concatenate((np.zeros((len(params), lead)), params), axis=1) if lead else params


def _order_and_depth(
    order: int, depth: int, r: float, tail_factor: float = 1.0
) -> tuple[int, int, int]:
    """Validated first order, full order N* and sampling depth.

    N* is the order every reported number is computed at: the requested order,
    raised until the claim's tail tail_factor * r^(N+1)/(1-r) falls below a
    tenth of the slack tolerance, up to 4000.  The enclosures compare their
    conservative side against the bound, so at large r a coarse order would
    flag tail-sized spurious failures on tight witnesses; the adaptive floor
    keeps the tail ignorable at every radius.  tail_factor is the multiple of
    the generic tail that the claim's enclosure adds: 2 for the harmonic sum
    (both parts), 2^(1/p) for the l^p combination.  Random trials are scored
    on a ladder of orders up to N*, screened first at lower orders where
    that pays (see _collect_slacks).
    """
    order, depth = _check_count(order, "order"), _check_count(depth, "depth")
    if not 0.0 < r < 1.0:
        return order, order, depth
    need = math.log(0.1 * SLACK_TOL * (1.0 - r) / tail_factor) / math.log(r)
    return order, max(order, min(int(need) + 1, 4000)), depth


def _dominance(bound: float, enclose: Callable, r: float, full: int) -> Callable:
    """Slack (lo, hi) of a dominance claim for each row of a block at order
    N <= full: bound minus the upper and the lower side of the enclosure.  The
    upper side takes the ladder's settle tail min(t, T + t r^(full - N)) (see
    _collect_slacks) from the enclosure's geometric and Hölder tails t and T,
    and min(t, T) at N = full: both bound the whole tail past N."""

    def slack(*rows: np.ndarray):
        lower, tail, holder = enclose(*rows)
        n = rows[0].shape[1] - 1
        tail = np.minimum(tail, holder + tail * r ** (full - n) if n < full else holder)
        return bound - (lower + tail), bound - lower

    return slack


def _harmonic(enclose: Callable) -> Callable:
    """An enclosure of (h, g) rows as a function of the rows of h and omega."""
    return lambda a, w: enclose(a, _coanalytic_rows(a, w))


# Most coefficients, rows x (order + 1), synthesized in one block of trials;
# each block draws its own parameters.  Larger blocks spread the division's
# per-step numpy overhead over more rows but hold more memory at once (peak
# RSS bounds the budget).  High orders get their speed from the division's k
# outputs a step (series._BLOCK_OUTPUTS), not from the block size.
_BLOCK_COEFFS = 1 << 14
# glibc gives the free top of its heap back to the system once it passes twice
# the largest mmapped chunk freed so far, and a block frees 1-2 MiB at its end,
# so each block would fault its pages in again (120-800 a report at 1,000 trials).
# Freeing one chunk of four blocks' coefficients (1 MiB) lifts that bar to 2 MiB.
np.empty(4 * _BLOCK_COEFFS, dtype=complex)
# The orders of the screen's stages in _collect_slacks, and the fewest unsettled
# rows of a loop a stage scores (for order 16 alone, 100 gained nothing and 150
# did).  Share of the rows a stage scores that it settles, at 1,000 trials,
# seeds 1-5 and N* = 64 or 241, with U as the loop finds it:
#   theorem1 (1, 0.5)  0.98-0.99 at 4      theorem2 (1, 0.3), (3, 0.6)  1.00 at 4
#   theorem1 (1.5, 0.9)  0.25-0.29 at 4, then 0.98-1.00 of the rest at 16
#   be (0.65, 1)  analytic 0.77-0.80 at 4, then 0.99 at 16; harmonic 0.88-0.93 at 4
#   be (1/sqrt 3, 2)  0.88-0.98 at 4
# The timings were measured when each draw of ~500 trials was screened alone:
# a round of those claims took 0.64-0.67x the time of order 16 alone; order 4
# alone left theorem1 (1.5, 0.9) 1.4x slower, (3, 16) and (2, 16) cost 1.07x
# and 1.23x as much as (4, 16), mostly on be, and (6, 16) and (4, 8, 16) came
# within 5% of it.
_SCREEN_ORDERS, _SCREEN_ROWS = (4, 16), 128


def _collect_slacks(
    slack: Callable, streams: tuple, trials: int, first: int, full: int, r: float
) -> np.ndarray:
    """Slack of every trial's sample, in trial order.

    Each stream maps trial numbers to one (rows, length) array of Schur
    parameters, as draw(numbers, width=w) of _sample_rows: one stream for a
    unit-ball series, two (h, omega) for a harmonic pair.
    The loop scores arrays of trial numbers: all of them first, then the rows
    each step leaves.  score(index, order) cuts its rows into blocks of at
    most _BLOCK_COEFFS coefficients; each block draws the parameters of its
    own rows, so no draw outlives its block, synthesizes each stream in one
    call, and slack maps the coefficients to each row's [lo, hi]: bound minus
    the upper and the lower side of its enclosure.

    Where 0 < r < 1 (at R = 1 lemma21's fold is exact, so no rung settles a
    row), the loop is screened first, by a stage at each order N of
    _SCREEN_ORDERS below first in turn, while _SCREEN_ROWS or more of the
    loop's rows are unsettled.  A stage draws and synthesizes only the first
    N + 1 parameters of those rows: a_0..a_N depend on them alone, so it
    scores rung N up to rounding far below SLACK_TOL.  The rows the stages
    leave go up the ladder, drawn in full so that each rung keeps the bits of
    a full draw: to order first, then if need be to 2 first, 4 first, ...
    below full, and to full.  A stage or rung N below full scores rows with
    _dominance's settle tail min(t_N, T_N + t_N r^(full - N)): t_N is the
    enclosure's geometric tail, and T_N its Parseval-Hölder bound on the terms
    past N from the row's coefficients, two to four decades below t_N at the
    low rungs.  The terms N < k <= full sum to at most T_N, and t_N
    r^(full - N) is the geometric tail at full, so either way lower + tail at
    N bounds lower + t at full, hence the upper side at full, and lo bounds
    the full-order slack from below.  With U the least hi so far, which
    bounds the least full-order slack from above, a row whose lo exceeds
    max(U, -SLACK_TOL) + SLACK_TOL is settled: it can neither fail nor be
    the worst trial.  Its entry is lo.  U only falls, so this holds whenever
    the row is scored, and the order in which rows are scored cannot move a
    report.  After rung first, every other row is rescored at the least rung
    whose tail, shrunk like r^(N - first), comes within half its margin, and
    at full if it is still unsettled there.
    So every failing row and every row that could be the least is scored at
    full, and, as a row's result does not depend on its block, the counts, the
    least slack and its index come out as if every row had been scored at
    full.  At full the tail is min(t, T), as flat scoring at full reads it.
    Near r = 1 that matters: at the order cap 4,000 and r = 0.999, t is
    4.7-9.2 in the median on theorem1's samples, far above their true tails,
    while T shrinks with the row's remaining mass 1 - sum_{k<=N} |a_k|^2.
    """
    trials = _check_count(trials, "trials")
    rungs = [first]
    while 2 * rungs[-1] < full:
        rungs.append(max(2 * rungs[-1], 1))  # 0 would double to 0
    if full > first:
        rungs.append(full)
    slacks = np.empty(trials)
    least_hi = np.inf

    def score(index: np.ndarray, order: int) -> tuple:
        """Score rows index at order and enter the lo of those it settles (of
        all of them at full); return the others with their tails and margins."""
        nonlocal least_hi
        if not len(index):  # a rung no row was sent to
            return index, index, index
        width = order + 1 if order < first else None
        step = max(1, _BLOCK_COEFFS // (len(streams) * (order + 1)))
        lo, hi = np.empty(len(index)), np.empty(len(index))
        for start in range(0, len(index), step):
            block = slice(start, start + step)
            params = (draw(index[block], width=width) for draw in streams)
            lo[block], hi[block] = slack(*(_synthesize_params(g, order) for g in params))
        least_hi = min(least_hi, hi.min())
        threshold = max(least_hi, -SLACK_TOL) + SLACK_TOL
        settled = (lo > threshold) | (order == full)
        slacks[index[settled]] = lo[settled]
        rest = ~settled
        return index[rest], (hi - lo)[rest], 0.5 * (hi - threshold)[rest]

    index = np.arange(trials)
    for order in _SCREEN_ORDERS if 0.0 < r < 1.0 else ():
        if order < first and len(index) >= _SCREEN_ROWS:
            index = score(index, order)[0]
    index, tails, margins = score(index, first)
    if full > first:
        target = _next_rungs(tails, margins, r, rungs)
        climbed = [score(index[target == n], order)[0] for n, order in enumerate(rungs[1:-1], 1)]
        score(np.concatenate([index[target == len(rungs) - 1], *climbed]), full)
    return slacks


def _next_rungs(tails: np.ndarray, margins: np.ndarray, r: float, rungs: list) -> np.ndarray:
    """For each row, the index of the least rung above the first at which its
    tail, shrunk to tails r^(N - rungs[0]), is within its margin; the last
    rung where none is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(margins / tails) / math.log(r)
    need = np.where(margins > 0.0, rungs[0] + np.maximum(steps, 1.0), np.inf)
    return np.minimum(np.searchsorted(rungs[:-1], need), len(rungs) - 1)


@dataclass(frozen=True)
class _Claim:
    """What a claim's reports share whatever the seed: the id they carry, the
    trial streams, one (stream, lead) pair per argument of the slack, drawn by
    _sample_rows with lead leading zero parameters, the bound (None for
    lemma21, whose right side is each row's own), the slack of a block of rows
    at orders up to N* (see _dominance), the witnesses' slacks at N*, read-only,
    and the tolerance on |slack| of equality witnesses (None for dominance
    witnesses, which count as failures below -SLACK_TOL)."""

    claim_id: str
    streams: tuple
    bound: float | None
    slack: Callable
    witness_slacks: np.ndarray
    witness_abs_tol: float | None = None


def _claim(claim_id, streams, bound, slack, witness_rows: tuple, witness_abs_tol=None) -> _Claim:
    """The record of a claim, its witnesses scored by slack at N*."""
    witness = slack(*witness_rows)[0]
    witness.setflags(write=False)
    return _Claim(claim_id, streams, bound, slack, witness, witness_abs_tol)


def _run(claim: _Claim, head: dict, r: float, seed: int, trials: int, ladder: tuple, sums=False):
    """A claim's report at seed: its trials, drawn on the record's streams and
    scored on the ladder (first, N*, depth) of _order_and_depth at radius r,
    reduced with the record's witness slacks.  params holds head, depth, order,
    with sums max_sum (the largest trial sum, bound - slack), worst_trial and
    the witnesses' nearest slack.  Witness slacks join the failure count:
    dominance witnesses at SLACK_TOL, equality witnesses (the claim's
    witness_abs_tol set) on |slack|."""
    first, order, depth = ladder
    streams = [functools.partial(_sample_rows, seed, n, depth=depth, lead=k) for n, k in claim.streams]
    slacks = _collect_slacks(claim.slack, streams, trials, first, order, r)
    params = {**head, "depth": depth, "order": order}
    if sums:
        params["max_sum"] = float((claim.bound - slacks).max()) if len(slacks) else 0.0
    failures = int(np.sum(slacks < -SLACK_TOL))
    worst = float(slacks.min()) if len(slacks) else np.inf
    if len(slacks):
        params["worst_trial"] = int(np.argmin(slacks))
    warr = claim.witness_slacks
    if len(warr):
        if claim.witness_abs_tol is not None:
            failures += int(np.sum(np.abs(warr) > claim.witness_abs_tol))
            params["witness_max_abs_slack"] = float(np.abs(warr).max())
        else:
            failures += int(np.sum(warr < -SLACK_TOL))
            params["witness_min_slack"] = float(warr.min())
        worst = min(worst, float(warr.min()))
    return VerificationReport(
        claim_id=claim.claim_id,
        trials=len(slacks),
        failures=failures,
        worst_margin=worst,
        seed=seed,
        params=params,
    )


# Records each builder keeps, keyed on the claim key (validated parameters and
# N*): more than the seven claims of one benchmark mix, and bounded so that a
# sweep over many radii cannot grow memory.
_CLAIMS_KEPT = 8


# ---------------------------------------------------------------------------
# claims

@functools.lru_cache(maxsize=_CLAIMS_KEPT)
def _theorem1_claim(p: float, r: float, full: int) -> _Claim:
    """Theorem 1's record: the extremal automorphisms at the envelope argmax
    and a spread of parameters are its witnesses."""
    bound = mp_theorem1(p, r).value
    slack = _dominance(bound, functools.partial(_powered_rows, p=p, r=r), r, full)
    witness_a = [0.2, 0.5, 0.8, min(maximize_envelope(p, r).argmax, 1.0 - 1e-8)]
    witness_rows = np.array([mobius_automorphism_coeffs(a, full).coeffs for a in witness_a])
    return _claim("theorem1", ((0, 0),), bound, slack, (witness_rows,))


def verify_theorem1(
    p: float,
    r: float,
    trials: int,
    *,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Dominance of the powered majorant bound over random unit-ball samples.

    The extremal automorphism family is always injected alongside the random
    trials (at the envelope argmax and a spread of parameters), since random
    sampling alone need not probe the near-extremal region.
    """
    r, p, seed = _check_r(r), _check_p(p), _check_seed(seed)
    ladder = _order_and_depth(order, depth, r)
    return _run(_theorem1_claim(p, r, ladder[1]), {"p": p, "r": r}, r, seed, trials, ladder)


@functools.lru_cache(maxsize=_CLAIMS_KEPT)
def _lemma21_claim(big_r: float, full: int) -> _Claim:
    """Lemma 2.1's record: the automorphisms at a in {0.2, 0.5, 0.8} attain
    equality, so they are its witnesses, at order 400 or more."""

    def slack(c: np.ndarray):
        # the tail's Parseval remainder already bounds every higher order's
        # terms, so the ladder's rungs need no other tail
        partial, tail, rhs = _quadratic_rows(c, big_r)
        return rhs - (partial + tail), rhs - partial

    automorphisms = [mobius_automorphism_coeffs(a, max(full, 400)).coeffs for a in (0.2, 0.5, 0.8)]
    return _claim("lemma21", ((0, 0),), None, slack, (np.array(automorphisms),), WITNESS_TOL)


def verify_lemma_quadratic(
    trials: int,
    big_r: float,
    *,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Quadratic coefficient inequality over random samples plus equality witnesses.

    The automorphism witnesses at a in {0.2, 0.5, 0.8} attain equality, so
    their |slack| must stay below 1e-8; violations count as failures.  At
    R = 1 the order is not raised: the Parseval remainder fold is exact there,
    so every slack is 0 up to rounding (within 6e-16) and worst_trial is a
    rounding tie-break: another summation order in the synthesis moves it in
    5 of 6 reports at seeds {1, 2, 7} and 100 or 1,000 trials.
    """
    big_r, seed = _check_big_r(big_r), _check_seed(seed)
    ladder = _order_and_depth(order, depth, big_r)
    return _run(_lemma21_claim(big_r, ladder[1]), {"R": big_r}, big_r, seed, trials, ladder)


@functools.lru_cache(maxsize=_CLAIMS_KEPT)
def _theorem2_claim(p: float, r: float, full: int) -> _Claim:
    """Theorem 2's record, for r within the bound's validity threshold (a
    DomainError otherwise, raised again on every call: the cache keeps no
    exception).  Its witnesses are pairs (h, omega = 1): h = z, and for
    p <= 2 the automorphism at the doubled envelope's argmax."""
    bound = harmonic_bound(p, r)
    if not bound.valid:
        raise DomainError(
            f"r={r} exceeds the validity threshold {harmonic_threshold(p)} for p={p}"
        )
    slack = _dominance(bound.value, _harmonic(functools.partial(_harmonic_rows, p=p, r=r)), r, full)
    h_witnesses = [SchurFunction([0.0, 1.0])]
    if p <= 2.0:
        # phi_a has Schur parameters [a, -1]; omega = 1 doubles every term
        a_w = min(maximize_envelope(p, r, doubled=True).argmax, 1.0 - 1e-8)
        h_witnesses.append(SchurFunction([a_w, -1.0]))
    # omega = 1 synthesizes to the row e_0 at every order
    omegas = np.eye(1, full + 1, dtype=complex).repeat(len(h_witnesses), axis=0)
    witness_rows = (schur_synthesis_rows(h_witnesses, full), omegas)
    return _claim("theorem2", ((0, 0), (1, 0)), bound.value, slack, witness_rows)


def verify_theorem2(
    p: float,
    r: float,
    trials: int,
    *,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> VerificationReport:
    """Dominance of the harmonic bound over random dominated-dilatation pairs."""
    r, p, seed = _check_r(r), _check_positive_p(p), _check_seed(seed)
    ladder = _order_and_depth(order, depth, r, tail_factor=2.0)
    return _run(_theorem2_claim(p, r, ladder[1]), {"p": p, "r": r}, r, seed, trials, ladder)


@functools.lru_cache(maxsize=_CLAIMS_KEPT)
def _be_claims(r: float, p: float, full: int) -> tuple[_Claim, _Claim]:
    """The records of be's analytic and harmonic halves: the extremal
    z(a-z)/(1-az) at a = 1/sqrt(2), which attains the bound at the radius, is
    the witness of both (with omega = 1 in the harmonic half)."""
    bound_a, bound_h = be_bound(r), be_harmonic_bound(p, r)
    slack_a = _dominance(bound_a, functools.partial(_powered_rows, p=1.0, r=r), r, full)
    enclose_h = _harmonic(functools.partial(_lp_combination_rows, p=p, r=r))
    slack_h = _dominance(bound_h, enclose_h, r, full)
    ext_rows = schur_synthesis_rows([SchurFunction([0.0, 1.0 / np.sqrt(2.0), -1.0])], full)
    omega = np.eye(1, full + 1, dtype=complex)  # omega = 1
    analytic = _claim("be_analytic", ((0, 1),), bound_a, slack_a, (ext_rows,))
    return analytic, _claim("be_harmonic", ((2, 1), (3, 0)), bound_h, slack_h, (ext_rows, omega))


def verify_be(
    r: float,
    p: float,
    trials: int,
    *,
    seed: int = 0,
    order: int = DEFAULT_ORDER,
    depth: int = DEFAULT_DEPTH,
) -> tuple[VerificationReport, VerificationReport]:
    """Dominance for the vanishing-at-0 class: analytic and harmonic claims.

    Samples are z * (Schur synthesis), contained in the class, so both the
    majorant bound (p = 1 sum) and the l^p-combination bound must dominate.
    Returns one report per claim.
    """
    r, p, seed = _check_r(r), _check_p_from_one(p), _check_seed(seed)
    # the halves share one order, sized for the larger tail
    ladder = _order_and_depth(order, depth, r, tail_factor=2.0 ** (1.0 / p))
    analytic, harmonic = _be_claims(r, p, ladder[1])
    report_a = _run(analytic, {"r": r}, r, seed, trials, ladder, sums=True)
    return report_a, _run(harmonic, {"p": p, "r": r}, r, seed, trials, ladder)


_RATIO_GRID = (0.5, 0.9, 0.99, 0.999)
_RATIO_BOUNDS = (0.1, 10.0)


def verify_theoremB_ratio(p: float, *, seed: int = 0) -> VerificationReport:
    """Two-sided comparability: M_p(r) (1-r)^(1-p/2) stays inside [0.1, 10]."""
    p, seed = _check_p(p, allow_two=False), _check_seed(seed)
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
        seed=seed,
        params=params,
    )
