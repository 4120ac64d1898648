"""Certified enclosures of powered coefficient sums, as row-wise forms over
blocks of coefficient rows: the powered, harmonic and l^p-combination sums,
and the quadratic coefficient inequality.

Every enclosure is an interval [truncated, truncated + tail]: inequality
checks downstream always compare the conservative side.  The row forms of the
sums also give a Parseval-Hölder tail T_N of unit-ball rows beside the
geometric tail t_N; montecarlo's order ladder combines the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_positive_p, _check_r
from .series import CoefficientSeries


@dataclass(frozen=True)
class CertifiedSum:
    """Interval enclosure [lower, upper] of an infinite powered coefficient
    sum: lower is the truncated sum, and tail_bound bounds the terms past the
    truncation order, so upper = lower + tail_bound."""

    lower: float
    tail_bound: float

    @property
    def upper(self) -> float:
        return self.lower + self.tail_bound


def powered_sum(c: CoefficientSeries, p: float, r: float) -> CertifiedSum:
    """Certified enclosure of sum_{k>=0} |a_k|^p r^k."""
    p, r = _check_positive_p(p), _check_r(r)
    lower, tail, _ = _powered_rows(c.coeffs[None], p, r, c.certified)
    return CertifiedSum(float(lower[0]), float(tail[0]))


# Row-wise forms of the enclosures, and of the quadratic inequality, for a
# (rows, N + 1) block of coefficient rows: each returns one array entry per
# row, and a row's entry does not depend on the other rows of its block.
# powered_sum is the one-row case of _powered_rows.  The row sums go through
# np.vecdot, which reduces each row with the same kernel as np.dot on that
# row; matmul sums in another order.  Terms formed from a_0 go through
# np.hypot and np.float_power, which call libm's hypot and pow as CPython's abs
# and ** do; np.abs and np.power may take SIMD loops that differ in the last bit.

def _heads(c: np.ndarray) -> np.ndarray:
    """|a_0| of each row, as CPython's complex abs gives it."""
    return np.hypot(c[:, 0].real, c[:, 0].imag)


def _geometric_tails(c: np.ndarray, p: float, r: float, certified: bool = True) -> np.ndarray:
    """Tail bound for sum_{k > N} |a_k|^p r^k of each row.

    Certified series obey |a_k| <= 1 - |a_0|^2 for k >= 1, giving
    (1 - |a_0|^2)^p r^(N+1)/(1-r), with |a_0| capped at 1 (a snapped
    unimodular Schur parameter can leave it one ulp above); otherwise the
    generic |a_k| <= 1 envelope r^(N+1)/(1-r) is used.
    """
    geo = r ** c.shape[1] / (1.0 - r)
    if not certified:
        return np.full(len(c), geo)
    return np.float_power(1.0 - np.float_power(np.minimum(_heads(c), 1.0), 2.0), p) * geo


# A Parseval remainder 1 - sum_{k<=N} |a_k|^2 cancels to rounding error on
# rows near an inner function; this floor, equal to montecarlo.SLACK_TOL,
# keeps the bounds below above the true remainder there.
_REMAINDER_FLOOR = 1e-9


def _remainders(rows: np.ndarray, less=0.0) -> np.ndarray:
    """Bound max(1 - less - sum_{k<=N} |x_k|^2, 0) + floor on the remainder
    sum_{k>N} |x_k|^2 of each row x whose whole sum is at most 1 - less."""
    return np.maximum(1.0 - less - np.vecdot(rows, rows).real, 0.0) + _REMAINDER_FLOOR


def _holder_tails(rho: np.ndarray, q: float, r: float, n: int) -> np.ndarray:
    """Bound rho^q r^(N+1) (1-r)^(q-1) on sum_{k>N} x_k^(2q) r^k, for
    0 < q <= 1 and sum_{k>N} x_k^2 <= rho: Hölder with exponents 1/q and
    1/(1-q) on (x_k^2 r^k)^q (r^k)^(1-q) (Djakov & Ramanujan, J. Analysis 8,
    2000)."""
    return rho**q * (r ** (n + 1) * (1.0 - r) ** (q - 1.0))


def _powered_rows(c: np.ndarray, p: float, r: float, certified: bool = True):
    """(lower, tail, holder) of powered_sum for each row: the truncated sum,
    the geometric tail t_N, and the Hölder tail T_N of a unit-ball row, which
    takes q = min(p, 2)/2: for p > 2, |a_k| <= 1 gives |a_k|^p <= |a_k|^2."""
    n = c.shape[1] - 1
    mods = np.abs(c)
    lower = np.vecdot(mods**p, r ** np.arange(n + 1))
    holder = _holder_tails(_remainders(mods), min(p, 2.0) / 2.0, r, n)
    return lower, _geometric_tails(c, p, r, certified), holder


def _harmonic_rows(a: np.ndarray, b: np.ndarray, p: float, r: float):
    """(lower, tail, holder) of |a_0|^p + sum_{k>=1} (|a_k|^p + |b_k|^p) r^k
    for analytic rows a and co-analytic rows b (b_0 = 0) of one length.
    |g'| <= |h'| and the Littlewood-Paley identity give
    sum_{k>=1} |b_k|^2 <= sum_{k>=1} |a_k|^2 <= 1 - |a_0|^2, so |b_k| <= 1 as
    |a_k| is, and the tail t_N of both parts together is 2 r^(N+1)/(1-r).
    The Hölder tail T_N adds the bounds of _powered_rows for a and for b."""
    n = a.shape[1] - 1
    amods, bmods = np.abs(a), np.abs(b)
    powers = r ** np.arange(n + 1)
    lower = np.float_power(amods[:, 0], p) + np.vecdot(amods[:, 1:] ** p + bmods[:, 1:] ** p, powers[1:])
    tail = np.full(len(a), 2.0 * r ** (n + 1) / (1.0 - r))
    q = min(p, 2.0) / 2.0
    rho_b = _remainders(bmods, amods[:, 0] ** 2)
    holder = _holder_tails(_remainders(amods), q, r, n) + _holder_tails(rho_b, q, r, n)
    return lower, tail, holder


def _lp_combination_rows(a: np.ndarray, b: np.ndarray, p: float, r: float):
    """(lower, tail, holder) of sum_{k>=1} (|a_k|^p + |b_k|^p)^(1/p) r^k,
    p >= 1, the l^p combination of the vanishing-at-0 class, for rows a and b
    as in _harmonic_rows.  Each term is at most 2^(1/p), giving the tail t_N
    2^(1/p) r^(N+1)/(1-r).  The rows must have a_0 = 0: verify_be's samples
    and witness meet that by construction, through a leading zero Schur
    parameter.  The Hölder tail T_N bounds each term by
    2^max(1/p - 1/2, 0) (|a_k|^2 + |b_k|^2)^(1/2)."""
    n = a.shape[1] - 1
    terms = (np.abs(a[:, 1:]) ** p + np.abs(b[:, 1:]) ** p) ** (1.0 / p)
    lower = np.vecdot(terms, r ** np.arange(1, n + 1))
    tail = np.full(len(a), 2.0 ** (1.0 / p) * r ** (n + 1) / (1.0 - r))
    rho = _remainders(a) + _remainders(b, np.abs(a[:, 0]) ** 2)
    holder = 2.0 ** max(1.0 / p - 0.5, 0.0) * _holder_tails(rho, 0.5, r, n)
    return lower, tail, holder


def _quadratic_rows(c: np.ndarray, big_r: float):
    """(partial, tail, rhs) of sum_{k>=1} |a_k|^2 R^k <= R (1-|a_0|^2)^2 / (1 - |a_0|^2 R)
    for each row of certified unit-ball coefficients.

    The left side is enclosed in [partial, partial + tail].  R = 1 is allowed
    (the right side stays finite for |a_0| < 1), and there the tail falls back
    on the Parseval remainder 1 - sum_{k<=N} |a_k|^2.
    """
    mods2 = np.abs(c) ** 2
    powers = big_r ** np.arange(c.shape[1])
    partial = np.vecdot(mods2[:, 1:], powers[1:])
    tail = np.maximum(0.0, 1.0 - mods2.sum(axis=1)) * big_r ** c.shape[1]
    if big_r < 1.0:
        tail = np.minimum(_geometric_tails(c, 2.0, big_r), tail)
    x = np.float_power(_heads(c), 2.0)
    if big_r == 1.0:
        return partial, tail, 1.0 - x  # limit of R(1-x)^2/(1-xR) at R = 1
    return partial, tail, big_r * np.float_power(1.0 - x, 2.0) / (1.0 - x * big_r)
