"""Powered majorant sums sum |a_k|^p r^k with rigorous tail enclosures.

Every reported sum is an interval [truncated, truncated + tail]: inequality
checks downstream always compare the conservative side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .series import CoefficientSeries, HarmonicPair

QUADRATIC_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class CertifiedSum:
    """Interval enclosure [lower, lower + tail_bound] of an infinite powered
    coefficient sum; lower is the truncated sum through order_used."""

    lower: float
    tail_bound: float
    order_used: int

    @property
    def upper(self) -> float:
        return self.lower + self.tail_bound

    @property
    def truncated_value(self) -> float:
        return self.lower


class Check(NamedTuple):
    """Outcome of an inequality check lhs <= rhs (up to the check's tolerance).

    ok may also require conditions that lhs and rhs do not show; the checker
    names them (be_coefficient_check adds a pointwise modulus bound).
    """

    lhs: float
    rhs: float
    ok: bool


def _check_pr(p: float, r: float) -> tuple[float, float]:
    p, r = float(p), float(r)
    if not 0.0 < p < math.inf:
        raise DomainError(f"exponent p must be positive and finite, got {p}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius r must lie in [0, 1), got {r}")
    return p, r


def geometric_tail(c: CoefficientSeries, p: float, r: float) -> float:
    """Tail bound for sum_{k > N} |a_k|^p r^k.

    Certified series obey |a_k| <= 1 - |a_0|^2 for k >= 1, giving
    (1 - head_bound^2)^p r^(N+1)/(1-r); otherwise the generic |a_k| <= 1
    envelope r^(N+1)/(1-r) is used.
    """
    p, r = _check_pr(p, r)
    geo = r ** (c.order + 1) / (1.0 - r)
    if c.certified:
        return (1.0 - c.head_bound**2) ** p * geo
    return geo


def powered_sum(c: CoefficientSeries, p: float, r: float) -> CertifiedSum:
    """Certified enclosure of sum_{k>=0} |a_k|^p r^k."""
    p, r = _check_pr(p, r)
    mods = np.abs(c.coeffs)
    value = float(np.dot(mods**p, r ** np.arange(c.order + 1)))
    tail = geometric_tail(c, p, r)
    return CertifiedSum(value, tail, c.order)


def harmonic_powered_sum(h: HarmonicPair, p: float, r: float) -> CertifiedSum:
    """Certified enclosure of |a_0|^p + sum_{k>=1} (|a_k|^p + |b_k|^p) r^k.

    Tail uses the crude per-term envelope for both parts: the dilatation
    domination transfers sum|b_k|^2 <= sum|a_k|^2 <= 1, so |b_k| <= 1 just like
    |a_k|, and the combined tail is 2 r^(N+1)/(1-r).
    """
    p, r = _check_pr(p, r)
    n = min(h.analytic.order, h.coanalytic.order)
    amods = np.abs(h.analytic.coeffs[: n + 1])
    bmods = np.abs(h.coanalytic.coeffs[: n + 1])
    powers = r ** np.arange(n + 1)
    value = float(amods[0] ** p + np.dot(amods[1:] ** p + bmods[1:] ** p, powers[1:]))
    tail = 2.0 * r ** (n + 1) / (1.0 - r)
    return CertifiedSum(value, tail, n)


def quadratic_sum_check(c: CoefficientSeries, big_r: float) -> Check:
    """Check sum_{k>=1} |a_k|^2 R^k <= R (1-|a_0|^2)^2 / (1 - |a_0|^2 R).

    The left side folds in an upper tail estimate; R = 1 is allowed (the right
    side stays finite for |a_0| < 1) and there the tail falls back on the
    Parseval remainder 1 - sum_{k<=N} |a_k|^2, valid for unit-ball series.
    """
    big_r = float(big_r)
    if not 0.0 < big_r <= 1.0:
        raise DomainError(f"R must lie in (0, 1], got {big_r}")
    if not c.certified:
        raise DomainError("quadratic sum check requires a certified unit-ball series")
    mods2 = np.abs(c.coeffs) ** 2
    powers = big_r ** np.arange(c.order + 1)
    partial = float(np.dot(mods2[1:], powers[1:]))
    remainder = max(0.0, 1.0 - float(mods2.sum())) * big_r ** (c.order + 1)
    if big_r < 1.0:
        geo = (1.0 - c.head_bound**2) ** 2 * big_r ** (c.order + 1) / (1.0 - big_r)
        tail = min(geo, remainder)
    else:
        tail = remainder
    lhs = partial + tail
    x = abs(c.coeffs[0]) ** 2
    if big_r == 1.0:
        rhs = 1.0 - x  # limit of R(1-x)^2/(1-xR) at R = 1
    else:
        rhs = big_r * (1.0 - x) ** 2 / (1.0 - x * big_r)
    return Check(lhs=lhs, rhs=rhs, ok=lhs <= rhs + QUADRATIC_CHECK_TOL)
