"""Exception types shared across the package, and the parameter rules that
every entry point checks its arguments against.

Each rule converts its argument, raises DomainError when the value lies
outside the rule's range and returns the converted value.  NaN fails every
rule, since every comparison with it is false.
"""

from __future__ import annotations

import math


class BohrlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BohrlabError, ValueError):
    """A parameter lies outside the documented domain of an operation."""


class NonSchurInput(BohrlabError, ValueError):
    """Coefficient data is inconsistent with membership in the closed unit ball."""


class NoRootFound(BohrlabError, ArithmeticError):
    """A root scan found no admissible root in the search interval."""


class ConvergenceFailure(BohrlabError, ArithmeticError):
    """Two independent computations of the same quantity disagree beyond tolerance."""


def _check_p(p: float, *, allow_two: bool = True) -> float:
    """Exponent p in (0, 2], or in (0, 2) without allow_two."""
    p = float(p)
    if not (0.0 < p < 2.0 or (allow_two and p == 2.0)):
        raise DomainError(f"exponent p must lie in {'(0, 2]' if allow_two else '(0, 2)'}, got {p}")
    return p


def _check_positive_p(p: float) -> float:
    """Exponent p in (0, inf)."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise DomainError(f"exponent p must be positive and finite, got {p}")
    return p


def _check_p_from_one(p: float) -> float:
    """Exponent p in [1, inf)."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise DomainError(f"exponent p must be finite and >= 1, got {p}")
    return p


def _check_r(r: float) -> float:
    """Radius r in [0, 1); -0.0 becomes 0.0, so no radius carries a sign."""
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius r must lie in [0, 1), got {r}")
    return r + 0.0


def _check_big_r(big_r: float) -> float:
    """Radius R in (0, 1]."""
    big_r = float(big_r)
    if not 0.0 < big_r <= 1.0:
        raise DomainError(f"R must lie in (0, 1], got {big_r}")
    return big_r


def _check_a(a: float, *, allow_one: bool) -> float:
    """Parameter a in [0, 1], or in [0, 1) without allow_one; -0.0 becomes 0.0."""
    a = float(a)
    if not (0.0 <= a < 1.0 or (allow_one and a == 1.0)):
        raise DomainError(f"parameter a must lie in {'[0, 1]' if allow_one else '[0, 1)'}, got {a}")
    return a + 0.0


def _check_window(r: float, lo: float, hi: float, name: str) -> float:
    """Radius r in the window [lo, hi] of a closed form, named as printed;
    values up to 1e-12 outside are clamped onto the window."""
    r = float(r)
    if not lo - 1e-12 <= r <= hi + 1e-12:
        raise DomainError(f"r must lie in [{name}], got {r}")
    return min(max(r, lo), hi)


def _check_pm(p, m) -> tuple[int, int]:
    """Integers p >= 1 and 0 <= m <= p of a p-symmetric family."""
    if not (math.isfinite(p) and math.isfinite(m)) or int(p) != p or int(m) != m:
        raise DomainError(f"p and m must be integers, got p={p}, m={m}")
    p, m = int(p), int(m)
    if p < 1 or not 0 <= m <= p:
        raise DomainError(f"need p >= 1 and 0 <= m <= p, got p={p}, m={m}")
    return p, m


def _check_count(n, name: str) -> int:
    """A count (trials, order, depth): finite, integer-valued, non-negative."""
    if not (0 <= n < math.inf and int(n) == n):
        raise DomainError(f"{name} must be a non-negative integer, got {n}")
    return int(n)


def _check_seed(seed) -> int:
    """A seed: integer-valued and finite, of any sign (it is masked to 64 bits).
    Compared with -inf and inf, since math.isfinite overflows on ints past 2^1024."""
    if not (-math.inf < seed < math.inf and int(seed) == seed):
        raise DomainError(f"seed must be an integer, got {seed}")
    return int(seed)
