"""Doubled-envelope bounds for harmonic mappings with dominated dilatation.

For f = h + conj(g) with |g'| <= |h'| the powered coefficient sum
|a_0|^p + sum (|a_k|^p + |b_k|^p) r^k obeys the envelope bound with the middle
term doubled; the p = 1 case has a closed form and radius 1/5.

Caveat on the validity flag: `harmonic_threshold` evaluates the nominal
formula (2^(1/(p-2)) + 1)^(p/2-1), but the derivation of the bound only
supports r <= (2^(1/(2-p)) + 1)^(p/2-1) (exponent 1/(2-p)), which is smaller:
1/sqrt(3) vs sqrt(2/3) at p = 1.  Sampled dominated pairs genuinely exceed
the doubled-envelope bound in the upper part of the nominal range (see the
regression test), so treat `valid` as the nominal claim, not a guarantee.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import _check_p, _check_positive_p, _check_r, _check_window
from .radii import RadiusCertificate, _bisect_predicate, maximize_envelope


class HarmonicBound(NamedTuple):
    value: float
    valid: bool


def harmonic_threshold(p: float) -> float:
    """Validity radius (2^(1/(p-2)) + 1)^(p/2-1) of the doubled-envelope bound."""
    p = _check_p(p, allow_two=False)
    return (2.0 ** (1.0 / (p - 2.0)) + 1.0) ** (p / 2.0 - 1.0)


def harmonic_bound(p: float, r: float) -> HarmonicBound:
    """Sharp bound for the harmonic powered sum, normalized to sup|h| = 1.

    p <= 2: the doubled-envelope maximum, flagged valid while r stays below
    the threshold (at p = 2 the threshold degenerates to 1, so always valid).
    p > 2: max(1, 2r), valid for all r.
    """
    r, p = _check_r(r), _check_positive_p(p)
    if p > 2.0:
        return HarmonicBound(max(1.0, 2.0 * r), True)
    value = maximize_envelope(p, r, doubled=True).value
    valid = True if p == 2.0 else r <= harmonic_threshold(p)
    return HarmonicBound(value, valid)


# the window of the doubled p = 1 closed forms: its ends and their printed names
_P1 = (0.2, math.sqrt(2.0 / 3.0), "1/5, sqrt(2/3)")


def harmonic_closed_form_p1(r: float) -> float:
    """Closed form (5 - 2 sqrt(6) sqrt(1-r^2)) / r on [1/5, sqrt(2/3)]."""
    r = _check_window(r, *_P1)
    return (5.0 - 2.0 * math.sqrt(6.0) * math.sqrt(1.0 - r * r)) / r


def harmonic_radius_p1() -> RadiusCertificate:
    """Radius where the doubled p = 1 envelope maximum first exceeds 1.

    Near the radius the maximum exceeds 1 only by O((r - 1/5)^2), invisible to
    a float comparison, so the bisection predicate uses the exact factorization
    F2(a) - 1 = (1-a)(r(2+3a) - 1)/(1-ra): the maximum exceeds 1 for some
    a < 1 iff 5r - 1 > 0.
    """
    radius = _bisect_predicate(lambda r: 5.0 * r - 1.0 > 0.0, 0.0, 0.9)
    residual = abs(maximize_envelope(1.0, radius, doubled=True).value - 1.0)
    return RadiusCertificate(radius=radius, method="bisection", residual=residual)
