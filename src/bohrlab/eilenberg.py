"""Bounds for functions with f(0) = 0 and f(z1) f(z2) != 1 (Bieberbach-Eilenberg).

The class satisfies sum |a_k|^2 <= 1 and |f(z)| <= |z|/sqrt(1-|z|^2); the
majorant radius is 1/sqrt(2), and harmonic pairs built over the class obey an
l^p-combination bound with explicit radii at every p >= 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, NonVanishingConstantTerm, _check_p_from_one, _check_r
from .radii import RadiusCertificate, _bisect_predicate
from .majorant import CertifiedSum
from .series import HarmonicPair


def be_bound(r: float) -> float:
    """Majorant bound r / sqrt(1 - r^2) for the vanishing-at-0 classes."""
    r = _check_r(r)
    return r / math.sqrt(1.0 - r * r)


def be_radius() -> RadiusCertificate:
    """Radius where be_bound crosses 1, by bisection; equals 1/sqrt(2)."""
    radius = _bisect_predicate(lambda r: be_bound(r) > 1.0, 0.0, 0.999)
    return RadiusCertificate(radius=radius, method="bisection", residual=abs(be_bound(radius) - 1.0))


def be_harmonic_bound(p: float, r: float) -> float:
    """l^p-combination bound max(2^(1/p - 1/2), 1) sqrt(2) r / sqrt(1 - r^2)."""
    r, p = _check_r(r), _check_p_from_one(p)
    factor = max(2.0 ** (1.0 / p - 0.5), 1.0)
    return factor * math.sqrt(2.0) * r / math.sqrt(1.0 - r * r)


def be_harmonic_radius(p: float) -> RadiusCertificate:
    """Radius where the l^p-combination bound crosses 1.

    Bisection cross-checked against the closed form
    1 / sqrt(1 + 2 max(2^(2/p - 1), 1)); the two must agree to 1e-12.
    """
    p = _check_p_from_one(p)
    radius = _bisect_predicate(lambda r: be_harmonic_bound(p, r) > 1.0, 0.0, 0.999)
    closed = 1.0 / math.sqrt(1.0 + 2.0 * max(2.0 ** (2.0 / p - 1.0), 1.0))
    if abs(radius - closed) > 1e-12:
        raise ConvergenceFailure(
            f"bisection {radius!r} disagrees with closed form {closed!r} at p={p}"
        )
    return RadiusCertificate(
        radius=radius, method="bisection", residual=abs(be_harmonic_bound(p, radius) - 1.0)
    )


def be_lp_combination_sum(pair: HarmonicPair, p: float, r: float) -> CertifiedSum:
    """Certified enclosure of sum_{k>=1} (|a_k|^p + |b_k|^p)^(1/p) r^k.

    This is the l^p accumulator of the harmonic bound over the vanishing-at-0
    class (distinct from the harmonic powered sum, which never takes the 1/p
    root).  Per term (|a_k|^p + |b_k|^p)^(1/p) <= 2^(1/p), giving the tail
    2^(1/p) r^(N+1)/(1-r).
    """
    r, p = _check_r(r), _check_p_from_one(p)
    if abs(pair.analytic.coeffs[0]) != 0.0:
        raise NonVanishingConstantTerm("the class requires a_0 = 0")
    n = min(pair.analytic.order, pair.coanalytic.order)
    a, b = pair.analytic.coeffs[None, : n + 1], pair.coanalytic.coeffs[None, : n + 1]
    lower, tail = _lp_combination_rows(a, b, p, r)
    return CertifiedSum(float(lower[0]), float(tail[0]))


def _lp_combination_rows(a: np.ndarray, b: np.ndarray, p: float, r: float):
    """(lower, tail_bound) of be_lp_combination_sum for analytic rows a and
    co-analytic rows b of one length (see majorant's row-wise enclosures)."""
    n = a.shape[1] - 1
    terms = (np.abs(a[:, 1:]) ** p + np.abs(b[:, 1:]) ** p) ** (1.0 / p)
    lower = np.vecdot(terms, r ** np.arange(1, n + 1))
    return lower, np.full(len(a), 2.0 ** (1.0 / p) * r ** (n + 1) / (1.0 - r))
