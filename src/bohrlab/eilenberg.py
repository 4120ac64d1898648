"""Bounds for functions with f(0) = 0 and f(z1) f(z2) != 1 (Bieberbach-Eilenberg).

The class satisfies sum |a_k|^2 <= 1 and |f(z)| <= |z|/sqrt(1-|z|^2); the
majorant radius is 1/sqrt(2), and harmonic pairs built over the class obey an
l^p-combination bound with explicit radii at every p >= 1.  Only the scalar
bounds and radii are here; majorant's _lp_combination_rows encloses the sum.
"""

from __future__ import annotations

import math

from .errors import ConvergenceFailure, _check_p_from_one, _check_r
from .radii import RadiusCertificate, _bisect_predicate


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
