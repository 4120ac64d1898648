"""Scalar envelope maximization and the associated Bohr-type radii.

The central object is the envelope F(a; p, r) = a^p + w r (1-a^2)^p / (1 - r a^p)
with weight w = 1 (analytic case) or w = 2 (harmonic case).  Its maximum over
a in [0, 1] equals the powered majorant supremum below the exact-branch
threshold 2^(p/2-1); the radius where that maximum first exceeds 1 is the
powered Bohr radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    NoRootFound,
    _check_a,
    _check_p,
    _check_pm,
    _check_r,
    _check_window,
)

ENVELOPE_GRID = 2048
BRACKET_TOL = 1e-12
CROSSCHECK_TOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_STEPS = 80


@dataclass(frozen=True)
class EnvelopeResult:
    """Maximized envelope value with argmax and optimizer diagnostics."""

    value: float
    argmax: float
    iterations: int
    bracket_width: float


@dataclass(frozen=True)
class RadiusCertificate:
    """A computed radius, the method that produced it and its residual."""

    radius: float
    method: str
    residual: float


def exact_branch_threshold(p: float) -> float:
    """Radius 2^(p/2 - 1) separating the exact branch from the strict bound."""
    return 2.0 ** (_check_p(p) / 2.0 - 1.0)


def _envelope(a, p: float, r: float, weight: float):
    # a^p by numpy's power ufunc and (1-a^2)^p by the operator: libm's pow
    # at a float, the ufunc on an array.  The two pows can differ in the last
    # bit, and this is the pairing every envelope value was computed with.
    ap = np.power(a, p)
    return ap + weight * r * (1.0 - a * a) ** p / (1.0 - r * ap)


def envelope_value(a: float, p: float, r: float) -> float:
    """F(a; p, r) = a^p + r (1-a^2)^p / (1 - r a^p); exactly 1 at a = 1."""
    return float(_envelope(_check_a(a, allow_one=True), _check_p(p), _check_r(r), 1.0))


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, int, float]:
    """Golden-section refinement of a bracketed maximum; returns (x, iters, width)."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iters = 0
    while hi - lo > BRACKET_TOL and iters < 200:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        iters += 1
    return 0.5 * (lo + hi), iters, hi - lo


def _parabolic_polish(f: Callable[[float], float], x: float, h: float, lo: float, hi: float) -> float:
    """One parabola fit through (x-h, x, x+h); falls back to x off-bracket."""
    if x - h <= lo or x + h >= hi:
        return x
    fm, f0, fp = f(x - h), f(x), f(x + h)
    denom = fp - 2.0 * f0 + fm
    if denom == 0.0:
        return x
    v = x - h * (fp - fm) / (2.0 * denom)
    return v if lo < v < hi else x


@functools.cache
def _grid(stop: float, n: int, k_lo: int, k_hi: int) -> np.ndarray:
    # n uniform points on [0, stop] plus the geometric cluster 1 - 10^(-k/2),
    # k_lo <= k < k_hi, near a = 1, where the radius-defining behaviour lives.
    # Read-only and built on first use: built at import, np.unique's first
    # sort raised every importing process's peak RSS by ~0.4 MB.
    pts = np.unique(np.concatenate([np.linspace(0.0, stop, n), 1.0 - 10.0 ** -(np.arange(k_lo, k_hi) / 2.0)]))
    pts.flags.writeable = False
    return pts


def _candidate_grid(p: float, r: float) -> np.ndarray:
    grid = _grid(1.0, ENVELOPE_GRID, 1, 25)
    if not (p < 1.0 and r > 0.0):
        return grid
    # for p < 1 the envelope spikes above 1 in a boundary layer of width
    # eps ~ (r 2^p / (1-r))^(1/(1-p)); seed the layer so the grid cannot
    # miss a spike narrower than the uniform spacing
    logt = math.log(r * 2.0**p / (1.0 - r)) / (1.0 - p)
    seeds = []
    for shift in (-2.0, -1.0, 0.0, 1.0):
        t = math.exp(min(logt + shift, 50.0))
        eps = t / (1.0 + t)
        if 0.0 < eps < 1.0:
            seeds.append(1.0 - eps)
    return np.unique(np.concatenate([grid, seeds]))


def maximize_envelope(p: float, r: float, doubled: bool = False) -> EnvelopeResult:
    """Global maximum of the envelope over a in [0, 1] to bracket width 1e-12.

    Dense grid scan isolates the best bracket (so multimodality cannot lose the
    global maximum), golden-section refines it, and a final parabola fit
    sharpens the argmax.  On plateaus the largest argmax is reported, matching
    the a -> 1 extremal limit.
    """
    p, r = _check_p(p), _check_r(r)
    weight = 2.0 if doubled else 1.0
    grid = _candidate_grid(p, r)
    vals = _envelope(grid, p, r, weight)
    f = lambda a: float(_envelope(a, p, r, weight))

    # refine the global grid argmax and the best interior local maximum: near
    # the radius an interior maximum can sit between grid points slightly
    # below the exact boundary value F(1) = 1 and would otherwise be missed
    refine = {len(vals) - 1 - int(np.argmax(vals[::-1]))}  # ties -> largest a
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    if interior.size:
        refine.add(int(interior[np.lexsort((interior, vals[interior]))[-1]]))

    results = [(f(1.0), 1.0, 0.0)]  # right endpoint is exactly 1
    total_iters = 0
    for idx in sorted(refine):
        lo = float(grid[max(idx - 1, 0)])
        hi = float(grid[min(idx + 1, len(grid) - 1)])
        mid, iters, width = _golden_max(f, lo, hi)
        total_iters += iters
        polished = _parabolic_polish(f, mid, 1e-5, lo, hi)
        for x in (float(grid[idx]), mid, polished):
            results.append((f(x), x, width))
    value, argmax, width = max(results, key=lambda t: (t[0], t[1]))
    return EnvelopeResult(value=value, argmax=argmax, iterations=total_iters, bracket_width=width)


class MpValue(NamedTuple):
    value: float
    exact: bool


def _upper_branch(p: float, r: float) -> float:
    return (1.0 - r ** (2.0 / (2.0 - p))) ** (p / 2.0 - 1.0)


def mp_theorem1(p: float, r: float) -> MpValue:
    """Powered majorant supremum: exact below the threshold, strict bound above.

    For r <= 2^(p/2-1) the supremum equals the envelope maximum (exact=True);
    beyond it only the non-attained bound (1 - r^(2/(2-p)))^(p/2-1) is returned
    (exact=False).  p = 2 is the degenerate case with value identically 1.
    """
    p, r = _check_p(p), _check_r(r)
    if p == 2.0:
        return MpValue(1.0, True)
    if r <= exact_branch_threshold(p):
        return MpValue(maximize_envelope(p, r).value, True)
    return MpValue(_upper_branch(p, r), False)


def _rp_quotient(a, p: float):
    ap = np.power(a, p)  # the pows of _envelope, for the same reason
    return (1.0 - ap) / (ap * (1.0 - ap) + (1.0 - a * a) ** p)


def _rp_limit_at_one(p: float) -> float:
    # quotient asymptotics at a = 1-eps: numerator ~ p eps, denominator
    # ~ p eps + (2 eps)^p, so the limit is 0 / (1/3) / 1 for p <,=,> 1
    if p < 1.0:
        return 0.0
    if p == 1.0:
        return 1.0 / 3.0
    return 1.0


def rp_via_infimum(p: float) -> float:
    """Powered Bohr radius as inf over a in [0,1) of the defining quotient.

    The quotient is minimized on a grid capped at a = 1 - 1e-8 with
    golden-section refinement; the analytic a -> 1 limit is folded in and the
    smaller of the two is reported (at p = 1 the limit 1/3 is the infimum and
    the capped grid alone would miss it by ~2e-9).
    """
    p = _check_p(p)
    if p == 2.0:
        return 1.0  # quotient is identically 1
    pts = _grid(1.0 - 1e-8, 4096, 2, 17)  # capped at the cluster's last point
    vals = _rp_quotient(pts, p)
    best = int(np.argmin(vals))
    f = lambda a: float(_rp_quotient(a, p))
    lo = float(pts[max(best - 1, 0)])
    hi = float(pts[min(best + 1, len(pts) - 1)])
    mid, _, _ = _golden_max(lambda a: -f(a), lo, hi)
    found = min(float(vals[best]), f(mid))
    return min(found, _rp_limit_at_one(p))


def _bisect_predicate(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """Bisection on a monotone boolean predicate with pred(lo)=False, pred(hi)=True.

    Stops as soon as the midpoint rounds onto an end, that is once lo and hi
    are adjacent floats (about 54 steps from [0, 1)), or after 80 steps.  Any
    further step would return that same midpoint, whatever pred says there.
    Callers pass their full bracket, not one narrowed around an estimate: a
    predicate evaluated in floats need not be monotone within a few ulps of
    its crossing, so a narrower start can end on a different float.
    """
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rp_via_envelope_bisection(p: float) -> float:
    """Powered Bohr radius located by bisection on 'envelope maximum exceeds 1'.

    For p > 1 the maximum grows linearly in r past the radius, so the float
    comparison value > 1 resolves the boundary far below 1e-9.  At p = 1 the
    growth is only quadratic (the argmax collides with a = 1), so the
    exceedance test uses the exact factorization
    F(a) - 1 = (1-a) (r (1+2a) - 1) / (1 - r a): some a < 1 exceeds iff 3r > 1.
    For p < 1 every positive r exceeds near a = 1 (-eps + r 2^p eps^p > 0 for
    small eps), leaving radius 0.

    The bisection starts from the full bracket [0, 1 - 1e-9] even though the
    infimum route already knows r_p to a few ulps: the float predicate
    maximize_envelope(p, r).value > 1 is not monotone within a few ulps of
    r_p, so a bracket narrowed around that estimate ends elsewhere and moves
    the residual that powered_radius_rp reports.
    """
    p = _check_p(p)
    if p == 2.0:
        return 1.0
    if p < 1.0:
        return 0.0
    if p == 1.0:
        pred = lambda r: 3.0 * r - 1.0 > 0.0
    else:
        pred = lambda r: maximize_envelope(p, r).value > 1.0
    return _bisect_predicate(pred, 0.0, 1.0 - 1e-9)


def powered_radius_rp(p: float) -> RadiusCertificate:
    """Powered Bohr radius with the two independent routes cross-checked.

    The infimum of the defining quotient and the envelope bisection must agree
    within 1e-9; their disagreement is recorded as the residual.  Just above
    p = 1 they do not, and the call raises ConvergenceFailure: for every
    p - 1 <= 5.6e-8 and for some p - 1 up to 2e-6.  There the quotient's
    minimizer 1 - a ~ p - 1 lies past the grid's 1 - 1e-8, and the float test
    value > 1 cannot resolve an exceedance that grows like p - 1.
    """
    p = _check_p(p)
    if p == 2.0:
        return RadiusCertificate(radius=1.0, method="closed_form", residual=0.0)
    r_inf = rp_via_infimum(p)
    r_bis = rp_via_envelope_bisection(p)
    residual = abs(r_inf - r_bis)
    if residual > CROSSCHECK_TOL:
        raise ConvergenceFailure(
            f"radius routes disagree at p={p}: infimum {r_inf!r} vs bisection {r_bis!r}"
        )
    method = "closed_form" if p < 1.0 else "minimization"
    return RadiusCertificate(radius=r_inf, method=method, residual=residual)


def lower_bound_mp(p: float) -> float:
    """Closed-form lower bound p / (2^(1/(2-p)) + p^(1/(2-p)))^(2-p).

    Evaluated with the factor 2^(1/(2-p)) taken out, which stays finite as p -> 2.
    """
    p = _check_p(p, allow_two=False)
    e = 1.0 / (2.0 - p)
    return p / (2.0 * (1.0 + (p / 2.0) ** e) ** (2.0 - p))


# the window of the p = 1 closed forms: its ends and their printed names
_BOMBIERI = (1.0 / 3.0, 1.0 / math.sqrt(2.0), "1/3, 1/sqrt(2)")


def bombieri_closed_form(r: float) -> float:
    """Exact majorant supremum (3 - sqrt(8 (1-r^2)))/r on [1/3, 1/sqrt(2)]."""
    r = _check_window(r, *_BOMBIERI)
    return (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r


def paulsen_majorant(r: float) -> tuple[float, float]:
    """Piecewise majorant bound M(r) and its cap m(r) = min(M(r), 1/sqrt(1-r^2))."""
    r = _check_r(r)
    if r <= 1.0 / 3.0:
        big_m = 1.0
    else:
        big_m = (4.0 * r * r + (1.0 - r) ** 2) / (4.0 * r * (1.0 - r))
    return big_m, min(big_m, 1.0 / math.sqrt(1.0 - r * r))


def psymmetric_root_equation(r, p: int, m: int):
    """Left side of -6 r^(p-m) + r^(2(p-m)) + 8 r^(2p) + 1 = 0."""
    r = np.asarray(r, dtype=float)
    return -6.0 * r ** (p - m) + r ** (2 * (p - m)) + 8.0 * r ** (2 * p) + 1.0


def psymmetric_radius(p: int, m: int) -> RadiusCertificate:
    """Maximal root in (0, 1) of the p-symmetric radius equation.

    For integer p and m the equation is a polynomial of degree 2p in r, solved
    for p <= 100 (its companion-matrix eigenproblem costs O(p^3)).  Simple
    roots are the real eigenvalues after a Newton polish.  Eigenvalues resolve
    the double root of m = 0, where the equation is (3r^p - 1)^2, only to
    sqrt(eps), so double roots are the polished roots of the derivative where
    the equation vanishes to 1e-10; eigenvalues within 1e-6 of one are dropped.
    """
    p, m = _check_pm(p, m)
    if p > 100:
        raise DomainError(f"the p-symmetric radius is solved for p <= 100, got p={p}")
    poly = np.zeros(2 * p + 1)  # coefficients of r^(2p), ..., r^0
    np.add.at(poly, [0, 2 * m, p + m, 2 * p], [8.0, 1.0, -6.0, 1.0])  # m = 0, p share powers
    polished = []
    for c in (poly, np.polyder(poly)):
        z = np.roots(c)
        x = z.real[(z.imag == 0.0) & (z.real > 0.0) & (z.real < 1.0)]
        dc = np.polyder(c)
        for _ in range(2):
            x = x - np.polyval(c, x) / np.polyval(dc, x)
        polished.append(x)
    simple, double = polished
    double = double[np.abs(psymmetric_root_equation(double, p, m)) <= 1e-10]
    candidates = [(float(x), "root_scan") for x in double]
    for x in simple:
        if 0.0 < x < 1.0 and not np.any(np.abs(double - x) < 1e-6):
            candidates.append((float(x), "polynomial_roots"))
    if not candidates:
        raise NoRootFound(f"no root of the radius equation in (0, 1) for p={p}, m={m}")
    radius, method = max(candidates)
    residual = abs(float(psymmetric_root_equation(radius, p, m)))
    return RadiusCertificate(radius=radius, method=method, residual=residual)


def psymmetric_extremal_a(p: int, m: int) -> float:
    """Extremal parameter (1 - sqrt(1 - r^(2p))/sqrt(2)) / r^p at the radius.

    Clamped to 1 when it lands within 1e-8 (degenerate boundary extremal,
    which happens exactly for m = 0, where a equals 1 up to rounding).
    """
    p, m = _check_pm(p, m)
    r = psymmetric_radius(p, m).radius
    a = (1.0 - math.sqrt(1.0 - r ** (2 * p)) / math.sqrt(2.0)) / r**p
    if abs(a - 1.0) < 1e-8:
        return 1.0
    return a


def blaschke_sharpness_radius(d: int, p: float) -> float:
    """Radius (d/(d+1))^(1 - p/2) where a degree-d Blaschke product is critical."""
    if not 1 <= d < math.inf or int(d) != d:
        raise DomainError(f"degree d must be a positive integer, got {d}")
    p = _check_p(p, allow_two=False)
    return (d / (d + 1.0)) ** (1.0 - p / 2.0)


def bb_lower_bound(p: float, r: float, eps: float, big_c: float) -> float:
    """Logarithmically-corrected lower bound beyond the exact branch.

    Evaluates (1 - r^(2/(2-p)))^(p/2-1) minus the user-supplied correction
    C (1 - r^(2/(2-p)))^((p-1)/2) log(1/(1 - r^(1/(2-p))))^(3/2+eps).  The
    constant C is not constructive, so this is exploration-only and never
    enters pass/fail acceptance.
    """
    p, r = float(p), _check_r(r)
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent p must lie in (1, 2), got {p}")
    if r <= exact_branch_threshold(p):
        raise DomainError(f"r must exceed the exact-branch threshold {exact_branch_threshold(p)}")
    eps, big_c = float(eps), float(big_c)
    if not (0.0 < eps < math.inf and 0.0 <= big_c < math.inf):
        raise DomainError(f"need finite eps > 0 and C >= 0, got eps={eps}, C={big_c}")
    a = 1.0 - r ** (2.0 / (2.0 - p))
    log_term = math.log(1.0 / (1.0 - r ** (1.0 / (2.0 - p))))
    try:
        growth = log_term ** (1.5 + eps)
    except OverflowError:  # float pow raises where a product would give inf
        growth = math.inf
    value = a ** (p / 2.0 - 1.0) - big_c * a ** ((p - 1.0) / 2.0) * growth
    if not math.isfinite(value):
        raise DomainError(f"the correction overflows a float at eps={eps}, C={big_c}")
    return value


def branch_consistency_gap(p: float) -> float:
    """|envelope maximum - strict bound| at the threshold radius (diagnostic)."""
    p = _check_p(p, allow_two=False)
    thr = exact_branch_threshold(p)
    return abs(maximize_envelope(p, thr).value - _upper_branch(p, thr))
