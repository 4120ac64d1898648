"""Envelope maximization, powered radii, closed forms and root equations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import (
    ConvergenceFailure,
    DomainError,
    bb_lower_bound,
    blaschke_sharpness_radius,
    bombieri_closed_form,
    branch_consistency_gap,
    envelope_value,
    exact_branch_threshold,
    lower_bound_mp,
    maximize_envelope,
    mobius_automorphism_coeffs,
    mp_theorem1,
    paulsen_majorant,
    powered_radius_rp,
    powered_sum,
    psymmetric_extremal_a,
    psymmetric_radius,
    psymmetric_root_equation,
    rp_via_envelope_bisection,
    rp_via_infimum,
)
from bohrlab import radii
from bohrlab.eilenberg import be_bound, be_harmonic_bound, be_harmonic_radius, be_radius
from bohrlab.harmonic import harmonic_radius_p1

BOMBIERI_AT_HALF = 6.0 - 2.0 * math.sqrt(6.0)
ARGMAX_AT_HALF = (1.0 - math.sqrt(0.75) / math.sqrt(2.0)) / 0.5


class TestEnvelopeValue:
    def test_boundary_is_exactly_one(self):
        for p in (0.5, 1.0, 1.7, 2.0):
            for r in (0.0, 0.3, 0.9):
                assert envelope_value(1.0, p, r) == 1.0

    def test_simple_values(self):
        assert envelope_value(0.0, 1.0, 0.5) == 0.5
        assert abs(envelope_value(0.5, 1.0, 1.0 / 3.0) - 0.8) < 1e-15

    def test_matches_automorphism_majorant_sum(self):
        for a in (0.2, 0.6, 0.9):
            for p in (0.7, 1.0, 1.6):
                for r in (0.2, 0.5):
                    ps = powered_sum(mobius_automorphism_coeffs(a, 300), p, r)
                    assert abs(ps.lower - envelope_value(a, p, r)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            envelope_value(1.2, 1.0, 0.5)
        with pytest.raises(DomainError):
            envelope_value(0.5, 2.5, 0.5)
        with pytest.raises(DomainError):
            envelope_value(0.5, 1.0, 1.0)


class TestMaximizeEnvelope:
    def test_below_radius_plateau(self):
        for r in (0.0, 0.2, 1.0 / 3.0):
            res = maximize_envelope(1.0, r)
            assert res.value == 1.0
            assert res.argmax == 1.0

    def test_bombieri_point(self):
        res = maximize_envelope(1.0, 0.5)
        assert abs(res.value - BOMBIERI_AT_HALF) < 1e-10
        assert abs(res.argmax - ARGMAX_AT_HALF) < 1e-8

    def test_p_two_is_one(self):
        for r in (0.1, 0.7, 0.99):
            assert maximize_envelope(2.0, r).value == 1.0

    def test_result_invariants(self):
        for (p, r) in [(1.0, 0.5), (1.5, 0.7), (0.5, 0.3), (1.0, 0.5)]:
            res = maximize_envelope(p, r)
            assert 0.0 <= res.argmax <= 1.0
            assert res.bracket_width <= 1e-12
            for delta in (-1e-6, 1e-6):
                probe = min(max(res.argmax + delta, 0.0), 1.0)
                assert res.value >= envelope_value(probe, p, r)

    def test_interior_maximum_not_lost_near_radius(self):
        # just past the radius the interior maximum sits between grid points
        r_p = rp_via_infimum(1.5)
        assert maximize_envelope(1.5, r_p + 1e-8).value > 1.0
        assert maximize_envelope(1.5, r_p - 1e-8).value == 1.0

    def test_against_brute_force_scan(self):
        # independent oracle: ultra-fine direct scan over a
        fine = np.linspace(0.0, 1.0, 2_000_001)
        for p in (0.3, 0.8, 1.0, 1.3, 1.7, 2.0):
            for r in (0.05, 0.3, 0.6, 0.85):
                ap = fine**p
                brute = (ap + r * (1 - fine * fine) ** p / (1 - r * ap)).max()
                found = maximize_envelope(p, r).value
                assert found >= brute - 1e-12
                assert found <= brute + 1e-9


    def test_candidate_grid_is_shared_and_read_only(self):
        base = radii._candidate_grid(1.5, 0.7)
        assert base is radii._candidate_grid(0.5, 0.0) and not base.flags.writeable
        seeded = radii._candidate_grid(0.5, 0.2)  # the boundary-layer seeds join a copy
        assert np.isin(base, seeded).all() and 0 < seeded.size - base.size <= 4


class TestMpTheorem1:
    def test_exact_branch_value(self):
        value, exact = mp_theorem1(1.0, 0.5)
        assert exact
        assert abs(value - BOMBIERI_AT_HALF) < 1e-10

    def test_bound_branch_value(self):
        value, exact = mp_theorem1(1.0, 0.8)
        assert not exact
        assert abs(value - 1.0 / 0.6) < 1e-12

    def test_threshold_approaches_one(self):
        assert exact_branch_threshold(1.99) < exact_branch_threshold(1.999) < 1.0
        assert exact_branch_threshold(1.999) > 0.999

    def test_p_two_always_exact_one(self):
        for r in (0.0, 0.5, 0.99):
            assert mp_theorem1(2.0, r) == (1.0, True)

    def test_branch_consistency(self):
        # the two branch expressions agree at the threshold to float noise
        for p in (0.5, 1.0, 1.2, 1.5, 1.8):
            assert branch_consistency_gap(p) < 1e-9


def rp_reference(mpmath, p):
    """The powered Bohr radius for 0 < p - 1 <= 1e-5 in 60 digits: the
    infimum of the defining quotient, by golden section in t = log(1 - a) on
    log(p - 1) +- 4.  The minimizer sits at 1 - a ~ p - 1, and a 1/8-step scan
    of t over [-45, 0] finds nothing lower on the grid of the test below."""
    with mpmath.workdps(60):
        p = mpmath.mpf(p)

        def quotient(t):
            eps = mpmath.exp(t)  # 1 - a
            ap = (1 - eps) ** p
            return (1 - ap) / (ap * (1 - ap) + (eps * (2 - eps)) ** p)

        lo, hi = mpmath.log(p - 1) - 4, mpmath.log(p - 1) + 4
        g = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = quotient(x1), quotient(x2)
        for _ in range(60):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - g * (hi - lo)
                f1 = quotient(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + g * (hi - lo)
                f2 = quotient(x2)
        return float(min(f1, f2))


class TestPoweredRadius:
    def test_classical_radius_both_routes(self):
        assert abs(rp_via_infimum(1.0) - 1.0 / 3.0) < 1e-9
        assert abs(rp_via_envelope_bisection(1.0) - 1.0 / 3.0) < 1e-9
        cert = powered_radius_rp(1.0)
        assert abs(cert.radius - 1.0 / 3.0) < 1e-9
        assert cert.residual <= 1e-10

    def test_p_two_degenerate(self):
        cert = powered_radius_rp(2.0)
        assert cert.radius == 1.0 and cert.method == "closed_form"

    def test_p_three_halves_bracket(self):
        cert = powered_radius_rp(1.5)
        assert lower_bound_mp(1.5) < cert.radius < exact_branch_threshold(1.5)

    def test_radius_separates_plateau_from_growth(self):
        for p in (1.2, 1.5, 1.8):
            radius = powered_radius_rp(p).radius
            for r in np.linspace(0.05, radius - 1e-6, 7):
                assert abs(maximize_envelope(p, float(r)).value - 1.0) <= 1e-10
            assert maximize_envelope(p, radius + 1e-6).value > 1.0

    def test_certificate_residuals(self):
        for p in (1.0, 1.2, 1.5, 1.8):
            assert powered_radius_rp(p).residual <= 1e-10

    def test_route_disagreement_raises(self, monkeypatch):
        import bohrlab.radii as radii_mod

        monkeypatch.setattr(radii_mod, "rp_via_envelope_bisection", lambda p: 0.5)
        with pytest.raises(ConvergenceFailure):
            radii_mod.powered_radius_rp(1.0)

    def test_refuses_or_is_accurate_just_above_one(self):
        # at p = 1 + 10^-k the two routes disagree for every p - 1 <= 5.6e-8
        # and at some larger p - 1, and the call raises; whatever radius it
        # returns must match the 60-digit reference
        mpmath = pytest.importorskip("mpmath")
        answered = 0
        for k in range(20, 64):
            p = 1.0 + 10.0 ** -(k / 4)
            try:
                radius = powered_radius_rp(p).radius
            except ConvergenceFailure:
                continue
            answered += 1
            assert abs(radius - rp_reference(mpmath, p)) < 1e-9, p
        assert answered


class TestLowerBound:
    def test_classical_value(self):
        assert abs(lower_bound_mp(1.0) - 1.0 / 3.0) < 1e-15

    def test_equals_radius_at_p_one(self):
        assert abs(lower_bound_mp(1.0) - powered_radius_rp(1.0).radius) < 1e-9

    def test_substitution_value(self):
        assert abs(lower_bound_mp(1.5) - 0.6) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_bound_mp(2.0)
        with pytest.raises(DomainError):
            lower_bound_mp(0.0)
        for p in (1.9999, 1.9999999):  # finite up to the open end, tending to 1
            assert abs(lower_bound_mp(p) - 1.0) < 1e-3


class TestBombieriClosedForm:
    def test_knots(self):
        assert abs(bombieri_closed_form(1.0 / 3.0) - 1.0) < 1e-12
        assert abs(bombieri_closed_form(1.0 / math.sqrt(2.0)) - math.sqrt(2.0)) < 1e-12

    def test_agrees_with_envelope_maximum(self):
        for r in np.linspace(1.0 / 3.0, 1.0 / math.sqrt(2.0), 50):
            closed = (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r
            assert abs(maximize_envelope(1.0, float(r)).value - closed) < 1e-10

    def test_argmax_formula(self):
        for r in np.linspace(1.0 / 3.0, 1.0 / math.sqrt(2.0), 25):
            expected = (1.0 - math.sqrt((1.0 - r * r) / 2.0)) / r
            found = maximize_envelope(1.0, float(r)).argmax
            assert abs(found - expected) < 1e-8

    def test_domain(self):
        for r in (0.2, 0.75):
            with pytest.raises(DomainError):
                bombieri_closed_form(r)


class TestPaulsenMajorant:
    def test_knot_continuity(self):
        r = 1.0 / 3.0
        big_m, _ = paulsen_majorant(r)
        other_branch = (4.0 * r * r + (1.0 - r) ** 2) / (4.0 * r * (1.0 - r))
        assert big_m == 1.0
        assert abs(other_branch - 1.0) < 1e-14

    def test_values_at_half(self):
        big_m, small_m = paulsen_majorant(0.5)
        assert abs(big_m - 1.25) < 1e-15
        assert abs(small_m - 2.0 / math.sqrt(3.0)) < 1e-15

    def test_bombieri_refines_paulsen(self):
        for r in np.linspace(1.0 / 3.0, 1.0 / math.sqrt(2.0), 40):
            assert bombieri_closed_form(float(r)) <= paulsen_majorant(float(r))[1] + 1e-12


class TestPsymmetricRadius:
    def test_double_root_case(self):
        for p in range(1, 9):
            cert = psymmetric_radius(p, 0)
            assert abs(cert.radius - 3.0 ** (-1.0 / p)) <= 1e-12
            assert cert.method == "root_scan"  # no sign change: (3r^p-1)^2

    def test_simple_root_cases(self):
        assert abs(psymmetric_radius(1, 1).radius - 1.0 / math.sqrt(2.0)) < 1e-10
        assert abs(psymmetric_radius(2, 2).radius - 2.0 ** (-0.25)) < 1e-10
        for p in range(1, 9):
            assert abs(psymmetric_radius(p, p).radius - 2.0 ** (-1.0 / (2 * p))) <= 1e-12

    def test_residuals(self):
        for p in range(1, 9):
            for m in range(0, p + 1):
                assert psymmetric_radius(p, m).residual <= 1e-12

    def test_max_root_selected(self):
        # (2, 1) has two sign changes; the radius must be the largest root
        for p in range(1, 9):
            for m in range(0, p + 1):
                cert = psymmetric_radius(p, m)
                grid = np.linspace(cert.radius + 1e-3, 0.999, 500)
                assert np.all(psymmetric_root_equation(grid, p, m) > 0.0)

    def test_extremal_parameter(self):
        assert psymmetric_extremal_a(1, 0) == 1.0
        assert abs(psymmetric_extremal_a(1, 1) - math.sqrt(2.0) / 2.0) < 1e-10

    def test_extremal_parameter_range(self):
        for p in range(1, 9):
            for m in range(0, p + 1):
                a = psymmetric_extremal_a(p, m)
                assert 0.0 <= a <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            psymmetric_radius(2, 3)
        with pytest.raises(DomainError):
            psymmetric_radius(0, 0)
        with pytest.raises(DomainError):
            psymmetric_radius(1.5, 1)  # non-integer order must not truncate
        with pytest.raises(DomainError):
            psymmetric_radius(101, 1)  # degree-202 eigenproblem: refused, not solved


class TestBlaschkeSharpness:
    def test_degree_one_is_threshold(self):
        assert abs(blaschke_sharpness_radius(1, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-15
        for p in (0.5, 1.0, 1.5):
            assert abs(blaschke_sharpness_radius(1, p) - exact_branch_threshold(p)) < 1e-15

    def test_degree_two(self):
        assert abs(blaschke_sharpness_radius(2, 1.0) - math.sqrt(2.0 / 3.0)) < 1e-15

    def test_monotone_to_one(self):
        for p in (0.5, 1.0, 1.5):
            values = [blaschke_sharpness_radius(d, p) for d in range(1, 30)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert values[-1] < 1.0
            assert blaschke_sharpness_radius(10**6, p) > 0.999999

    def test_domain(self):
        with pytest.raises(DomainError):
            blaschke_sharpness_radius(0, 1.0)
        for d in (math.inf, math.nan):
            with pytest.raises(DomainError):
                blaschke_sharpness_radius(d, 1.0)


class TestScalarProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.05, 2.0, allow_nan=False),
        st.floats(0.0, 0.95, allow_nan=False),
    )
    def test_envelope_dominates_both_terms(self, a, p, r):
        value = envelope_value(a, p, r)
        assert value >= a**p - 1e-15
        assert value >= r * (1 - a * a) ** p / (1 - r * a**p) - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 2.0, allow_nan=False), st.floats(0.0, 0.95, allow_nan=False))
    def test_supremum_at_least_one(self, p, r):
        # the class contains unimodular constants, so the supremum is >= 1
        assert mp_theorem1(p, r).value >= 1.0 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 0.98, allow_nan=False))
    def test_paulsen_cap_at_least_one(self, r):
        big_m, small_m = paulsen_majorant(r)
        assert big_m >= 1.0 and small_m >= 1.0 - 1e-15


class TestBombieriBourgainBound:
    def test_zero_constant_value(self):
        expected = (1.0 - 0.9**4) ** (-0.25)
        assert abs(bb_lower_bound(1.5, 0.9, 0.1, 0.0) - expected) < 1e-14

    def test_positive_constant_decreases(self):
        base = bb_lower_bound(1.5, 0.9, 0.1, 0.0)
        assert bb_lower_bound(1.5, 0.9, 0.1, 1.0) < base
        assert bb_lower_bound(1.5, 0.9, 0.1, 2.0) < bb_lower_bound(1.5, 0.9, 0.1, 1.0)

    def test_gap_to_upper_bound_vanishes_at_c_zero(self):
        for r in (0.9, 0.99, 0.999):
            gap = mp_theorem1(1.5, r).value - bb_lower_bound(1.5, r, 0.1, 0.0)
            assert abs(gap) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            bb_lower_bound(1.5, 0.5, 0.1, 0.0)  # below the threshold
        with pytest.raises(DomainError):
            bb_lower_bound(1.0, 0.9, 0.1, 0.0)  # p must be in (1, 2)
        # non-finite inputs, and finite ones whose correction overflows
        for eps, big_c in ((math.nan, 0.0), (0.1, math.inf), (1e308, 1.0), (700.0, 1e200)):
            with pytest.raises(DomainError):
                bb_lower_bound(1.5, 0.9, eps, big_c)


# maximize_envelope (value, argmax, iterations, bracket_width) as float.hex,
# pinned at the commit before the candidate grids were cached
PINNED_ENVELOPE = {
    (1.5, 0.7, False): ("0x1.055f2a8d85cb6p+0", "0x1.81cd351e27d88p-1", 44, "0x1.5eb0000000000p-41"),
    (1.5, 0.0, False): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, "0x0.0p+0"),
    (0.5, 0.2, False): ("0x1.0e712f4fbe0f7p+0", "0x1.d1405233e442bp-1", 44, "0x1.5eb0000000000p-41"),
    (0.5, 0.0, True): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, "0x0.0p+0"),
    (1.0, 0.5, False): ("0x1.19dc7afdb7b46p+0", "0x1.8cee3d7e821d5p-1", 44, "0x1.5eb0000000000p-41"),
    (1.0, 0.2, True): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", 3, "0x0.0p+0"),
    (1.37, 0.41, True): ("0x1.0e3750b9efb2cp+0", "0x1.3a60ecbd6912dp-1", 44, "0x1.5eb0000000000p-41"),
    (1.9, 0.95, False): ("0x1.04ba050681f78p+0", "0x1.6b087546e3a09p-1", 44, "0x1.5eb0000000000p-41"),
}

# powered_radius_rp (radius, residual) as float.hex, pinned the same way
PINNED_RP = {
    1.0: ("0x1.5555555555555p-2", "0x1.0000000000000p-54"),
    1.05: ("0x1.894ee5381c448p-2", "0x1.4000000000000p-51"),
    1.37: ("0x1.31fc819de0db6p-1", "0x1.0000000000000p-52"),
    1.5: ("0x1.5abdf1539d431p-1", "0x1.0000000000000p-53"),
    1.95: ("0x1.ee680acc8923ep-1", "0x1.0000000000000p-52"),
    0.5: ("0x0.0p+0", "0x0.0p+0"),
}


class TestPinnedScalars:
    @pytest.mark.parametrize("args", sorted(PINNED_ENVELOPE))
    def test_maximize_envelope_bits(self, args):
        res = maximize_envelope(*args)
        got = (res.value.hex(), float(res.argmax).hex(), res.iterations, float(res.bracket_width).hex())
        assert got == PINNED_ENVELOPE[args]

    @pytest.mark.parametrize("p", sorted(PINNED_RP))
    def test_powered_radius_bits(self, p):
        cert = powered_radius_rp(p)
        assert (cert.radius.hex(), float(cert.residual).hex()) == PINNED_RP[p]


def _reference_envelope(a, p, r, weight):
    # the formula as written before the scalar path dropped its 0-d arrays
    a = np.asarray(a, dtype=float)
    return a**p + weight * r * (1.0 - a * a) ** p / (1.0 - r * a**p)


def _reference_rp_quotient(a, p):
    a = np.asarray(a, dtype=float)
    ap = a**p
    return (1.0 - ap) / (ap * (1.0 - ap) + (1.0 - a * a) ** p)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestScalarFormulaBits:
    """The envelope and the r_p quotient keep every bit of the 0-d-array
    formulas: a^p through numpy's power ufunc, (1-a^2)^p through libm's pow
    at a float and through the ufunc on an array.  The two pows differ in
    the last bit on a few percent of inputs, so a swap would show here."""

    def _draws(self):
        rng = np.random.default_rng(20261018)
        n = 12_000
        a = rng.random(n)
        a[:4] = (0.0, 1.0, 0.5, 1.0 - 2.0**-53)
        p = rng.uniform(0.05, 2.0, n)
        p[4 : 4 + 3 * 400] = np.repeat([0.5, 1.0, 2.0], 400)
        r = rng.uniform(0.0, 1.0 - 1e-9, n)
        return a, p, r

    def test_envelope_at_floats(self):
        a, p, r = self._draws()
        with np.errstate(all="ignore"):
            for ai, pi, ri, w in zip(a.tolist(), p.tolist(), r.tolist(), [1.0, 2.0] * len(a)):
                got = radii._envelope(ai, pi, ri, w)
                assert _bits(got) == _bits(_reference_envelope(ai, pi, ri, w)), (ai, pi, ri, w)

    def test_rp_quotient_at_floats(self):
        a, p, _ = self._draws()
        with np.errstate(all="ignore"):
            for ai, pi in zip(a.tolist(), p.tolist()):
                got = radii._rp_quotient(ai, pi)
                assert _bits(got) == _bits(_reference_rp_quotient(ai, pi)), (ai, pi)

    def test_on_the_grids(self):
        a, p, r = self._draws()
        grid = np.concatenate([np.linspace(0.0, 1.0, 2048), a])
        with np.errstate(all="ignore"):
            for pi, ri in zip(p[:60].tolist() + [0.5, 1.0, 2.0], r[:63].tolist()):
                for w in (1.0, 2.0):
                    got = radii._envelope(grid, pi, ri, w)
                    assert np.array_equal(_bits(got), _bits(_reference_envelope(grid, pi, ri, w)))
                got = radii._rp_quotient(grid, pi)
                assert np.array_equal(_bits(got), _bits(_reference_rp_quotient(grid, pi)))


def _reference_bisection(pred, lo, hi):
    # the fixed 80-step loop the early stop must reproduce exactly
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBisectPredicate:
    @pytest.mark.parametrize("root", [0.25, 1.0 / 3.0, 0.5, 0.67723039766008786, 0.9, 0.999])
    def test_stops_when_the_bracket_closes(self, root):
        calls = []

        def pred(r):
            calls.append(r)
            return r > root

        got = radii._bisect_predicate(pred, 0.0, 1.0 - 1e-9)
        assert len(calls) <= 55
        assert got == _reference_bisection(lambda r: r > root, 0.0, 1.0 - 1e-9)

    def test_step_cap_still_binds(self):
        # a root at 1e-300 needs ~1000 halvings: both loops stop at 80
        calls = []
        got = radii._bisect_predicate(lambda r: calls.append(r) or r > 1e-300, 0.0, 1.0)
        assert len(calls) == 80
        assert got == _reference_bisection(lambda r: r > 1e-300, 0.0, 1.0)

    def test_radii_equal_the_80_step_loop(self):
        top = 1.0 - 1e-9
        assert rp_via_envelope_bisection(1.0) == _reference_bisection(lambda r: 3.0 * r - 1.0 > 0.0, 0.0, top)
        assert powered_radius_rp(1.0).residual == abs(
            rp_via_infimum(1.0) - _reference_bisection(lambda r: 3.0 * r - 1.0 > 0.0, 0.0, top)
        )
        assert rp_via_envelope_bisection(1.5) == _reference_bisection(
            lambda r: maximize_envelope(1.5, r).value > 1.0, 0.0, top
        )
        assert be_radius().radius == _reference_bisection(lambda r: be_bound(r) > 1.0, 0.0, 0.999)
        for p in (1.0, 2.0, 3.0):
            want = _reference_bisection(lambda r: be_harmonic_bound(p, r) > 1.0, 0.0, 0.999)
            assert be_harmonic_radius(p).radius == want
        want = _reference_bisection(lambda r: 5.0 * r - 1.0 > 0.0, 0.0, 0.9)
        assert harmonic_radius_p1().radius == want
