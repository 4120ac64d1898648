"""Powered sums, certified tails and the quadratic coefficient inequality."""

import math

import numpy as np
import pytest

from bohrlab import (
    CoefficientSeries,
    DomainError,
    SchurFunction,
    be_extremal_coeffs,
    geometric_tail,
    harmonic_pair,
    harmonic_powered_sum,
    mobius_automorphism_coeffs,
    powered_sum,
    quadratic_sum_check,
    sample_schur,
    schur_synthesis,
)


class TestPoweredSum:
    def test_constant_series(self):
        c = schur_synthesis(SchurFunction([0.7]), 50)
        for p in (0.5, 1.0, 2.0):
            ps = powered_sum(c, p, 0.5)
            assert abs(ps.truncated_value - 0.7**p) < 1e-15
            assert ps.tail_bound < 1e-12
            assert ps.lower == ps.truncated_value
            assert ps.upper == ps.lower + ps.tail_bound

    def test_mobius_closed_form_bracket(self):
        ps = powered_sum(mobius_automorphism_coeffs(0.5, 200), 1.0, 1.0 / 3.0)
        assert abs(ps.lower - 0.8) < 1e-12
        assert abs(ps.upper - 0.8) < 1e-12

    def test_be_extremal_sharpness_bracket(self):
        a = 1.0 / math.sqrt(2.0)
        ps = powered_sum(be_extremal_coeffs(a, 400), 1.0, a)
        assert ps.lower <= 1.0 + 1e-9 and ps.upper >= 1.0 - 1e-9
        assert abs(ps.lower - 1.0) < 1e-9 and abs(ps.upper - 1.0) < 1e-9

    def test_domain_errors(self):
        c = mobius_automorphism_coeffs(0.3, 8)
        with pytest.raises(DomainError):
            powered_sum(c, 1.0, 1.0)
        for p in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                powered_sum(c, p, 0.5)

    def test_tail_formula(self):
        certified = mobius_automorphism_coeffs(0.6, 32)
        p, r = 1.5, 0.4
        expected = (1 - 0.36) ** p * r**33 / (1 - r)
        assert math.isclose(geometric_tail(certified, p, r), expected, rel_tol=1e-15)
        plain = CoefficientSeries(certified.coeffs)
        assert math.isclose(geometric_tail(plain, p, r), r**33 / (1 - r), rel_tol=1e-15)

    def test_tail_shrinks_with_order(self):
        r = 0.7
        t1 = geometric_tail(mobius_automorphism_coeffs(0.5, 32), 1.0, r)
        t2 = geometric_tail(mobius_automorphism_coeffs(0.5, 64), 1.0, r)
        assert t2 <= t1 * r**32

    def test_upper_monotone_in_r(self):
        for seed in range(5):
            c = schur_synthesis(sample_schur(seed, 12), 64)
            for p in (0.5, 1.0, 1.5, 2.0):
                uppers = [powered_sum(c, p, r).upper for r in np.arange(0.1, 0.95, 0.1)]
                assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_parseval_bound(self):
        for seed in range(20):
            c = schur_synthesis(sample_schur(seed, 12), 64)
            assert np.sum(np.abs(c.coeffs) ** 2) <= 1.0 + 1e-12


class TestHarmonicPoweredSum:
    def test_zero_coanalytic_matches_analytic_sum(self):
        pair = harmonic_pair(SchurFunction([0.5, -1.0]), SchurFunction([0.0]), 64)
        hs = harmonic_powered_sum(pair, 1.0, 0.4)
        ps = powered_sum(pair.analytic, 1.0, 0.4)
        assert abs(hs.truncated_value - ps.truncated_value) < 1e-15

    def test_unimodular_dilatation_doubles(self):
        pair = harmonic_pair(SchurFunction([0.5, -1.0]), SchurFunction([1.0]), 64)
        hs = harmonic_powered_sum(pair, 1.0, 0.4)
        mods = np.abs(pair.analytic.coeffs)
        expected = mods[0] + 2.0 * np.dot(mods[1:], 0.4 ** np.arange(1, 65))
        assert abs(hs.truncated_value - expected) < 1e-14

    def test_equality_case_at_harmonic_radius(self):
        # near the degenerate argmax a -> 1 the doubled sum reaches 1 at r = 1/5
        pair = harmonic_pair(SchurFunction([1.0 - 1e-8, -1.0]), SchurFunction([1.0]), 400)
        hs = harmonic_powered_sum(pair, 1.0, 0.2)
        assert abs(hs.lower - 1.0) < 1e-9
        assert abs(hs.upper - 1.0) < 1e-9

    def test_tail_is_doubled_envelope(self):
        pair = harmonic_pair(SchurFunction([0.2]), SchurFunction([0.3]), 16)
        hs = harmonic_powered_sum(pair, 1.0, 0.5)
        assert hs.tail_bound == 2.0 * 0.5**17 / 0.5


class TestQuadraticSumCheck:
    def test_automorphism_attains_equality(self):
        check = quadratic_sum_check(mobius_automorphism_coeffs(0.6, 400), 0.8)
        assert abs(check.lhs - check.rhs) < 1e-9
        assert check.ok

    def test_constant_series(self):
        c = schur_synthesis(SchurFunction([0.4]), 200)
        check = quadratic_sum_check(c, 0.5)
        assert check.lhs < 1e-50
        assert check.rhs > 0.0
        assert check.ok

    def test_random_samples_at_r_one(self):
        for seed in range(50):
            c = schur_synthesis(sample_schur(seed, 8), 64)
            check = quadratic_sum_check(c, 1.0)
            assert check.ok
            assert check.lhs <= check.rhs + 1e-10

    def test_requires_certificate(self):
        plain = CoefficientSeries([0.5, 0.1])
        with pytest.raises(DomainError):
            quadratic_sum_check(plain, 0.5)

    def test_r_domain(self):
        c = mobius_automorphism_coeffs(0.3, 8)
        with pytest.raises(DomainError):
            quadratic_sum_check(c, 0.0)
        with pytest.raises(DomainError):
            quadratic_sum_check(c, 1.1)
