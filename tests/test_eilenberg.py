"""Bounds and radii for the vanishing-at-0 product-avoiding class."""

import math

import numpy as np
import pytest

from bohrlab import (
    CoefficientSeries,
    DomainError,
    NonVanishingConstantTerm,
    SchurFunction,
    be_bound,
    be_coefficient_check,
    be_extremal_coeffs,
    be_harmonic_bound,
    be_harmonic_radius,
    be_lp_combination_sum,
    be_radius,
    harmonic_pair,
    powered_sum,
    sample_schur,
    schur_synthesis,
    shifted_by_z,
    trial_seed,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestBeBound:
    def test_values(self):
        assert abs(be_bound(INV_SQRT2) - 1.0) < 1e-12
        assert be_bound(0.0) == 0.0
        assert abs(be_bound(0.6) - 0.75) < 1e-15

    def test_monotone_below_radius(self):
        assert be_bound(0.7) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            be_bound(1.0)


class TestBeRadius:
    def test_value(self):
        cert = be_radius()
        assert abs(cert.radius - INV_SQRT2) < 1e-12
        assert cert.residual <= 1e-10

    def test_sharpness_witness(self):
        ps = powered_sum(be_extremal_coeffs(INV_SQRT2, 400), 1.0, INV_SQRT2)
        assert abs(ps.lower - 1.0) < 1e-9 and abs(ps.upper - 1.0) < 1e-9


class TestBeCoefficientCheck:
    def test_extremal_family_attains(self):
        check = be_coefficient_check(be_extremal_coeffs(INV_SQRT2, 400))
        assert check.ok
        assert abs(check.lhs - 1.0) < 1e-9

    def test_identity_function(self):
        check = be_coefficient_check(CoefficientSeries([0.0, 1.0], certified=True))
        assert check.ok
        assert abs(check.lhs - 1.0) < 1e-12

    def test_shifted_samples(self):
        for i in range(100):
            f = shifted_by_z(schur_synthesis(sample_schur(trial_seed(77, i), 12), 64))
            assert be_coefficient_check(f).ok

    def test_shifted_samples_majorant_dominance(self):
        # sum |a_k| r^k stays under the class bound (and under 1 below the
        # radius) across the admissible range
        radius = 1.0 / math.sqrt(2.0) - 1e-6
        for i in range(100):
            f = shifted_by_z(schur_synthesis(sample_schur(trial_seed(31, i), 12), 400))
            for r in (0.2, 0.5, 0.65, radius):
                total = powered_sum(f, 1.0, r)
                assert total.upper <= be_bound(r) + 1e-9
                assert total.upper <= 1.0 + 1e-9

    def test_requires_vanishing_constant_term(self):
        with pytest.raises(NonVanishingConstantTerm):
            be_coefficient_check(CoefficientSeries([0.3, 0.1]))

    def test_modulus_violation_flags(self):
        # legal constructor input, but too much mass: 2z fails sum and modulus
        bad = CoefficientSeries([0.0, 2.0])
        check = be_coefficient_check(bad)
        assert not check.ok
        assert check.lhs > 1.0 + 1e-10


class TestBeHarmonicBound:
    def test_radius_values(self):
        r5 = 1.0 / math.sqrt(5.0)
        assert abs(be_harmonic_bound(1.0, r5) - 1.0) < 1e-12
        r3 = 1.0 / math.sqrt(3.0)
        assert abs(be_harmonic_bound(2.0, r3) - 1.0) < 1e-12
        assert be_harmonic_bound(2.0, 0.0) == 0.0

    def test_non_increasing_in_p(self):
        r = 0.4
        values = [be_harmonic_bound(p, r) for p in (1.0, 1.2, 1.5, 2.0, 3.0, 10.0)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - values[-2]) < 1e-15  # constant for p >= 2

    def test_domain(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                be_harmonic_bound(p, 0.3)


class TestBeHarmonicRadius:
    def test_p_one(self):
        cert = be_harmonic_radius(1.0)
        assert abs(cert.radius - 1.0 / math.sqrt(5.0)) < 1e-12
        assert cert.residual <= 1e-10

    def test_p_two(self):
        assert abs(be_harmonic_radius(2.0).radius - 1.0 / math.sqrt(3.0)) < 1e-12

    def test_large_p_limit(self):
        assert abs(be_harmonic_radius(1e6).radius - 1.0 / math.sqrt(3.0)) < 1e-6


class TestLpCombinationSum:
    def _pair(self, seed, order=64):
        g = sample_schur(trial_seed(seed, 0), 10)
        h_params = SchurFunction(np.concatenate(([0.0], g.params)))
        return harmonic_pair(h_params, sample_schur(trial_seed(seed, 1), 10), order)

    def test_requires_vanishing_constant_term(self):
        pair = harmonic_pair(SchurFunction([0.5]), SchurFunction([0.2]), 8)
        with pytest.raises(NonVanishingConstantTerm):
            be_lp_combination_sum(pair, 1.0, 0.3)

    def test_p_one_splits_into_two_sums(self):
        pair = self._pair(5)
        combo = be_lp_combination_sum(pair, 1.0, 0.4)
        amods = np.abs(pair.analytic.coeffs[1:])
        bmods = np.abs(pair.coanalytic.coeffs[1:])
        direct = np.dot(amods + bmods, 0.4 ** np.arange(1, 65))
        assert abs(combo.lower - direct) < 1e-13

    def test_dominated_by_bound_on_grid(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            for i in range(25):
                pair = self._pair(1000 + i)
                for r in (0.3, 0.5, 0.57):
                    combo = be_lp_combination_sum(pair, p, r)
                    assert combo.upper <= be_harmonic_bound(p, r) + 1e-9

    def test_tail_envelope(self):
        pair = self._pair(9, order=16)
        combo = be_lp_combination_sum(pair, 2.0, 0.5)
        assert math.isclose(combo.tail_bound, math.sqrt(2.0) * 0.5**17 / 0.5, rel_tol=1e-15)
