"""Bounds and radii for the vanishing-at-0 product-avoiding class."""

import math

import numpy as np
import pytest

from bohrlab import (
    CoefficientSeries,
    DomainError,
    SchurFunction,
    be_bound,
    be_extremal_coeffs,
    be_harmonic_bound,
    be_harmonic_radius,
    be_radius,
    powered_sum,
    sample_schur,
    schur_synthesis,
)
from bohrlab.majorant import _lp_combination_rows
from pair_rows import pair_rows

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def class_check(c):
    """(sum_{k>=1} |a_k|^2, ok) for a series with a_0 = 0, where ok requires
    the square sum <= 1 and |f(z)| <= |z|/sqrt(1-|z|^2) on 64-point circles at
    |z| = 0.5 and 0.8.  The square sum folds in the Parseval remainder for a
    certified series; the modulus bound allows the truncation slack
    |z|^(N+1)/(1-|z|)."""
    assert c.coeffs[0] == 0.0
    mods2 = np.abs(c.coeffs) ** 2
    partial = float(mods2[1:].sum())
    sum_sq = partial + (max(0.0, 1.0 - partial) if c.certified else 0.0)
    ok = sum_sq <= 1.0 + 1e-10
    for rho in (0.5, 0.8):
        z = rho * np.exp(2j * np.pi * np.arange(64) / 64)
        slack = rho ** (c.order + 1) / (1.0 - rho)
        modulus = np.abs(np.polyval(c.coeffs[::-1], z)).max()
        ok = ok and modulus <= rho / math.sqrt(1.0 - rho * rho) + slack + 1e-10
    return sum_sq, ok


def class_sample(seed, index, order):
    """z g for a sampled unit-ball g, synthesized as verify_be samples the
    class: a leading zero Schur parameter."""
    g = sample_schur(seed, index, 12)
    return schur_synthesis(SchurFunction(np.concatenate(([0.0], g.params))), order)


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
    """Class membership of the extremal family and of verify_be's samples."""

    def test_extremal_family_attains(self):
        sum_sq, ok = class_check(be_extremal_coeffs(INV_SQRT2, 400))
        assert ok
        assert abs(sum_sq - 1.0) < 1e-9

    def test_identity_function(self):
        sum_sq, ok = class_check(CoefficientSeries([0.0, 1.0], certified=True))
        assert ok
        assert abs(sum_sq - 1.0) < 1e-12

    def test_shifted_samples(self):
        for i in range(100):
            f = class_sample(77, i, 64)
            assert f.coeffs[0] == 0.0
            assert class_check(f)[1]

    def test_shifted_samples_majorant_dominance(self):
        # sum |a_k| r^k stays under the class bound (and under 1 below the
        # radius) across the admissible range
        radius = 1.0 / math.sqrt(2.0) - 1e-6
        for i in range(100):
            f = class_sample(31, i, 400)
            for r in (0.2, 0.5, 0.65, radius):
                total = powered_sum(f, 1.0, r)
                assert total.upper <= be_bound(r) + 1e-9
                assert total.upper <= 1.0 + 1e-9

    def test_modulus_violation_flags(self):
        # the check is not vacuous: 2z has too much mass for the sum and modulus
        sum_sq, ok = class_check(CoefficientSeries([0.0, 2.0]))
        assert not ok
        assert sum_sq > 1.0 + 1e-10


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
    """majorant._lp_combination_rows on one pair of the class: a leading zero
    Schur parameter gives a_0 = 0, as in verify_be."""

    def _pair(self, seed, order=64):
        g = sample_schur(seed, 0, 10)
        h_params = SchurFunction(np.concatenate(([0.0], g.params)))
        a, b = pair_rows(h_params, sample_schur(seed, 1, 10), order)
        assert a[0] == 0.0
        return a[None], b[None]

    def test_p_one_splits_into_two_sums(self):
        a, b = self._pair(5)
        lower, _, _ = _lp_combination_rows(a, b, 1.0, 0.4)
        direct = np.dot(np.abs(a[0, 1:]) + np.abs(b[0, 1:]), 0.4 ** np.arange(1, 65))
        assert abs(lower[0] - direct) < 1e-13

    def test_dominated_by_bound_on_grid(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            for i in range(25):
                a, b = self._pair(1000 + i)
                for r in (0.3, 0.5, 0.57):
                    lower, tail, _ = _lp_combination_rows(a, b, p, r)
                    assert lower[0] + tail[0] <= be_harmonic_bound(p, r) + 1e-9

    def test_tail_envelope(self):
        a, b = self._pair(9, order=16)
        _, tail, _ = _lp_combination_rows(a, b, 2.0, 0.5)
        assert math.isclose(tail[0], math.sqrt(2.0) * 0.5**17 / 0.5, rel_tol=1e-15)
