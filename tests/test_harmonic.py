"""Doubled-envelope harmonic bounds, thresholds and dilatation domination."""

import math

import numpy as np
import pytest

from bohrlab import (
    DomainError,
    SchurFunction,
    harmonic_bound,
    harmonic_closed_form_p1,
    harmonic_radius_p1,
    harmonic_threshold,
    maximize_envelope,
    mp_theorem1,
    sample_schur,
)
from bohrlab.majorant import _harmonic_rows
from bohrlab.radii import _envelope
from pair_rows import pair_rows

SQRT_TWO_THIRDS = math.sqrt(2.0 / 3.0)


def doubled_envelope(a, p, r):
    """The doubled envelope a^p + 2 r (1-a^2)^p / (1 - r a^p) as
    maximize_envelope(..., doubled=True) evaluates it."""
    return float(_envelope(a, p, r, 2.0))


class TestHarmonicEnvelope:
    def test_boundary_one(self):
        for p in (0.5, 1.0, 2.0):
            for r in (0.0, 0.4, 0.9):
                assert doubled_envelope(1.0, p, r) == 1.0

    def test_simple_value(self):
        assert abs(doubled_envelope(0.0, 1.0, 0.2) - 0.4) < 1e-15

    def test_radius_case_attains_one(self):
        res = maximize_envelope(1.0, 0.2, doubled=True)
        assert abs(res.value - 1.0) < 1e-10
        assert abs(doubled_envelope(res.argmax, 1.0, 0.2) - 1.0) < 1e-10

    def test_domain(self):
        # the doubled envelope is reached through maximize_envelope, whose
        # p and r rules hold on the doubled path too
        for p, r in ((0.0, 0.2), (2.5, 0.2), (1.0, 1.0), (1.0, -0.1)):
            with pytest.raises(DomainError):
                maximize_envelope(p, r, doubled=True)


class TestHarmonicThreshold:
    def test_p_one_value(self):
        assert abs(harmonic_threshold(1.0) - SQRT_TWO_THIRDS) < 1e-12

    def test_p_half_value(self):
        expected = (2.0 ** (-2.0 / 3.0) + 1.0) ** (-0.75)
        assert abs(harmonic_threshold(0.5) - expected) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic_threshold(2.0)
        with pytest.raises(DomainError):
            harmonic_threshold(0.0)

    def test_monotonicity_probe(self):
        # diagnostic only: report the threshold along a p-grid, no assertion
        # on monotonicity
        values = {p: harmonic_threshold(float(p)) for p in np.linspace(0.1, 1.9, 10)}
        print("threshold probe:", {f"{p:.2f}": f"{v:.6f}" for p, v in values.items()})
        assert all(0.0 < v < 1.0 for v in values.values())


class TestHarmonicBound:
    def test_large_p_branch(self):
        value, valid = harmonic_bound(3.0, 0.6)
        assert value == 1.2 and valid
        value, valid = harmonic_bound(3.0, 0.4)
        assert value == 1.0 and valid

    def test_p_one_matches_closed_form(self):
        value, valid = harmonic_bound(1.0, 0.5)
        expected = (5.0 - 2.0 * math.sqrt(6.0) * math.sqrt(0.75)) / 0.5
        assert valid
        assert abs(value - expected) < 1e-10
        assert abs(expected - (10.0 - 4.0 * math.sqrt(4.5))) < 1e-12

    def test_validity_flag(self):
        assert harmonic_bound(1.0, 0.8).valid  # below sqrt(2/3)
        assert not harmonic_bound(1.0, 0.83).valid
        assert harmonic_bound(2.0, 0.95).valid  # threshold degenerates to 1

    def test_dominates_analytic_bound(self):
        for p in (0.8, 1.0, 1.5):
            for r in np.linspace(0.05, harmonic_threshold(p) - 1e-3, 8):
                r = float(r)
                if r > 2.0 ** (p / 2.0 - 1.0):
                    continue
                assert harmonic_bound(p, r).value >= mp_theorem1(p, r).value - 1e-12


class TestClosedFormP1:
    def test_left_endpoint_is_one(self):
        assert abs(harmonic_closed_form_p1(0.2) - 1.0) < 1e-12

    def test_right_endpoint(self):
        expected = (5.0 - 2.0 * math.sqrt(2.0)) * math.sqrt(1.5)
        assert abs(harmonic_closed_form_p1(SQRT_TWO_THIRDS) - expected) < 1e-12

    def test_agrees_with_doubled_maximization(self):
        for r in np.linspace(0.2, SQRT_TWO_THIRDS, 50):
            found = maximize_envelope(1.0, float(r), doubled=True).value
            assert abs(found - harmonic_closed_form_p1(float(r))) < 1e-10

    def test_argmax_formula(self):
        for r in np.linspace(0.21, SQRT_TWO_THIRDS, 20):
            found = maximize_envelope(1.0, float(r), doubled=True).argmax
            expected = (3.0 - math.sqrt(6.0) * math.sqrt(1.0 - r * r)) / (3.0 * r)
            assert abs(found - expected) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic_closed_form_p1(0.1)
        with pytest.raises(DomainError):
            harmonic_closed_form_p1(0.9)


class TestHarmonicRadius:
    def test_radius_is_one_fifth(self):
        cert = harmonic_radius_p1()
        assert abs(cert.radius - 0.2) < 1e-10
        assert cert.residual <= 1e-10

    def test_doubled_envelope_around_radius(self):
        assert maximize_envelope(1.0, 0.19, doubled=True).value == 1.0
        assert maximize_envelope(1.0, 0.19, doubled=True).argmax == 1.0
        assert maximize_envelope(1.0, 0.21, doubled=True).value > 1.0


def domination_sides(a, b, r):
    """(lhs, rhs) of sum |b_k|^2 r^k <= sum |a_k|^2 r^k over k >= 1, with an
    upper tail estimate folded into lhs and none into rhs."""
    n = len(a) - 1
    powers = r ** np.arange(1, n + 1)
    amods2 = np.abs(a) ** 2
    bmods2 = np.abs(b) ** 2
    # |b_k| <= 1 per term, and sum |b_k|^2 <= sum |a_k|^2 <= 1 caps the rest
    tail = min(r ** (n + 1) / (1.0 - r), max(0.0, 1.0 - float(bmods2.sum())) * r ** (n + 1))
    return float(np.dot(bmods2[1:], powers)) + tail, float(np.dot(amods2[1:], powers))


class TestDilatationDomination:
    """A pair's co-analytic part is dominated by its analytic part, the fact
    behind the |b_k| <= 1 tail of majorant._harmonic_rows."""

    def test_zero_dilatation(self):
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([0.0]), 400)
        lhs, rhs = domination_sides(a, b, 0.6)
        assert lhs <= rhs + 1e-10
        assert lhs < 1e-12

    def test_constant_dilatation_proportionality(self):
        c = 0.7
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([c]), 400)
        lhs, rhs = domination_sides(a, b, 0.5)
        assert lhs <= rhs + 1e-10
        assert abs(lhs - c * c * rhs) < 1e-12

    def test_unimodular_constant_equality(self):
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([1.0]), 400)
        for r in (0.3, 0.6, 0.9):
            lhs, rhs = domination_sides(a, b, r)
            assert lhs <= rhs + 1e-10
            assert abs(lhs - rhs) < 1e-10

    def test_random_pairs(self):
        for i in range(100):
            a, b = pair_rows(
                sample_schur(1234, i, 12),
                sample_schur(4321, i, 12),
                400,
            )
            assert np.abs(b).max() <= 1.0
            for r in (0.3, 0.6, 0.9):
                lhs, rhs = domination_sides(a, b, r)
                assert lhs <= rhs + 1e-10


class TestDominanceRange:
    def test_random_pairs_within_supported_range(self):
        # the doubled-envelope derivation covers r <= (2^(1/(2-p)) + 1)^(p/2-1)
        for p in (0.5, 1.0, 1.5):
            supported = (2.0 ** (1.0 / (2.0 - p)) + 1.0) ** (p / 2.0 - 1.0)
            bound = harmonic_bound(p, supported).value
            for i in range(150):
                a, b = pair_rows(
                    sample_schur(8, i, 12),
                    sample_schur(80, i, 12),
                    300,
                )
                lower, tail, _ = _harmonic_rows(a[None], b[None], p, supported)
                assert lower[0] + tail[0] <= bound + 1e-9

    # frozen counterexample: Schur parameters (real, imaginary) of h and omega,
    # the worst of 50 sampled pairs at p = 1, r = 0.81 and seed 2 under the
    # earlier PCG64 trial streams
    H = [
        ("-0x1.7a806ce0ac61cp-4", "-0x1.290a7d66be120p-1"),
        ("-0x1.3e4e6cbffb1e3p-4", "0x1.4a59248065067p-1"),
        ("-0x1.70ee3caaca3eep-1", "-0x1.1e61070ae1a33p-1"),
        ("-0x1.c4878469381c1p-3", "-0x1.48ff004d93ea4p-1"),
        ("-0x1.141433ff4b4ddp-1", "-0x1.8fea91c880973p-1"),
        ("0x1.b14ff2ef7aadcp-3", "-0x1.a9e0e79381e9ap-1"),
        ("0x1.c3b7cc18f7986p-1", "0x1.59c2f49956cf2p-2"),
        ("0x1.75f0443a7706dp-1", "0x1.0a19a3b15dff4p-2"),
        ("0x1.3999e5368f91ap-1", "0x1.34ebd0bbe352bp-2"),
        ("-0x1.0435f01cb0694p-1", "-0x1.30bc25f091ebep-2"),
        ("0x1.d4a62e642f459p-3", "-0x1.4bcdad91ab114p-1"),
        ("-0x1.09cae6ec9bec6p-1", "-0x1.18e665d8dbe5fp-1"),
        ("0x1.92b2e6cfbb378p-1", "-0x1.f1e57d25619f6p-2"),
    ]
    OMEGA = [
        ("0x1.c1b6d6e032b10p-3", "0x1.c83c645df4bf3p-1"),
        ("0x1.1e2870475b7aep-2", "0x1.9176876de45b1p-1"),
        ("-0x1.05b4539ed0afep-1", "0x1.45f62843a80eap-2"),
        ("-0x1.13b75b5974630p-1", "-0x1.a7ff92348579dp-1"),
        ("-0x1.3f80213324ce7p-1", "0x1.571ec390340bbp-1"),
        ("-0x1.89cb2b5b94b9fp-1", "0x1.7025c0a76499ap-2"),
        ("0x1.753e56a976a91p-1", "-0x1.0937493021f3ap-6"),
        ("-0x1.da7f60f82ed29p-5", "0x1.bafe184f36336p-1"),
        ("0x1.83ea8695bbb40p-1", "0x1.b6d99b4538723p-3"),
        ("-0x1.a3825988a2cedp-1", "0x1.6a9557d019871p-3"),
        ("-0x1.5cf7b78e02ad5p-1", "0x1.23ab0de884c42p-1"),
        ("0x1.a5c365ad80b7bp-3", "0x1.0f28fa0e9001dp-2"),
        ("-0x1.4b1df9007a87cp-1", "0x1.6cc7d40832bf5p-7"),
    ]

    @staticmethod
    def schur(pairs):
        return SchurFunction([complex(float.fromhex(x), float.fromhex(y)) for x, y in pairs])

    def test_known_violation_beyond_supported_range(self):
        # inside the nominal validity range but beyond the supported one, a
        # dominated pair exceeds the doubled-envelope bound by a macroscopic
        # margin; the nominal threshold over-claims
        r = 0.81
        assert r < harmonic_threshold(1.0)
        a, b = pair_rows(self.schur(self.H), self.schur(self.OMEGA), 400)
        lower, _, _ = _harmonic_rows(a[None], b[None], 1.0, r)
        bound = harmonic_bound(1.0, r).value
        assert lower[0] > bound + 0.01


class TestLargePExtremalProbe:
    def test_pair_with_unit_first_coefficients_attains(self):
        # h(z) = z with omega = 1 gives |a_1| = |b_1| = 1 and sum = 2r
        a, b = pair_rows(SchurFunction([0.0, 1.0]), SchurFunction([1.0]), 64)
        assert abs(a[1] - 1.0) < 1e-15
        assert abs(b[1] - 1.0) < 1e-15
        for p in (3.0, 5.0, 10.0):
            lower, _, _ = _harmonic_rows(a[None], b[None], p, 0.6)
            assert abs(lower[0] - 1.2) < 1e-12
            bound = harmonic_bound(p, 0.6).value
            assert lower[0] <= bound + 1e-12
