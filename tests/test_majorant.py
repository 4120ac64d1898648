"""Powered sums, certified tails and the quadratic coefficient inequality."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import (
    CertifiedSum,
    CoefficientSeries,
    DomainError,
    SchurFunction,
    be_extremal_coeffs,
    mobius_automorphism_coeffs,
    powered_sum,
    sample_schur,
    schur_synthesis,
    schur_synthesis_rows,
    verify_lemma_quadratic,
)
from bohrlab import majorant
from bohrlab.majorant import _harmonic_rows, _lp_combination_rows, _powered_rows, _quadratic_rows
from bohrlab.montecarlo import SLACK_TOL, _sample_rows
from bohrlab.series import _coanalytic_rows
from pair_rows import pair_rows


class TestPoweredSum:
    def test_constant_series(self):
        c = schur_synthesis(SchurFunction([0.7]), 50)
        for p in (0.5, 1.0, 2.0):
            ps = powered_sum(c, p, 0.5)
            assert abs(ps.lower - 0.7**p) < 1e-15
            assert ps.tail_bound < 1e-12
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
        assert math.isclose(powered_sum(certified, p, r).tail_bound, expected, rel_tol=1e-15)
        plain = CoefficientSeries(certified.coeffs)
        assert math.isclose(powered_sum(plain, p, r).tail_bound, r**33 / (1 - r), rel_tol=1e-15)

    def test_tail_shrinks_with_order(self):
        r = 0.7
        t1 = powered_sum(mobius_automorphism_coeffs(0.5, 32), 1.0, r).tail_bound
        t2 = powered_sum(mobius_automorphism_coeffs(0.5, 64), 1.0, r).tail_bound
        assert t2 <= t1 * r**32

    def test_upper_monotone_in_r(self):
        for seed in range(5):
            c = schur_synthesis(sample_schur(seed, 0, 12), 64)
            for p in (0.5, 1.0, 1.5, 2.0):
                uppers = [powered_sum(c, p, r).upper for r in np.arange(0.1, 0.95, 0.1)]
                assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_parseval_bound(self):
        for seed in range(20):
            c = schur_synthesis(sample_schur(seed, 0, 12), 64)
            assert np.sum(np.abs(c.coeffs) ** 2) <= 1.0 + 1e-12


def harmonic_sum(a, b, p, r):
    """_harmonic_rows on the one pair (a, b), as a CertifiedSum."""
    return CertifiedSum(*(float(side[0]) for side in _harmonic_rows(a[None], b[None], p, r)[:2]))


class TestHarmonicPoweredSum:
    def test_zero_coanalytic_matches_analytic_sum(self):
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([0.0]), 64)
        hs = harmonic_sum(a, b, 1.0, 0.4)
        ps = powered_sum(CoefficientSeries(a, certified=True), 1.0, 0.4)
        assert abs(hs.lower - ps.lower) < 1e-15

    def test_unimodular_dilatation_doubles(self):
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([1.0]), 64)
        hs = harmonic_sum(a, b, 1.0, 0.4)
        mods = np.abs(a)
        expected = mods[0] + 2.0 * np.dot(mods[1:], 0.4 ** np.arange(1, 65))
        assert abs(hs.lower - expected) < 1e-14

    def test_equality_case_at_harmonic_radius(self):
        # near the degenerate argmax a -> 1 the doubled sum reaches 1 at r = 1/5
        a, b = pair_rows(SchurFunction([1.0 - 1e-8, -1.0]), SchurFunction([1.0]), 400)
        hs = harmonic_sum(a, b, 1.0, 0.2)
        assert abs(hs.lower - 1.0) < 1e-9
        assert abs(hs.upper - 1.0) < 1e-9

    def test_tail_is_doubled_envelope(self):
        a, b = pair_rows(SchurFunction([0.2]), SchurFunction([0.3]), 16)
        hs = harmonic_sum(a, b, 1.0, 0.5)
        assert hs.tail_bound == 2.0 * 0.5**17 / 0.5


def quadratic_sides(c, big_r):
    """(lhs, rhs) of the quadratic inequality for one series, as
    verify_lemma_quadratic scores it, checked against the one-row reference
    below."""
    partial, tail, rhs = (float(side[0]) for side in _quadratic_rows(c.coeffs[None], big_r))
    assert (partial, tail, rhs) == reference_quadratic(c.coeffs, big_r)
    return partial + tail, rhs


class TestQuadraticSumCheck:
    def test_automorphism_attains_equality(self):
        lhs, rhs = quadratic_sides(mobius_automorphism_coeffs(0.6, 400), 0.8)
        assert abs(lhs - rhs) < 1e-9

    def test_constant_series(self):
        c = schur_synthesis(SchurFunction([0.4]), 200)
        lhs, rhs = quadratic_sides(c, 0.5)
        assert lhs < 1e-50
        assert rhs > 0.0

    def test_random_samples_at_r_one(self):
        for seed in range(50):
            c = schur_synthesis(sample_schur(seed, 0, 8), 64)
            lhs, rhs = quadratic_sides(c, 1.0)
            assert lhs <= rhs + 1e-10

    def test_r_domain(self):
        for big_r in (0.0, 1.1):
            with pytest.raises(DomainError):
                verify_lemma_quadratic(1, big_r)


def same(x, y) -> bool:
    """Bit-for-bit equality of two floats."""
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# One-row references: the enclosures as they were computed one series at a
# time, before the row-wise forms.  The block forms must reproduce them bit for
# bit: numpy's array power and complex modulus round differently in the last
# bit from libm's scalar pow and hypot (the a_0 terms), and matmul sums in
# another order than np.dot.

def reference_powered(c, p, r, certified):
    value = float(np.dot(np.abs(c) ** p, r ** np.arange(len(c))))
    geo = r ** len(c) / (1.0 - r)
    return value, (1.0 - float(min(abs(c[0]), 1.0)) ** 2) ** p * geo if certified else geo


def reference_harmonic(a, b, p, r):
    amods, bmods, powers = np.abs(a), np.abs(b), r ** np.arange(len(a))
    value = float(amods[0] ** p + np.dot(amods[1:] ** p + bmods[1:] ** p, powers[1:]))
    return value, 2.0 * r ** len(a) / (1.0 - r)


def reference_lp_combination(a, b, p, r):
    terms = (np.abs(a[1:]) ** p + np.abs(b[1:]) ** p) ** (1.0 / p)
    value = float(np.dot(terms, r ** np.arange(1, len(a))))
    return value, 2.0 ** (1.0 / p) * r ** len(a) / (1.0 - r)


def reference_quadratic(c, big_r):
    mods2 = np.abs(c) ** 2
    partial = float(np.dot(mods2[1:], (big_r ** np.arange(len(c)))[1:]))
    tail = max(0.0, 1.0 - float(mods2.sum())) * big_r ** len(c)
    if big_r < 1.0:
        geo = big_r ** len(c) / (1.0 - big_r)
        tail = min((1.0 - float(min(abs(c[0]), 1.0)) ** 2) ** 2 * geo, tail)
    x = abs(c[0]) ** 2
    rhs = 1.0 - x if big_r == 1.0 else big_r * (1.0 - x) ** 2 / (1.0 - x * big_r)
    return partial, tail, rhs


def reference_coanalytic(a, w):
    b = np.zeros(len(a), dtype=complex)
    k = np.arange(1, len(a))
    b[1:] = np.convolve(w[:-1], k * a[1:])[: len(a) - 1] / k
    return b


class TestRowEnclosures:
    """Row i of each block enclosure is bit for bit the same row form on row i
    alone (for the powered sum, its one-row case powered_sum) and the one-row
    reference above."""

    ORDER = 80

    @pytest.fixture(scope="class")
    def schurs(self):
        # samples, automorphisms with a_0 near 1, and a snapped unimodular
        # parameter that leaves |a_0| = 1 + 1 ulp
        extra = [
            SchurFunction([0.97, -1.0]),
            SchurFunction([0.2, -1.0]),
            SchurFunction([0.9946128276123087 + 0.1036596505350456j]),
        ]
        h = [SchurFunction(row) for row in _sample_rows(5, 0, np.arange(40), 12)] + extra
        omega = [SchurFunction(row) for row in _sample_rows(5, 1, np.arange(40), 12)] + extra
        return h, omega

    @pytest.fixture(scope="class")
    def block(self, schurs):
        c, w = (schur_synthesis_rows(s, self.ORDER) for s in schurs)
        shifted = np.concatenate((np.zeros((len(c), 1)), c[:, :-1]), axis=1)
        return c, w, shifted

    @staticmethod
    def check(rows, one, reference):
        for i, (got, alone, ref) in enumerate(zip(zip(*rows), one, reference)):
            assert all(map(same, got, ref)), (i, got, ref)
            assert all(map(same, alone, ref)), (i, alone, ref)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.995])
    def test_powered_rows(self, block, p, r):
        c = block[0]
        for certified in (True, False):
            series = [CoefficientSeries(row, certified=certified) for row in c]
            one = [(s.lower, s.tail_bound) for s in (powered_sum(x, p, r) for x in series)]
            reference = [reference_powered(row, p, r, certified) for row in c]
            self.check(_powered_rows(c, p, r, certified), one, reference)
            tails = [powered_sum(x, p, r).tail_bound for x in series]
            assert all(map(same, tails, (ref[1] for ref in reference)))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.995])
    def test_harmonic_rows(self, block, p, r):
        c, w, _ = block
        b = _coanalytic_rows(c, w)
        one = [
            tuple(side[0] for side in _harmonic_rows(x[None], y[None], p, r))
            for x, y in zip(c, b)
        ]
        reference = [reference_harmonic(x, y, p, r) for x, y in zip(c, b)]
        self.check(_harmonic_rows(c, b, p, r), one, reference)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.995])
    def test_lp_combination_rows(self, block, p, r):
        _, w, a = block
        b = _coanalytic_rows(a, w)
        one = [
            tuple(side[0] for side in _lp_combination_rows(x[None], y[None], p, r))
            for x, y in zip(a, b)
        ]
        reference = [reference_lp_combination(x, y, p, r) for x, y in zip(a, b)]
        self.check(_lp_combination_rows(a, b, p, r), one, reference)

    @pytest.mark.parametrize("big_r", [0.5, 0.995, 1.0])
    def test_quadratic_rows(self, block, big_r):
        c = block[0]
        one = [tuple(side[0] for side in _quadratic_rows(row[None], big_r)) for row in c]
        self.check(_quadratic_rows(c, big_r), one, [reference_quadratic(row, big_r) for row in c])

    def test_coanalytic_rows(self, schurs):
        # the 43 rows outnumber the outputs at orders 16 and 40, where the
        # block is formed one output at a time, and not at 80, where it is
        # formed one convolution per row; the shifted rows are be's, a_0 = 0
        for order in (16, 40, self.ORDER):
            c, w = (schur_synthesis_rows(s, order) for s in schurs)
            assert 40 < len(c) < self.ORDER
            shifted = np.concatenate((np.zeros((len(c), 1)), c[:, :-1]), axis=1)
            b, b_shifted = (_coanalytic_rows(a, w) for a in (c, shifted))
            for a, rows in ((c, b), (shifted, b_shifted)):
                assert (rows[:, 0] == 0).all()
                for i in range(len(a)):
                    assert reference_coanalytic(a[i], w[i]).tobytes() == rows[i].tobytes(), (order, i)
            for i, (h, omega) in enumerate(zip(*schurs)):
                a_i, b_i = pair_rows(h, omega, order)
                assert np.array_equal(a_i, c[i])
                assert b_i.tobytes() == b[i].tobytes(), (order, i)


class TestHeadTermBits:
    """The a_0 terms of the row forms, as numpy arrays, have the bits of the
    per-row CPython floats they replaced: abs of a complex and ** of floats,
    which call libm's hypot and pow.  Each example holds thousands of heads,
    so a numpy whose np.hypot or np.float_power took a SIMD loop (np.abs and
    np.power differ from libm on ~35% and ~0.1-6% of such heads) fails here.
    """

    ROWS = 4000
    # |a_0| = 1 + 1 ulp: a unimodular parameter snapped to the circle
    SNAPPED = -0.8288355951220819 + 0.5594922307401815j

    @classmethod
    def heads(cls, seed: int, n: int) -> np.ndarray:
        """Coefficient rows (ROWS, n + 1): a_0 disk-uniform or at 0, 1, -1j and
        the snapped parameter, the other coefficients random."""
        rng = np.random.default_rng(seed)
        c = np.sqrt(rng.random((cls.ROWS, n + 1))) * np.exp(2j * np.pi * rng.random((cls.ROWS, n + 1)))
        c[:4, 0] = (0.0, 1.0, -1j, cls.SNAPPED)
        c[4:40, 0] *= 1.0 - 10.0 ** -rng.integers(1, 16, 36)  # near the circle
        assert abs(cls.SNAPPED) > 1.0
        return c

    @staticmethod
    def bits_equal(got, want) -> bool:
        return np.asarray(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 80),
        p=st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.0, 3.0, exclude_min=True)),
        r=st.floats(0.0, 0.999),
        big_r=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    def test_head_terms_match_cpython_floats(self, seed, n, p, r, big_r):
        c = self.heads(seed, n)
        heads = [abs(a0) for a0 in c[:, 0].tolist()]
        geo = r ** c.shape[1] / (1.0 - r)
        tails = [(1.0 - min(head, 1.0) ** 2) ** p * geo for head in heads]
        assert self.bits_equal(majorant._geometric_tails(c, p, r), tails)
        # at order 0 the harmonic sum is its head term |a_0|^p, |a_0| by np.abs
        zero = np.zeros((len(c), 1), dtype=complex)
        head_terms = [m**p for m in np.abs(c[:, :1])[:, 0].tolist()]
        assert self.bits_equal(_harmonic_rows(c[:, :1], zero, p, r)[0], head_terms)
        x = [head**2 for head in heads]
        if big_r == 1.0:
            rhs = [1.0 - xi for xi in x]
        else:
            rhs = [big_r * (1.0 - xi) ** 2 / (1.0 - xi * big_r) for xi in x]
        assert self.bits_equal(_quadratic_rows(c, big_r)[2], rhs)


class TestHolderTails:
    """The Parseval-Hölder tail T_N, each row form's third output, bounds the
    terms N < k <= 20,000 of the row's own series.  The rows are depth-12
    samples, samples with one parameter at modulus 1 - 1e-6 (Parseval
    remainders 1 - sum_{k<=N} |a_k|^2 of 1e-7 to 1e-6) and finite Blaschke
    products, a parameter at modulus 1, whose remainder cancels to rounding
    error, so that only its floor keeps T_N above the tail."""

    ORDER = 20_000

    def test_remainder_floor_is_the_slack_tolerance(self):
        # a Parseval remainder that cancels to rounding error is floored at
        # the verifiers' failure margin, as the README's Hölder formula states
        assert majorant._REMAINDER_FLOOR == SLACK_TOL

    @pytest.fixture(scope="class")
    def series(self):
        params = _sample_rows(11, 0, np.arange(80), 12)
        for i, row in enumerate(params[40:]):
            row[i % 13] *= (1.0 if i >= 20 else 1.0 - 1e-6) / abs(row[i % 13])
        c = schur_synthesis_rows([SchurFunction(row) for row in params], self.ORDER)
        # harmonic pairs of two rows of each kind; the l^p class takes the
        # same rows behind a leading zero parameter
        h = params[[0, 1, 41, 42, 61, 62]]
        omegas = [SchurFunction(w) for w in _sample_rows(12, 0, np.arange(6), 12)]
        pairs, lp_pairs = (
            np.array([pair_rows(SchurFunction(f), w, self.ORDER) for f, w in zip(rows, omegas)])
            for rows in (h, np.concatenate((np.zeros((len(h), 1)), h), axis=1))
        )
        return c, pairs.transpose(1, 0, 2), lp_pairs.transpose(1, 0, 2)

    def check(self, rows, enclose, terms, r):
        powers = r ** np.arange(self.ORDER + 1)
        for n in (64, 256, 1024, 4000):  # 4000: N* at the order cap, where it is read too
            bound = enclose(*(x[:, : n + 1] for x in rows))[2]
            truncated = np.vecdot(terms[:, n + 1 :], powers[n + 1 :])
            assert (bound >= truncated).all(), (n, (bound / truncated).min())

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_powered(self, series, p, r):
        c = series[0]
        self.check((c,), partial(_powered_rows, p=p, r=r), np.abs(c) ** p, r)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_harmonic(self, series, p, r):
        a, b = series[1]
        terms = np.abs(a) ** p + np.abs(b) ** p
        self.check((a, b), partial(_harmonic_rows, p=p, r=r), terms, r)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_lp_combination(self, series, p, r):
        a, b = series[2]
        terms = (np.abs(a) ** p + np.abs(b) ** p) ** (1.0 / p)
        self.check((a, b), partial(_lp_combination_rows, p=p, r=r), terms, r)
