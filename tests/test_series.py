"""Series engine: coefficient families, Schur recursion."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab import (
    CoefficientSeries,
    DomainError,
    NonSchurInput,
    SchurFunction,
    be_extremal_coeffs,
    envelope_value,
    mobius_automorphism_coeffs,
    powered_sum,
    psymmetric_extremal_coeffs,
    schur_analysis,
    schur_synthesis,
    schur_synthesis_rows,
)
from bohrlab import cli, series
from bohrlab.montecarlo import sample_schur
from bohrlab.series import _BLOCK_FROM_ORDER, _divide_trunc
from pair_rows import pair_rows


def params_strategy(max_depth=12, max_modulus=1.0):
    pair = st.tuples(
        st.floats(0.0, max_modulus, allow_nan=False),
        st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    )
    return st.lists(pair, min_size=1, max_size=max_depth + 1).map(
        lambda ps: SchurFunction([m * np.exp(1j * t) for m, t in ps])
    )


def cut_short(s, index, angle, snapped):
    """s with the parameter at index made unimodular (or within the snap
    tolerance of the circle), so the synthesis stops there."""
    params = np.array(s.params)
    index = min(index, len(params) - 1)
    params[index] = (1.0 - 5e-15 if snapped else 1.0) * np.exp(1j * angle)
    return SchurFunction(params)


# mixed depths 0..12, some rows cut short by a unimodular parameter
block_row = st.one_of(
    params_strategy(max_depth=12),
    st.builds(
        cut_short,
        params_strategy(max_depth=12),
        st.integers(0, 12),
        st.floats(0.0, 2.0 * math.pi),
        st.booleans(),
    ),
)


def reciprocal(coeffs, order):
    """1/f through the given order, by the division kernel on a one-row block."""
    one = np.ones((1, 1), dtype=complex)
    return _divide_trunc(one, np.array([coeffs], dtype=complex).T, order)[0]


def divide_loop(num, den, order):
    """Reference: the one-row forward recurrence, one dot product per step."""
    out = np.zeros(order + 1, dtype=complex)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0.0
        t = min(n, len(den) - 1)
        if t:
            acc -= np.dot(den[1 : t + 1], out[n - 1 :: -1][:t])
        out[n] = acc / den[0]
    return out


def reciprocal_rows(den, order):
    """1/den through the given order for each row, by the recurrence."""
    return series._divide_loop(np.ones((1, len(den)), dtype=complex), den.T, order)


def schur_pq(params):
    """P and Q with P/Q the Schur function of params, built in floats as
    the synthesis builds them."""
    p, q = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
    for g in params[::-1]:
        zp, q = np.concatenate(([0.0], p)), np.concatenate((q, [0.0]))
        p, q = g * q + zp, q + np.conj(g) * zp
    return p, q


def divide_mpmath(mpmath, num, den, order):
    """num/den through the given order in mpmath at the working precision,
    rounded to complex; num and den are taken as exact."""
    p, q = [mpmath.mpc(x) for x in num], [mpmath.mpc(x) for x in den]
    out = []
    for n in range(order + 1):
        acc = p[n] if n < len(p) else mpmath.mpc(0)
        acc -= mpmath.fsum(q[j] * out[n - j] for j in range(1, min(n, len(q) - 1) + 1))
        out.append(acc / q[0])
    return np.array(out, dtype=complex)


class TestTruncatedArithmetic:
    """The truncated division kernel behind synthesis and analysis."""

    def test_matches_one_row_loop(self):
        # the kernel sums each step in another order than a dot product, and
        # from _BLOCK_FROM_ORDER on it divides a short denominator k outputs a
        # step with one residual correction, so rows agree with the loop to
        # rounding, not bit for bit; den lengths 1 and 2 give the smallest
        # block maps
        rng = np.random.default_rng(8)
        high = _BLOCK_FROM_ORDER + 300
        for rows, dlen, order in ((25, 14, 60), (6, 1, high), (6, 2, high), (6, 14, high)):
            num = rng.normal(size=(rows, 6)) + 1j * rng.normal(size=(rows, 6))
            # sum_j |den_j| < 1 for j >= 1 keeps den free of zeros in the disk
            den = (rng.normal(size=(rows, dlen)) + 1j * rng.normal(size=(rows, dlen))) * 0.04
            den[:, 0] = 1.0
            block = _divide_trunc(num.T, den.T, order)
            assert block.shape == (rows, order + 1)
            for row, n, d in zip(block, num, den):
                np.testing.assert_allclose(row, divide_loop(n, d, order), rtol=0, atol=1e-14)

    def test_reciprocal_geometric(self):
        a = 0.4
        out = reciprocal([1.0, -a], 3)
        np.testing.assert_allclose(out, [1.0, a, a**2, a**3], rtol=1e-15)

    def test_reciprocal_constant(self):
        np.testing.assert_array_equal(reciprocal([1.0], 2), [1.0, 0.0, 0.0])

    def test_reciprocal_hand_recurrence(self):
        np.testing.assert_allclose(reciprocal([1.0, 1.0, 1.0], 2), [1.0, -1.0, 0.0], atol=1e-15)

    def test_reciprocal_inverts(self):
        rng = np.random.default_rng(11)
        a = np.concatenate(([1.0], rng.normal(size=7) * 0.3))
        prod = np.convolve(a, reciprocal(a, 7))[:8]
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(prod, expected, atol=1e-14)

    def test_block_division_matches_mpmath(self):
        # depth-12 samples at order 1,000 against the same division in 200-bit
        # arithmetic: the refined block result stays at the loop's rounding level
        mpmath = pytest.importorskip("mpmath")
        order = 1000
        schurs = [sample_schur(2027, i, 12) for i in range(4)]
        with mpmath.workprec(200):
            for s, row in zip(schurs, schur_synthesis_rows(schurs, order)):
                p, q = [mpmath.mpc(0)], [mpmath.mpc(1)]
                for g in map(mpmath.mpc, s.params[::-1]):
                    zp = [mpmath.mpc(0)] + p
                    q = q + [mpmath.mpc(0)]
                    p = [g * b + a for a, b in zip(zp, q)]
                    q = [b + mpmath.conj(g) * a for a, b in zip(zp, q)]
                assert np.abs(row - divide_mpmath(mpmath, p, q, order)).max() < 1e-13

    def test_near_circle_rows_match_mpmath(self):
        # parameters near the unit circle make den's zeros approach it and
        # 1/den's coefficients large: with random phases the rows stay on the
        # block division and keep the recurrence's accuracy; with aligned
        # phases 1/den is steep and the rows take the recurrence itself
        mpmath = pytest.importorskip("mpmath")
        order = 2 * _BLOCK_FROM_ORDER
        rng = np.random.default_rng(41)
        rows = [rng.uniform(0.99, 1.0 - 1e-6, 13) for _ in range(4)]
        for _ in range(3):
            mods = np.full(13, 0.99)
            mods[rng.choice(13, 4, replace=False)] = 1.0 - 1e-6
            rows.append(mods)
        params = [m * np.exp(2j * np.pi * rng.random(13)) for m in rows]
        params += [np.full(13, 0.97 + 0j), np.full(8, 0.999j), np.full(5, 1.0 - 1e-6 + 0j)]
        num, den = np.zeros((len(params), 14), dtype=complex), np.zeros((len(params), 14), dtype=complex)
        for i, g in enumerate(params):
            p, q = schur_pq(g)
            num[i, : len(p)], den[i, : len(q)] = p, q
        steep = np.array([False] * 7 + [True] * 3)
        assert list(np.abs(reciprocal_rows(den, series._BLOCK_OUTPUTS - 1)).max(axis=1)
                    > series._BLOCK_MAX_GAIN) == list(steep)
        block = _divide_trunc(num.T, den.T, order)
        loop = series._divide_loop(num.T, den.T, order)
        np.testing.assert_array_equal(block[steep], loop[steep])
        with mpmath.workprec(200):
            refs = [divide_mpmath(mpmath, n, d, order) for n, d in zip(num, den)]
        block_err = np.abs(block - refs).max(axis=1)
        loop_err = np.abs(loop - refs).max(axis=1)
        assert block_err.max() <= 2.0 * loop_err.max()
        assert np.all(block_err <= 8.0 * loop_err + 1e-14)

    def test_block_rows_match_single_rows(self):
        rng = np.random.default_rng(3)
        num = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
        den = (rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9))) * 0.25
        den[:, 0] = 1.0  # the kernel divides by monic denominators
        block = _divide_trunc(num.T, den.T, 30)
        assert block.shape == (40, 31)
        for i in range(40):
            alone = _divide_trunc(num[i:i + 1].T, den[i:i + 1].T, 30)[0]
            np.testing.assert_array_equal(block[i], alone)

    @pytest.mark.parametrize("dmax", [1, 2, 5, 13])
    def test_recurrence_rows_alone_match_rows_in_blocks(self, dmax):
        """numpy sends a one-element multiply with a broadcast operand to its
        scalar loop, whose complex product is not fused as the vector loop's
        is: with a (rows,) view of y_n, a one-row block's steps at t = 1 give
        the row other bits than the same row in a block.  Every stop from 1
        to dmax + 2 puts such steps at the end."""
        rng = np.random.default_rng(dmax)
        num = rng.normal(size=(dmax + 2, 130)) + 1j * rng.normal(size=(dmax + 2, 130))
        den = (rng.normal(size=(dmax + 1, 130)) + 1j * rng.normal(size=(dmax + 1, 130))) * 0.3
        den[0] = 1.0
        for stop in range(1, dmax + 3):
            for rows in (2, 5, 130):
                block = series._recur(num[:, :rows], den[:, :rows], stop)
                for i in range(rows):
                    alone = series._recur(num[:, i:i + 1], den[:, i:i + 1], stop)
                    assert (bits(alone[:, 0]) == bits(block[:, i])).all(), (stop, rows, i)


def rowwise_recur(y, den, stop):
    """Reference: the forward recurrence on (rows, .) arrays in the kernel's
    scatter order: once y_n is divided, den_1 y_n, ..., den_t y_n are
    subtracted from the next t right-hand sides, so each y_n takes its
    products one at a time, oldest first."""
    dmax = den.shape[1] - 1
    for n in range(stop):
        y[:, n] /= den[:, 0]
        t = min(dmax, stop - 1 - n)
        if t:
            y[:, n + 1 : n + 1 + t] -= den[:, 1 : t + 1] * y[:, n : n + 1]
    return y


def rowwise_divide(num, den, order):
    """Reference: the division on (rows, .) arrays, with the row-wise
    recurrence wherever the kernel runs its coefficient-major one."""
    rows, dmax = den.shape[0], den.shape[1] - 1

    def loop(num, den):
        y = np.zeros((len(den), order + 1), dtype=complex)
        width = min(num.shape[1], order + 1)
        y[:, :width] = num[:, :width]
        return rowwise_recur(y, den, order + 1)

    if order < _BLOCK_FROM_ORDER or dmax >= series._BLOCK_OUTPUTS:
        return loop(num, den)
    h = np.zeros((rows, series._BLOCK_OUTPUTS), dtype=complex)
    h[:, 0] = 1.0
    rowwise_recur(h, den, series._BLOCK_OUTPUTS)
    steep = np.abs(h).max(axis=1) > series._BLOCK_MAX_GAIN
    out = np.empty((rows, order + 1), dtype=complex)
    out[steep] = loop(num[steep], den[steep])
    if not steep.all():
        out[~steep] = series._divide_blocks(num[~steep], den[~steep], h[~steep], order)
    return out


def rowwise_rows(schurs, order):
    """Reference: schur_synthesis_rows with P and Q built on rows and divided
    by rowwise_divide, one block per active length."""
    actives = [series._active_params(s.params) for s in schurs]
    out = np.empty((len(actives), order + 1), dtype=complex)
    for length in {len(a) for a in actives}:
        rows = [i for i, a in enumerate(actives) if len(a) == length]
        g = np.array([actives[i] for i in rows])
        zero = np.zeros((len(g), 1), dtype=complex)
        p, q = zero, np.ones_like(zero)
        for j in range(length - 1, -1, -1):
            zp, q = np.concatenate((zero, p), axis=1), np.concatenate((q, zero), axis=1)
            p = g[:, j:j + 1] * q + zp
            q += np.conj(g[:, j:j + 1]) * zp
        out[rows] = rowwise_divide(p[:, : order + 1], q[:, : order + 1], order)
    return out


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestCoefficientMajorKernel:
    """The coefficient-major synthesis and division give the bits of the
    row-wise recurrence, which subtracts each y_n's products from the next
    right-hand sides in the kernel's scatter order."""

    @staticmethod
    def schurs(rng, rows, depth, shifted=False, cut=False):
        params = np.sqrt(rng.random((rows, depth + 1))) * np.exp(2j * np.pi * rng.random((rows, depth + 1)))
        if shifted:  # be's rows: a leading zero parameter synthesizes z * g
            params = np.pad(params, ((0, 0), (1, 0)))
        if cut:  # every third row stops at a unimodular (or snapped) parameter
            for i in range(0, rows, 3):
                params[i, rng.integers(len(params[i]))] = (1.0 - 5e-15 * (i % 2)) * np.exp(1j * i)
        return [SchurFunction(row) for row in params]

    @pytest.mark.parametrize("rows", [1, 7, 130])
    def test_synthesis_matches_rowwise_reference(self, rows):
        # depths 0-100 put the scatter width t = min(dmax, stop - 1 - n) at
        # every length, odd and even, and orders on both sides of
        # _BLOCK_FROM_ORDER
        rng = np.random.default_rng(rows)
        depths = (0, 3, 4, 12, 13, 16, 64, 65, 100) if rows < 100 else (3, 13, 100)
        orders = (0, 1, 16, 241, _BLOCK_FROM_ORDER - 1, _BLOCK_FROM_ORDER, 1000)
        for depth in depths:
            for order in orders if rows < 100 else (16, _BLOCK_FROM_ORDER - 1, 1000):
                for shifted, cut in ((False, False), (True, False), (False, True)):
                    schurs = self.schurs(rng, rows, depth, shifted, cut)
                    got = schur_synthesis_rows(schurs, order)
                    assert (bits(got) == bits(rowwise_rows(schurs, order))).all(), (depth, order)

    @pytest.mark.parametrize("order", [16, 64, 600])
    def test_screen_sized_blocks_match_rowwise_reference(self, order):
        rng = np.random.default_rng(order)
        for shifted in (False, True):
            schurs = self.schurs(rng, 963, 12, shifted)
            got = schur_synthesis_rows(schurs, order)
            assert (bits(got) == bits(rowwise_rows(schurs, order))).all()

    def test_division_matches_rowwise_reference(self):
        # denominators short and long, steep rows inside a block-path block
        rng = np.random.default_rng(12)
        for rows, dlen, order in ((1, 14, 60), (7, 40, 700), (130, 3, 80), (130, 14, 600), (64, 90, 200)):
            num = rng.normal(size=(rows, 6)) + 1j * rng.normal(size=(rows, 6))
            den = (rng.normal(size=(rows, dlen)) + 1j * rng.normal(size=(rows, dlen))) * 0.04
            den[:, 0] = 1.0
            den[::5, 1] = -1.9  # a double zero near 1: 1/den is steep
            den[::5, 2] = 0.9
            got = _divide_trunc(num.T, den.T, order)
            assert got.strides[1] == got.itemsize  # contiguous rows, as np.vecdot reads them
            assert (bits(got) == bits(rowwise_divide(num, den, order))).all(), (rows, dlen, order)

    @pytest.mark.parametrize("order", [0, 1, 16, 64, _BLOCK_FROM_ORDER, 1000])
    def test_exact_zeros_keep_their_signs(self, order):
        # rows whose coefficients hold exact zeros, some of them real (their
        # imaginary parts all zeros): the unit constant, zero parameters,
        # be's shifted rows and real parameters keep every bit, the sign of
        # each zero too, without the division by Q_0 = 1
        rng = np.random.default_rng(order)
        params = [[1.0], [0.0, 0.0], [0.0], [0.0, 1.0], [0.0, 2 ** -0.5, -1.0], [-0.4, -0.5, 0.6],
                  [0.3j, -0.2j, 0.5], [complex(-0.0, -0.0), -0.5], [0.97, -1.0]]
        params += [np.concatenate(([0.0], s.params)) for s in self.schurs(rng, 4, 12)]
        params += [list(rng.uniform(-0.99, 0.99, 1 + i)) for i in range(13)]
        schurs = [SchurFunction(g) for g in params]
        for group in (schurs, *([s] for s in schurs)):
            got = schur_synthesis_rows(group, order)
            assert (bits(got) == bits(rowwise_rows(group, order))).all()


class TestCoefficientFamilies:
    def test_mobius_a_zero(self):
        out = mobius_automorphism_coeffs(0.0, 3)
        np.testing.assert_array_equal(out.coeffs, [0.0, -1.0, 0.0, 0.0])

    def test_mobius_closed_form(self):
        out = mobius_automorphism_coeffs(0.5, 2)
        np.testing.assert_allclose(out.coeffs, [0.5, -0.75, -0.375], rtol=1e-15)
        # the certified tail (1 - |a_0|^2)^p r^(N+1)/(1-r) at |a_0| = 0.5
        assert out.certified and powered_sum(out, 1.0, 0.5).tail_bound == 0.75 * 0.25

    def test_mobius_majorant_sum(self):
        # a + (1-a^2) r / (1 - a r) = 0.8 exactly at a = 0.5, r = 1/3
        ps = powered_sum(mobius_automorphism_coeffs(0.5, 200), 1.0, 1.0 / 3.0)
        assert abs(ps.lower - 0.8) < 1e-12 and abs(ps.upper - 0.8) < 1e-12

    def test_mobius_quadratic_sum_matches_geometric_form(self):
        # sum_{k>=1} |a_k|^2 R^k = R (1-a^2)^2 / (1 - a^2 R) up to truncation
        n = 200
        for a in (0.3, 0.6, 0.9):
            for big_r in (0.4, 0.8, 0.9):
                c = mobius_automorphism_coeffs(a, n)
                s = float(np.dot(np.abs(c.coeffs[1:]) ** 2, big_r ** np.arange(1, n + 1)))
                closed = big_r * (1 - a * a) ** 2 / (1 - a * a * big_r)
                assert abs(s - closed) < 1e-10

    def test_mobius_domain(self):
        with pytest.raises(DomainError):
            mobius_automorphism_coeffs(1.0, 4)
        with pytest.raises(DomainError):
            mobius_automorphism_coeffs(-0.1, 4)
        with pytest.raises(DomainError):
            mobius_automorphism_coeffs(0.5, -5)

    @pytest.mark.parametrize("a", [0.0, 1e-300, 0.2, 0.5, 0.8, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("order", [0, 1, 400, 4000])
    def test_mobius_powers_past_underflow_keep_their_bits(self, a, order):
        # against libm's pow, one power at a time: numpy's power may take a
        # SIMD loop a unit in the last place off it, so a_k is within 2 units
        # of -(1 - a^2) pow(a, k - 1); every a_k past a_0 has its sign bit set,
        # so a power that underflows gives -0.0
        got = mobius_automorphism_coeffs(a, order).coeffs
        want = np.array([-(1.0 - a * a) * math.pow(a, k) for k in range(order)])
        assert got[0] == a and not got.imag.any()
        assert np.signbit(got.real[1:]).all()
        np.testing.assert_array_max_ulp(got.real[1:], want, maxulp=2)

    def test_psymmetric_values(self):
        out = psymmetric_extremal_coeffs(2, 1, 0.5, 5)
        expected = np.zeros(6)
        expected[1], expected[3], expected[5] = -0.5, 0.75, 0.375
        np.testing.assert_allclose(out.coeffs, expected, rtol=1e-15)

    def test_psymmetric_matches_mobius_moduli(self):
        a = 0.37
        psym = psymmetric_extremal_coeffs(1, 0, a, 12)
        mob = mobius_automorphism_coeffs(a, 12)
        np.testing.assert_allclose(np.abs(psym.coeffs), np.abs(mob.coeffs), rtol=1e-15)

    def test_psymmetric_a_zero(self):
        out = psymmetric_extremal_coeffs(3, 2, 0.0, 8)
        expected = np.zeros(9)
        expected[5] = 1.0  # index m + p
        np.testing.assert_array_equal(np.abs(out.coeffs), expected)

    def test_psymmetric_domain(self):
        with pytest.raises(DomainError):
            psymmetric_extremal_coeffs(2, 3, 0.4, 5)
        with pytest.raises(DomainError):
            psymmetric_extremal_coeffs(0, 0, 0.4, 5)
        with pytest.raises(DomainError):
            psymmetric_extremal_coeffs(2, 1, 0.4, -5)
        with pytest.raises(DomainError):
            psymmetric_extremal_coeffs(2, float("nan"), 0.4, 5)

    def test_be_extremal_values(self):
        out = be_extremal_coeffs(0.5, 3)
        np.testing.assert_allclose(out.coeffs, [0.0, 0.5, -0.75, -0.375], rtol=1e-15)
        np.testing.assert_array_equal(
            be_extremal_coeffs(0.0, 4).coeffs, [0.0, 0.0, -1.0, 0.0, 0.0]
        )

    def test_be_extremal_domain(self):
        with pytest.raises(DomainError):
            be_extremal_coeffs(1.0, 4)
        with pytest.raises(DomainError):
            be_extremal_coeffs(0.5, -5)

    def test_zero_parameter_has_no_sign(self, capsys):
        # a is read as a + 0.0, so -0.0 gives every family, the envelope and
        # the CLI's extremal and radius commands (which echo a and m as the
        # library reads them) the bytes that 0.0 gives
        calls = (
            lambda a: mobius_automorphism_coeffs(a, 6).coeffs,
            lambda a: psymmetric_extremal_coeffs(2, 1, a, 6).coeffs,
            lambda a: be_extremal_coeffs(a, 6).coeffs,
            lambda a: np.array([envelope_value(a, p, 0.5) for p in (0.5, 1.0, 1.5)]),
        )
        for call in calls:
            assert call(-0.0).tobytes() == call(0.0).tobytes()
        for argv in (
            ["extremal", "--family", "mobius", "--r", "0.5", "--order", "3", "--a"],
            ["extremal", "--family", "be", "--r", "0.5", "--order", "3", "--a"],
            ["extremal", "--family", "psymmetric", "--p", "2", "--m", "1", "--r", "0.5", "--a"],
            ["extremal", "--family", "psymmetric", "--p", "2", "--a", "0.5", "--r", "0.5", "--m"],
            ["extremal", "--family", "mobius", "--a", "0.5", "--r", "0.5", "--order", "3", "--m"],
            ["radius", "--kind", "psymmetric", "--p", "2", "--m"],
        ):
            printed = []
            for zero in ("-0", "0"):
                assert cli.main(argv + [zero]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], argv

    def test_be_extremal_sharpness_sum(self):
        a = 1.0 / math.sqrt(2.0)
        ps = powered_sum(be_extremal_coeffs(a, 400), 1.0, a)
        assert abs(ps.lower - 1.0) < 1e-12
        assert abs(ps.upper - 1.0) < 1e-12


class TestSchurRecursion:
    def test_constant_synthesis(self):
        out = schur_synthesis(SchurFunction([0.3 + 0.1j]), 4)
        np.testing.assert_allclose(out.coeffs, [0.3 + 0.1j, 0, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("order", [0, 1, 16, 64, _BLOCK_FROM_ORDER - 1, _BLOCK_FROM_ORDER, 894, 4000])
    def test_unit_constant_synthesizes_to_e0(self, order):
        # the harmonic verifiers take omega = 1 as the row e_0 without synthesis
        out = schur_synthesis_rows([SchurFunction([1.0])], order)
        assert out.tobytes() == np.eye(1, order + 1, dtype=complex).tobytes()

    @pytest.mark.xfail(strict=True, reason="float Q has zeros inside the disk for these parameters")
    def test_parameters_crowding_the_circle_stay_in_the_ball(self):
        # 13 parameters at 0.999 with one phase: every |a_k| of a unit-ball
        # member is at most 1, yet the division by the float Q diverges (|a_k|
        # 8e5 at order 400 and 5e18 at order 1,000); once it is mended, this
        # test passes and strict xfail reports it
        out = schur_synthesis_rows([SchurFunction([0.999] * 13)], 1000)
        assert np.abs(out).max() <= 1.0 + 1e-9

    def test_zero_synthesis(self):
        out = schur_synthesis(SchurFunction([0.0, 0.0, 0.0]), 5)
        np.testing.assert_array_equal(out.coeffs, np.zeros(6))

    def test_degree_one_blaschke(self):
        # params [a, 1] give (a+z)/(1+az): a, then (-1)^(k-1) a^(k-1) (1-a^2)
        a = 0.37
        out = schur_synthesis(SchurFunction([a, 1.0]), 6)
        expected = [a] + [(-1) ** (k - 1) * a ** (k - 1) * (1 - a * a) for k in range(1, 7)]
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)

    def test_analysis_of_automorphism_terminates(self):
        c = mobius_automorphism_coeffs(0.5, 20)
        s = schur_analysis(c, 3)
        assert s.depth == 1
        assert abs(s.params[0] - 0.5) < 1e-14
        assert abs(abs(s.params[1]) - 1.0) < 1e-12

    def test_analysis_of_constant(self):
        s = schur_analysis(CoefficientSeries([0.3, 0.0, 0.0, 0.0]), 2)
        np.testing.assert_allclose(s.params, [0.3, 0.0, 0.0], atol=1e-15)

    def test_analysis_rejects_non_schur(self):
        with pytest.raises(NonSchurInput):
            schur_analysis(CoefficientSeries([1.5, 0.0, 0.0]), 1)

    def test_coefficient_roundtrip(self):
        # synthesis(analysis(C, D)) reproduces the leading coefficients
        rng = np.random.default_rng(314)
        worst = 0.0
        for _ in range(200):
            params = np.sqrt(rng.random(9)) * np.exp(2j * np.pi * rng.random(9))
            c = schur_synthesis(SchurFunction(params), 32)
            back = schur_synthesis(schur_analysis(c, 8), 32)
            worst = max(worst, np.abs(back.coeffs[:9] - c.coeffs[:9]).max())
        assert worst < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(params_strategy(max_depth=8, max_modulus=0.7))
    def test_parameter_roundtrip_away_from_circle(self, s):
        # the parameter-space identity holds when no intermediate modulus is
        # near 1 (conditioning ~ prod 1/(1-|g_j|^2) stays moderate)
        back = schur_analysis(schur_synthesis(s, 32), s.depth)
        assert back.depth == s.depth
        assert np.abs(back.params - s.params).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(params_strategy(max_depth=12), st.integers(8, 64))
    # a unimodular parameter whose snap leaves |a_0| one ulp above 1
    @example(SchurFunction([np.exp(0.875j)]), 8)
    def test_synthesis_certificate(self, s, order):
        out = schur_synthesis(s, order)
        mods = np.abs(out.coeffs)
        assert mods.max() <= 1.0 + 1e-12
        assert mods[1:].max(initial=0.0) <= 1.0 - mods[0] ** 2 + 1e-12
        # the tail uses |a_0| capped at 1: finite at p = 1.5 even one ulp above
        geo = 0.5 ** (order + 1) / 0.5
        tail = powered_sum(out, 1.5, 0.5).tail_bound
        assert out.certified and math.isfinite(tail)
        assert abs(tail - (1.0 - min(mods[0], 1.0) ** 2) ** 1.5 * geo) <= 1e-15 * geo

    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_row, min_size=1, max_size=30),
           st.one_of(st.integers(0, 64), st.integers(_BLOCK_FROM_ORDER, _BLOCK_FROM_ORDER + 600)))
    @example([SchurFunction([0.3, 0.5j])], 16)
    @example([SchurFunction([0.3, 0.5j, -0.2])] * 20 + [SchurFunction([0.4, 1.0, 0.9])], 16)
    @example([SchurFunction([0.3, 0.5j, -0.2])] * 5 + [SchurFunction([0.4, 1.0, 0.9])], 4000)
    # rows with a steep 1/den take the recurrence inside a block-path block
    @example([SchurFunction([0.97] * 13), SchurFunction([0.3, 0.5j] * 6 + [0.1]),
              SchurFunction([0.999j] * 8), SchurFunction([0.2] * 13)], 1000)
    def test_block_rows_bitwise_equal_single_rows(self, schurs, order):
        # a row's coefficients do not depend on the block it is synthesized
        # in, on the one-step recurrence, on the k-outputs-a-step division and
        # where rows of one block take different paths
        block = schur_synthesis_rows(schurs, order)
        assert block.shape == (len(schurs), order + 1)
        for row, s in zip(block, schurs):
            alone = schur_synthesis(s, order).coeffs
            np.testing.assert_array_equal(row.view(np.uint64), alone.view(np.uint64))

    def test_analysis_of_block_synthesis_takes_the_loop(self, monkeypatch):
        # schur_analysis divides by a full-length monic denominator on the
        # one-step recurrence itself, and inverts a block-path synthesis
        rng = np.random.default_rng(5)
        params = 0.7 * np.sqrt(rng.random(9)) * np.exp(2j * np.pi * rng.random(9))
        c = schur_synthesis(SchurFunction(params), _BLOCK_FROM_ORDER + 100)

        def no_blocks(den, h):
            raise AssertionError("schur_analysis reached the block division")

        monkeypatch.setattr(series, "_block_map", no_blocks)
        back = schur_analysis(c, 8)
        assert np.abs(back.params - params).max() < 1e-12

    def test_empty_block(self):
        assert schur_synthesis_rows([], 8).shape == (0, 9)

    @pytest.mark.parametrize("order", [16, _BLOCK_FROM_ORDER + 10])
    def test_parameter_block_matches_schur_functions(self, order):
        # the verifiers hand a (rows, length) parameter array to the synthesis;
        # a row cut short by a unimodular parameter sends the block through
        # the grouping by active length
        rng = np.random.default_rng(3)
        g = np.sqrt(rng.random((12, 5))) * np.exp(2j * np.pi * rng.random((12, 5)))
        for block in (g, np.concatenate((g, [[0.4, 1.0, 0.9, -0.5, 0.1]]))):
            expected = schur_synthesis_rows([SchurFunction(row) for row in block], order)
            got = series._synthesize_params(block, order)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_unimodular_parameter_truncates(self):
        # everything after a unimodular parameter is ignored
        a = schur_synthesis(SchurFunction([0.4, 1.0, 0.9, -0.5]), 16)
        b = schur_synthesis(SchurFunction([0.4, 1.0]), 16)
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-15)

    def test_first_coefficients_need_only_the_first_parameters(self):
        # a_0..a_N depend on gamma_0..gamma_N alone, so the Monte-Carlo
        # screen's stage at order N draws and synthesizes only those
        rng = np.random.default_rng(11)
        g = np.sqrt(rng.random((40, 13))) * np.exp(2j * np.pi * rng.random((40, 13)))
        cut = g[:8].copy()  # a unimodular parameter at 2 or at 9: before, at and after N
        cut[:4, 2] = np.exp(2j * np.pi * rng.random(4))
        cut[4:, 9] = np.exp(2j * np.pi * rng.random(4))
        zero_led = np.pad(g, ((0, 0), (1, 0)))  # z g, as verify_be draws it
        for rows in (g, cut, zero_led):
            full = series._synthesize_params(rows, 64)
            for n in range(17):
                got = series._synthesize_params(rows[:, : n + 1], n)
                want = full[:, : n + 1]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=str(n))


class TestHarmonicPair:
    """The pair (h, g) with g' = omega h' that the harmonic verifiers build."""

    def test_constant_dilatation_scales_coefficients(self):
        h = SchurFunction([0.5, -1.0])  # the automorphism phi_{0.5}
        c = 0.6 - 0.3j
        a, b = pair_rows(h, SchurFunction([c]), 10)
        np.testing.assert_allclose(b[1:], c * a[1:], atol=1e-14)
        assert b[0] == 0.0

    def test_zero_dilatation(self):
        _, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([0.0]), 8)
        np.testing.assert_array_equal(b, np.zeros(9))

    def test_quadratic_domination_on_grid(self):
        # h = phi_{0.5}, omega(z) = z
        a, b = pair_rows(SchurFunction([0.5, -1.0]), SchurFunction([0.0, 1.0]), 8)
        for r in (0.3, 0.6, 0.9):
            powers = r ** np.arange(9)
            lhs = np.dot(np.abs(b) ** 2, powers)
            rhs = np.dot(np.abs(a) ** 2, powers)
            assert lhs <= rhs + 1e-14

    def test_parts_match_separate_syntheses(self):
        # h and omega share one block; h's row is synthesized as it is alone
        h = SchurFunction([0.0, 0.3 + 0.4j, -0.5, 0.2j])
        w = SchurFunction([0.6, -0.1j])
        a, b = pair_rows(h, w, 24)
        np.testing.assert_array_equal(a, schur_synthesis(h, 24).coeffs)
        wc = schur_synthesis(w, 24).coeffs
        k = np.arange(1, 25)
        expected = np.array([np.dot(wc[:n][::-1], k[:n] * a[1 : n + 1]) / n for n in k])
        np.testing.assert_allclose(b[1:], expected, atol=1e-15)

    def test_unimodular_analytic_parameter(self):
        # the snapped parameter leaves |a_0| = 1 + 1 ulp; the tail caps it at 1,
        # without which 1 - |a_0|^2 < 0 would have no real power 1.5
        g = 0.9946128276123087 + 0.1036596505350456j
        a, b = pair_rows(SchurFunction([g]), SchurFunction([0.5j]), 8)
        analytic = CoefficientSeries(a, certified=True)
        assert powered_sum(analytic, 1.5, 0.5).tail_bound == 0.0
        assert abs(abs(a[0]) - 1.0) < 1e-15
        np.testing.assert_array_equal(b, np.zeros(9))


class TestHelpers:
    def test_shift_by_z(self):
        # be_extremal_coeffs is the automorphism's series times z
        c = mobius_automorphism_coeffs(0.3, 5)
        out = be_extremal_coeffs(0.3, 5)
        assert out.coeffs[0] == 0.0 and out.order == c.order
        assert out.coeffs[1:].tobytes() == c.coeffs[:-1].tobytes()
        # a_0 = 0, so the certified tail is the whole r^(N+1)/(1-r)
        assert out.certified and powered_sum(out, 1.0, 0.5).tail_bound == 0.5**6 / 0.5

    def test_series_validation(self):
        with pytest.raises(DomainError):
            CoefficientSeries([])
        with pytest.raises(DomainError):
            CoefficientSeries([1.5], certified=True)
        with pytest.raises(DomainError):
            SchurFunction([1.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    def test_non_finite_data_refused(self, bad):
        # NaN passes every modulus comparison, so each constructor checks finiteness
        for certified in (False, True):
            with pytest.raises(DomainError):
                CoefficientSeries([0.1, bad], certified=certified)
            with pytest.raises(DomainError):
                CoefficientSeries([bad], certified=certified)
        with pytest.raises(DomainError):
            SchurFunction([bad, 0.2])
        with pytest.raises(DomainError):
            SchurFunction([0.2, bad])

    def test_series_loads_without_radii(self):
        # the package's __init__ imports every module, so a bare package stands in
        package = os.path.dirname(series.__file__)
        code = (
            "import sys, types\n"
            "sys.modules['bohrlab'] = types.ModuleType('bohrlab')\n"
            f"sys.modules['bohrlab'].__path__ = [{package!r}]\n"
            "import bohrlab.series\n"
            "assert 'bohrlab.radii' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
