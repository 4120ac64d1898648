"""Truncated Taylor series for the unit ball of bounded analytic functions.

Provides the closed-form coefficient families (disk automorphisms, p-symmetric
extremals, the z(a-z)/(1-az) family), Schur-parameter synthesis/analysis for
sampling the full unit ball, and the co-analytic coefficient rows of harmonic
mappings h + conj(g) with dominated dilatation g' = omega h', which the
harmonic verifiers build from blocks of synthesized h and omega rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonSchurInput, _check_a, _check_count, _check_pm

# Schur parameters within this distance of the unit circle are treated as
# unimodular: the synthesis terminates there (finite Blaschke product) and
# later parameters are ignored.
UNIMODULAR_TOL = 1e-14


def _as_complex_array(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("coefficient data must be a non-empty 1-d sequence")
    if not np.isfinite(arr).all():
        raise DomainError("coefficient data must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Truncated Taylor coefficients a_0..a_N of a function on the unit disk.

    When ``certified`` is set the series was produced by a constructor that
    guarantees unit-ball membership, hence |a_k| <= 1 - |a_0|^2 for k >= 1,
    and the tail enclosures use that bound.  Uncertified series receive only
    the generic |a_k| <= 1 tail envelope.
    """

    coeffs: np.ndarray
    certified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex_array(self.coeffs))
        if self.certified and abs(self.coeffs[0]) > 1.0 + 1e-12:
            raise DomainError(f"certified series requires |a_0| <= 1, got {abs(self.coeffs[0])}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True, eq=False)
class SchurFunction:
    """A unit-ball member encoded by Schur parameters gamma_0..gamma_D.

    Any sequence with all |gamma_j| <= 1 synthesizes a function of the closed
    unit ball; a unimodular parameter terminates the recursion and later
    entries are ignored (finite Blaschke product).
    """

    params: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.params)
        if np.abs(arr).max() > 1.0 + 1e-12:
            raise DomainError("Schur parameters must have modulus <= 1")
        object.__setattr__(self, "params", arr)

    @property
    def depth(self) -> int:
        return len(self.params) - 1


# Outputs per step of the block division, and the order from which a short
# denominator (fewer than _BLOCK_OUTPUTS coefficients after den_0) is divided
# in blocks; BENCH_montecarlo.json "block_division" has the measurements.
_BLOCK_OUTPUTS = 32
_BLOCK_FROM_ORDER = 511
# Largest modulus among the first _BLOCK_OUTPUTS coefficients of 1/den for
# which a row is divided in blocks.  A steeper 1/den means zeros of den
# clustered near the unit circle, which the block map's rounding moves: in
# "block_division" "steep_rows", the block result's worst error stays within
# 3x of the recurrence's below 1,024 and is 72x to 2.6e6x above it.  Of 50,000
# disk-uniform samples, 0.004% at depth 12 and 0.012% at depth 13 exceed 256.
_BLOCK_MAX_GAIN = 256.0


def _divide_trunc(num: np.ndarray, den: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of num/den through the given order, for each row of a block.

    num and den are coefficient-major, (., rows), with den_0 = 1; returns
    contiguous rows (rows, order + 1).  Short orders, denominators too long
    for a block and rows with a steep 1/den run the forward recurrence
    y_n = b_n - sum_{j>=1} d_j y_(n-j), one numpy step per n across the block.
    From _BLOCK_FROM_ORDER on, a short denominator makes the recurrence a
    fixed linear map from the previous dmax outputs and the next k right-hand
    sides to the next k outputs (the look-ahead form of a recursive filter),
    so each step of this row-major path yields k = _BLOCK_OUTPUTS outputs.
    The map's entries grow with 1/den's coefficients and cancel against each
    other, so the block result is refined once: the residual num - den * y is
    divided by the same map and added.  Rows whose 1/den exceeds
    _BLOCK_MAX_GAIN in its first k coefficients keep the recurrence.  Every
    reduction runs within a row, and the path depends only on the order and
    the row's own den, so a row's result does not depend on its block.
    """
    dmax, rows = den.shape[0] - 1, den.shape[1]
    if order < _BLOCK_FROM_ORDER or dmax >= _BLOCK_OUTPUTS:
        return _divide_loop(num, den, order)
    h = _recur(np.ones((1, rows), dtype=complex), den, _BLOCK_OUTPUTS)  # first k coefficients of 1/den
    steep = np.abs(h).max(axis=0) > _BLOCK_MAX_GAIN
    if not steep.any():
        return _divide_blocks(*(np.ascontiguousarray(a.T) for a in (num, den, h)), order)
    out = np.empty((rows, order + 1), dtype=complex)
    out[steep] = _divide_loop(num[:, steep], den[:, steep], order)
    if not steep.all():
        flat = ~steep
        out[flat] = _divide_blocks(*(np.ascontiguousarray(a[:, flat].T) for a in (num, den, h)), order)
    return out


def _divide_loop(num: np.ndarray, den: np.ndarray, order: int) -> np.ndarray:
    """The division by the forward recurrence, one output a step."""
    return np.ascontiguousarray(_recur(num, den, order + 1).T)


def _divide_blocks(num: np.ndarray, den: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """The division k outputs a step, refined once by the residual, on (rows, .)
    arrays; h holds the first k coefficients of 1/den."""
    dmax = den.shape[1] - 1
    width = min(num.shape[1], order + 1)
    # dmax leading zeros stand for y_n = 0 at n < 0, so every block has a window
    y = np.zeros((den.shape[0], dmax + order + 1), dtype=complex)
    fix = np.zeros_like(y)
    y[:, dmax : dmax + width] = num[:, :width]
    block_map = _block_map(den, h)
    _solve_blocks(y, block_map)
    # the residual num - den * y: each output's window y[n-dmax : n+1] times den reversed
    windows = np.lib.stride_tricks.sliding_window_view(y, dmax + 1, axis=1)
    np.matmul(windows, den[:, ::-1, None], out=fix[:, dmax:, None])
    np.negative(fix, out=fix)
    fix[:, dmax : dmax + width] += num[:, :width]
    y += _solve_blocks(fix, block_map)
    return y[:, dmax:]


def _solve_blocks(y: np.ndarray, block_map: np.ndarray) -> np.ndarray:
    """Division in place, k outputs a step: y holds dmax zeros and then the
    right-hand side on entry, the zeros and the quotient on return."""
    k, dmax = block_map.shape[1], block_map.shape[2] - block_map.shape[1]
    for n in range(dmax, y.shape[1], k):
        w = min(k, y.shape[1] - n)
        window = y[:, n - dmax : n + w, None]
        y[:, n:n + w] = np.matmul(block_map[:, :w, : dmax + w], window)[..., 0]
    return y


def _recur(num: np.ndarray, den: np.ndarray, stop: int) -> np.ndarray:
    """The quotient's first `stop` coefficients by the forward recurrence, on
    coefficient-major arrays: num is (., rows), den (dmax + 1, rows) with
    den_0 = 1, the result (stop, rows).

    Scatter form: once y_n is final, den_1 y_n, ..., den_t y_n are subtracted
    from the next t = min(dmax, stop - 1 - n) right-hand sides by one multiply
    and one subtract (the views of the full-t steps are set up once), so each
    y_n takes its products one at a time, oldest first.  Every operation acts
    on each row alone, so a coefficient's bits do not depend on the block.
    y_n is a (1, rows) view, not a (rows,) one: numpy sends a one-element
    multiply with a broadcast operand to its scalar loop, whose complex
    product is not fused as the vector loop's is."""
    dmax, rows = den.shape[0] - 1, den.shape[1]
    y = np.zeros((stop, rows), dtype=complex)
    y[: min(len(num), stop)] = num[:stop]
    width = max(min(dmax, stop - 1), 0)  # the t of the first stop - width steps
    tail, prod = den[1 : width + 1], np.empty((width, rows), dtype=complex)
    rhss = np.lib.stride_tricks.as_strided(  # rhss[n] is y[n + 1 : n + 1 + width]
        y[1:], (stop - width, width, rows), (y.strides[0], *y.strides), writeable=True)
    for y_n, rhs in zip(y[:, None], rhss):
        np.multiply(tail, y_n, prod)
        np.subtract(rhs, prod, rhs)
    for n in range(len(rhss), stop):  # the last width steps, t = stop - 1 - n
        y_n, t = y[n : n + 1], stop - 1 - n
        np.multiply(tail[:t], y_n, prod[:t])
        np.subtract(y[n + 1 :], prod[:t], y[n + 1 :])
    return y


def _block_map(den: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-row (k, dmax + k) matrix [W | T] with y[n:n+k] = [W | T] [y[n-dmax:n], b[n:n+k]].

    T is the lower-triangular Toeplitz matrix of h, the first k coefficients
    of 1/den.  W = -T C, where C[m, t] = den_(m+dmax-t) for m <= t carries the
    window's terms into the block's first dmax equations.
    """
    rows, dmax, k = den.shape[0], den.shape[1] - 1, h.shape[1]
    out = np.zeros((rows, k, dmax + k), dtype=complex)
    for i in range(k):
        out[:, i, dmax : dmax + i + 1] = h[:, i::-1]
    for t in range(dmax):
        out[:, :, t] = -np.matmul(out[:, :, dmax : dmax + t + 1], den[:, dmax - t:, None])[..., 0]
    return out


def mobius_automorphism_coeffs(a: float, order: int) -> CoefficientSeries:
    """Taylor coefficients of the disk automorphism (a - z)/(1 - a z).

    a_0 = a and a_k = -(1 - a^2) a^(k-1) for k >= 1; this family attains the
    powered envelope bound exactly, so it serves as the sharpness witness.
    """
    a, order = _check_a(a, allow_one=False), _check_count(order, "order")
    c = np.empty(order + 1, dtype=complex)
    c[0] = a
    if order >= 1:
        c[1:] = -(1.0 - a * a) * a ** np.arange(order)
    return CoefficientSeries(c, certified=True)


def psymmetric_extremal_coeffs(p: int, m: int, a: float, order: int) -> CoefficientSeries:
    """Coefficients of z^m (z^p - a)/(1 - a z^p).

    Only indices m + j*p are populated: -a at index m and (1 - a^2) a^(j-1)
    at m + j*p for j >= 1.
    """
    p, m = _check_pm(p, m)
    a, order = _check_a(a, allow_one=False), _check_count(order, "order")
    c = np.zeros(order + 1, dtype=complex)
    if m <= order:
        c[m] = -a
    j = 1
    while m + j * p <= order:
        c[m + j * p] = (1.0 - a * a) * a ** (j - 1)
        j += 1
    return CoefficientSeries(c, certified=True)


def be_extremal_coeffs(a: float, order: int) -> CoefficientSeries:
    """Coefficients of z (a - z)/(1 - a z), the vanishing-at-0 extremal family:
    the automorphism's coefficients moved up one index.  Multiplying by z keeps
    the function in the unit ball, so the result keeps the certificate."""
    c = mobius_automorphism_coeffs(a, order).coeffs
    return CoefficientSeries(np.concatenate(([0.0], c[:-1])), certified=True)


def schur_synthesis_rows(schurs, order: int) -> np.ndarray:
    """Taylor coefficients through the given order of an iterable of Schur
    functions, one row each: an array of shape (number of functions, order + 1).

    Runs the backward recursion f_j = (g_j + z f_{j+1}) / (1 + conj(g_j) z f_{j+1})
    in accumulated linear-fractional form: f_0 = P/Q with polynomials P, Q
    built one parameter index at a time across the block, then one truncated
    division.  The rows go to `_synthesize_params` as one array, padded with
    zero parameters, and come out bit for bit as alone.

    The coefficients are float results, and their rounding is not bounded by
    any enclosure downstream: the verifiers' SLACK_TOL = 1e-9 margin is what
    absorbs it.  It grows with the size of Q's coefficients, that is with
    parameters near the circle.  Against a 200-bit reference, the worst
    coefficient of each of 200 depth-12 samples at order 4,000 is off by
    2.0e-15 in the median and 3.5e-13 at most, and by 1.6e-15 and 1.1e-13
    with the one-step recurrence alone.  Over 2,000 depth-12 samples at
    order 1,000, summing each output's products in a pairwise tree instead
    of _recur's scatter order moves a row's worst coefficient by 1.3e-15 in
    the median, 5.8e-14 at the 99th percentile and 4.2e-13 at most, and the
    block division and the one-step recurrence differ by 1.6e-15, 7.5e-14
    and 3.7e-13.
    """
    params = [s.params for s in schurs]
    g = np.zeros((len(params), max(map(len, params), default=1)), dtype=complex)
    for row, values in zip(g, params):
        row[: len(values)] = values
    return _synthesize_params(g, _check_count(order, "order"))


def _synthesize_params(g: np.ndarray, order: int) -> np.ndarray:
    """Coefficient rows for a (rows, width) array of Schur parameters, each
    row as alone.  A row's active parameters end at its first parameter
    within UNIMODULAR_TOL of the circle, snapped onto it and followed by
    zeros, or else at its last nonzero one.  A trailing zero leaves P and Q
    as they are but for a zero top coefficient of Q, whose products the
    recurrence subtracts as exact zeros, so below _BLOCK_FROM_ORDER the block
    goes in one call; from there on the block division's matmul W would move
    the bits of a row ending in zeros, so then the rows go by active length."""
    cut = np.abs(g) >= 1.0 - UNIMODULAR_TOL
    if cut.any():
        rows = np.flatnonzero(cut.any(axis=1))
        j = cut[rows].argmax(axis=1)
        g = g.copy()
        g[rows, j] = g[rows, j] / np.abs(g[rows, j])  # snap to the unit circle
        g[rows] = np.where(np.arange(g.shape[1]) > j[:, None], 0.0, g[rows])
    if order < _BLOCK_FROM_ORDER or g[:, -1].all():
        return _synthesize(g, order)
    lengths = (np.arange(1, g.shape[1] + 1) * (g != 0)).max(axis=1)
    out = np.empty((len(g), order + 1), dtype=complex)
    for length in set(lengths.tolist()):
        rows = lengths == length
        out[rows] = _synthesize(g[rows, :length], order)
    return out


def _synthesize(g: np.ndarray, order: int) -> np.ndarray:
    """Coefficient rows for a (rows, length) array of active Schur parameters.
    P and Q are built coefficient-major, one numpy step per parameter across
    the block: P <- g_j Q + zP and Q <- Q + conj(g_j) zP, g_j a row vector.
    zP reads P's buffer one index lower; the new P goes to the other buffer."""
    rows, length = g.shape
    gt = np.ascontiguousarray(g.T)
    gt_bar = np.conj(gt)
    zp, zp_next = np.zeros((2, length + 2, rows), dtype=complex)  # P sits at [1:]
    q, term = np.zeros((2, length + 1, rows), dtype=complex)
    q[0] = 1.0
    for m, j in enumerate(range(length - 1, -1, -1), start=2):  # m coefficients after step j
        np.multiply(gt[j], q[:m], out=zp_next[1 : m + 1])
        zp_next[1 : m + 1] += zp[:m]
        q[:m] += np.multiply(gt_bar[j], zp[:m], out=term[:m])
        zp, zp_next = zp_next, zp
    return _divide_trunc(zp[1 : order + 2], q[: order + 1], order)


def schur_synthesis(s: SchurFunction, order: int) -> CoefficientSeries:
    """Taylor coefficients of the unit-ball function encoded by Schur parameters:
    the one-row case of `schur_synthesis_rows`."""
    return CoefficientSeries(schur_synthesis_rows([s], order)[0], certified=True)


def schur_analysis(c: CoefficientSeries, depth: int) -> SchurFunction:
    """Recover Schur parameters from a truncated unit-ball coefficient sequence.

    Forward recursion: gamma_j = f_j(0), then
    f_{j+1} = (f_j - gamma_j) / (z (1 - conj(gamma_j) f_j)), each step consuming
    one order of truncation.  Stops early on a unimodular parameter (Blaschke
    factor).  Intended for roundtrip checks: re-synthesizing the returned
    parameters reproduces the input coefficients to about 1e-12; the parameters
    themselves are conditioned by prod 1/(1 - |gamma_j|^2) and lose accuracy
    when intermediate moduli approach 1.
    """
    depth = _check_count(depth, "depth")
    if depth > c.order:
        raise DomainError(f"depth {depth} exceeds series order {c.order}")
    f = np.array(c.coeffs, dtype=complex)
    params = []
    for j in range(depth + 1):
        g = f[0]
        mod = abs(g)
        if mod > 1.0 + 1e-12:
            raise NonSchurInput(
                f"intermediate Schur parameter has modulus {mod:.6g} > 1"
            )
        params.append(g)
        if mod >= 1.0 - UNIMODULAR_TOL or j == depth:
            break
        num = f[1:]
        den = -np.conj(g) * f[: len(num)]
        den[0] += 1.0  # 1 - |gamma_j|^2, divided out once so that den_0 = 1
        num, den = num / den[0], den / den[0]
        den[0] = 1.0
        f = _recur(num[:, None], den[:, None], len(num))[:, 0]
    return SchurFunction(np.array(params, dtype=complex))


def _coanalytic_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Co-analytic coefficient rows b of g' = omega h', for coefficient rows a
    of h and w of omega: b_k = (1/k) sum_{j<k} w_j (k-j) a_(k-j), b_0 = 0.

    Since |omega| <= 1 forces sum |b_k|^2 <= sum |a_k|^2 <= 1 for unit-ball h,
    every |b_k| <= 1, and both parts carry the unit-ball certificate.

    A block with more rows than outputs is formed one output at a time, any
    other one convolution per row: the fewer numpy calls, with the same bits.
    For output n both sum w_0 h'_n, ..., w_n h'_0 in that order, np.convolve
    by BLAS zdotu and np.vecdot by zdotc of conj(w), which undoes conj exactly."""
    rows, order = a.shape[0], a.shape[1] - 1
    b = np.zeros_like(a)
    if order >= 1:
        k = np.arange(1, order + 1)
        hp = k * a[:, 1:]  # coefficients of h'
        if rows > order:
            w_bar, hp_rev = np.conj(w[:, :order]), np.ascontiguousarray(hp[:, ::-1])
            for n in range(order):
                b[:, n + 1] = np.vecdot(w_bar[:, : n + 1], hp_rev[:, order - 1 - n:])
        else:
            for b_row, w_row, hp_row in zip(b, w, hp):
                b_row[1:] = np.convolve(w_row[:order], hp_row)[:order]  # omega h'
        b[:, 1:] /= k
    return b
