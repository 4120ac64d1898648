"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Criterion 13 is exploratory and records values without
gating."""

import math

import numpy as np

from bohrlab import (
    be_extremal_coeffs,
    be_bound,
    be_harmonic_radius,
    be_radius,
    bombieri_closed_form,
    exact_branch_threshold,
    bb_lower_bound,
    harmonic_bound,
    harmonic_closed_form_p1,
    harmonic_radius_p1,
    harmonic_threshold,
    lower_bound_mp,
    maximize_envelope,
    mobius_automorphism_coeffs,
    mp_theorem1,
    powered_radius_rp,
    powered_sum,
    psymmetric_extremal_a,
    psymmetric_extremal_coeffs,
    psymmetric_radius,
    rp_via_envelope_bisection,
    rp_via_infimum,
    sample_schur,
    schur_analysis,
    schur_synthesis,
    verify_be,
    verify_lemma_quadratic,
    verify_theorem1,
    verify_theorem2,
    verify_theoremB_ratio,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:02d}: {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_classical_radius_both_routes():
    err_inf = abs(rp_via_infimum(1.0) - 1.0 / 3.0)
    err_bis = abs(rp_via_envelope_bisection(1.0) - 1.0 / 3.0)
    certified = powered_radius_rp(1.0)
    ok = err_inf <= 1e-9 and err_bis <= 1e-9 and abs(certified.radius - 1 / 3) <= 1e-9
    report(1, ok, f"r_1 = 1/3: infimum err {err_inf:.2e}, bisection err {err_bis:.2e}")
    assert ok


def test_criterion_02_bombieri_curve():
    worst = 0.0
    for r in np.linspace(1.0 / 3.0, INV_SQRT2, 50):
        closed = (3.0 - math.sqrt(8.0 * (1.0 - r * r))) / r
        worst = max(worst, abs(maximize_envelope(1.0, float(r)).value - closed))
    ok = worst <= 1e-10
    report(2, ok, f"envelope vs closed form on 50-point grid: worst |diff| {worst:.2e}")
    assert ok


def test_criterion_03_closed_form_knots():
    err_lo = abs(bombieri_closed_form(1.0 / 3.0) - 1.0)
    err_hi = abs(bombieri_closed_form(INV_SQRT2) - math.sqrt(2.0))
    ok = err_lo <= 1e-12 and err_hi <= 1e-12
    report(3, ok, f"knot errors: at 1/3 {err_lo:.2e}, at 1/sqrt2 {err_hi:.2e}")
    assert ok


def test_criterion_04_radius_separates_regimes():
    details = []
    ok = True
    for p in (1.2, 1.5, 1.8):
        radius = powered_radius_rp(p).radius
        below = maximize_envelope(p, radius - 1e-4).value
        above = maximize_envelope(p, radius + 1e-3).value
        good = abs(below - 1.0) <= 1e-9 and above > 1.0 + 1e-7
        ok = ok and good
        details.append(f"p={p}: below-1={below - 1:.1e}, above-1={above - 1:.1e}")
    report(4, ok, "; ".join(details))
    assert ok


def test_criterion_05_sandwich_on_p_grid():
    rows = []
    failing = []
    for p in np.linspace(0.1, 1.9, 20):
        p = float(p)
        r_p = powered_radius_rp(p).radius
        m_p = lower_bound_mp(p)
        threshold = exact_branch_threshold(p)
        lower_ok = m_p <= r_p + 1e-9
        upper_ok = r_p < threshold
        rows.append((p, m_p, r_p, threshold, r_p - m_p, threshold - r_p))
        if not (lower_ok and upper_ok):
            failing.append(p)
    for p, m_p, r_p, thr, lo_margin, hi_margin in rows:
        print(
            f"    p={p:.4f}  m_p={m_p:.9f}  r_p={r_p:.9f}  thr={thr:.9f}  "
            f"margins: lower {lo_margin:+.3e}, upper {hi_margin:+.3e}"
        )
    ok = not failing
    # the envelope maximum already exceeds 1 at the lower bound m_p itself
    witnesses = []
    for q in failing:
        if q < 1.0:
            top = maximize_envelope(q, lower_bound_mp(q))
            witnesses.append(
                f"p={q:.3f}: max F(a; p, m_p) - 1 = {top.value - 1:.3e} at a = {top.argmax:.6f}"
            )
    report(
        5,
        ok,
        f"sandwich m_p <= r_p < 2^(p/2-1) on 20-point grid: "
        f"{20 - len(failing)}/20 hold"
        + (f"; FAILS at p in {[f'{q:.3f}' for q in failing]} (r_p = 0 for p < 1: "
           "the envelope exceeds 1 near a = 1 for every positive radius, "
           "so no positive powered Bohr radius exists there)" if failing else "")
        + (f"; at r = m_p: {'; '.join(witnesses)}" if witnesses else ""),
    )
    assert ok, f"sandwich fails for p in {failing}"


def test_criterion_06_psymmetric_radii():
    cases = [((1, 0), 1.0 / 3.0), ((1, 1), INV_SQRT2), ((2, 2), 2.0 ** (-0.25))]
    errs = {pm: abs(psymmetric_radius(*pm).radius - expected) for pm, expected in cases}
    ok = all(err <= 1e-10 for err in errs.values())
    report(6, ok, "; ".join(f"r_{pm} err {err:.2e}" for pm, err in errs.items()))
    assert ok


def test_criterion_07_harmonic_radius_and_closed_form():
    radius_err = abs(harmonic_radius_p1().radius - 0.2)
    worst = 0.0
    for r in np.linspace(0.2, math.sqrt(2.0 / 3.0), 50):
        closed = (5.0 - 2.0 * math.sqrt(6.0) * math.sqrt(1.0 - r * r)) / r
        worst = max(worst, abs(harmonic_bound(1.0, float(r)).value - closed))
    thr_err = abs(harmonic_threshold(1.0) - math.sqrt(2.0 / 3.0))
    ok = radius_err <= 1e-10 and worst <= 1e-10 and thr_err <= 1e-12
    report(
        7,
        ok,
        f"radius err {radius_err:.2e}; closed-form worst |diff| {worst:.2e}; "
        f"threshold err {thr_err:.2e}",
    )
    assert ok


def test_criterion_08_be_radii():
    errs = {
        "analytic": abs(be_radius().radius - INV_SQRT2),
        "harmonic p=1": abs(be_harmonic_radius(1.0).radius - 1.0 / math.sqrt(5.0)),
        "harmonic p=2": abs(be_harmonic_radius(2.0).radius - 1.0 / math.sqrt(3.0)),
    }
    ok = all(err <= 1e-12 for err in errs.values())
    report(8, ok, "; ".join(f"{k} err {v:.2e}" for k, v in errs.items()))
    assert ok


def test_criterion_09_sharpness_witnesses():
    order = 400
    gaps = {}

    argmax = maximize_envelope(1.0, 0.5).argmax
    ps = powered_sum(mobius_automorphism_coeffs(min(argmax, 1 - 1e-12), order), 1.0, 0.5)
    gaps["mobius"] = (maximize_envelope(1.0, 0.5).value - ps.upper, ps.tail_bound)

    ps = powered_sum(be_extremal_coeffs(INV_SQRT2, order), 1.0, INV_SQRT2)
    gaps["be"] = (be_bound(INV_SQRT2) - ps.upper, ps.tail_bound)

    r11 = psymmetric_radius(1, 1).radius
    a11 = psymmetric_extremal_a(1, 1)
    ps = powered_sum(psymmetric_extremal_coeffs(1, 1, a11, order), 1.0, r11)
    gaps["psymmetric"] = (1.0 - ps.upper, ps.tail_bound)

    ok = all(abs(gap) <= 1e-8 + tail for gap, tail in gaps.values())
    report(9, ok, "; ".join(f"{k} gap {g:.2e}" for k, (g, _) in gaps.items()))
    assert ok


def test_criterion_10_monte_carlo_dominance():
    trials = 10_000
    reports = [
        verify_theorem1(1.0, 0.5, trials, seed=42),
        verify_theorem1(1.5, 0.9, trials, seed=43),
        verify_lemma_quadratic(trials, 1.0, seed=7),
        verify_theorem2(1.0, 0.3, trials, seed=3),
        verify_theorem2(3.0, 0.6, trials, seed=4),
        *verify_be(0.65, 1.0, trials, seed=9),
        *verify_be(1.0 / math.sqrt(3.0), 2.0, trials, seed=10),
    ]
    ok = all(r.failures == 0 for r in reports)
    detail = "; ".join(
        f"{r.claim_id}[{i}] fails={r.failures} worst={r.worst_margin:.1e}"
        for i, r in enumerate(reports)
    )
    report(10, ok, f"{trials} trials each: {detail}")
    assert ok


def test_criterion_11_schur_roundtrip():
    depth, order = 8, 32
    worst_coeff = 0.0
    worst_param = 0.0
    for i in range(1000):
        params = sample_schur(10_000, i, depth)
        series = schur_synthesis(params, order)
        recovered = schur_analysis(series, depth)
        resynth = schur_synthesis(recovered, order)
        worst_coeff = max(
            worst_coeff, float(np.abs(resynth.coeffs[: depth + 1] - series.coeffs[: depth + 1]).max())
        )
        if recovered.depth == depth:
            worst_param = max(worst_param, float(np.abs(recovered.params - params.params).max()))
        else:
            worst_param = math.inf
    ok = worst_coeff <= 1e-12
    report(
        11,
        ok,
        f"1000 roundtrips, depth 8: worst coefficient err {worst_coeff:.2e} "
        f"(parameter-space err {worst_param:.2e}, conditioning-limited near |gamma|=1)",
    )
    assert ok


def test_criterion_12_two_sided_comparability():
    ok = True
    details = []
    for p in (0.5, 1.0, 1.5):
        rep = verify_theoremB_ratio(p, seed=0)
        ok = ok and rep.failures == 0
        ratios = [v for k, v in sorted(rep.params.items()) if k.startswith("ratio_")]
        details.append(f"p={p}: ratios [{min(ratios):.3f}, {max(ratios):.3f}]")
    report(12, ok, "; ".join(details) + " within [0.1, 10]")
    assert ok


def test_criterion_13_asymptotic_gap_exploration():
    gaps = []
    for r in (0.9, 0.99, 0.999):
        gap = mp_theorem1(1.5, r).value - bb_lower_bound(1.5, r, 0.1, 0.0)
        gaps.append(gap)
    non_increasing = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    report(
        13,
        True,
        f"recorded (non-gating): gaps at r=0.9/0.99/0.999 with C=0: "
        f"{', '.join(f'{g:.3e}' for g in gaps)}; non-increasing={non_increasing}",
    )
    assert all(math.isfinite(g) for g in gaps)
