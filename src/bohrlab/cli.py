"""Command-line front door: radii, envelope tables, verification runs, extremals.

Results go to stdout (JSON objects one per line, or CSV with fixed headers),
diagnostics to stderr.  Reals carry 17 significant digits so outputs are
byte-stable for identical inputs and seeds.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import eilenberg, harmonic, montecarlo, radii
from .errors import BohrlabError, _check_r
from .majorant import powered_sum
from .series import (
    CoefficientSeries,
    be_extremal_coeffs,
    mobius_automorphism_coeffs,
    psymmetric_extremal_coeffs,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise BohrlabError(f"refusing to write the non-finite value {v} as JSON")
        return _fmt(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(x)}" for k, x in items) + "}"
    if isinstance(v, (list, tuple)):
        # finite floats (np.float64 included) in one pass; anything else,
        # a non-finite float too, goes item by item
        if all(isinstance(x, float) and math.isfinite(x) for x in v):
            return "[" + ",".join(map(_fmt, v)) + "]"
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def _emit_json(pairs: list[tuple[str, object]]) -> None:
    print("{" + ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in pairs) + "}")


def _report_pairs(result) -> list[tuple[str, object]]:
    """The fields of a result dataclass, in declaration order."""
    return [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)]


# kind -> (options it needs, in the order they are required; the call)
_RADII = {
    "rp": (("p",), lambda a: radii.powered_radius_rp(a.p)),
    "mp_lower": (("p",), lambda a: radii.RadiusCertificate(radii.lower_bound_mp(a.p), "closed_form", 0.0)),
    "psymmetric": (("p", "m"), lambda a: radii.psymmetric_radius(a.p, a.m)),
    "harmonic_p1": ((), lambda a: harmonic.harmonic_radius_p1()),
    "be": ((), lambda a: eilenberg.be_radius()),
    "be_harmonic": (("p",), lambda a: eilenberg.be_harmonic_radius(a.p)),
}


def _cmd_radius(args) -> int:
    needs, call = _RADII[args.kind]
    _require(args, *needs)
    params = {name: getattr(args, name) + 0.0 for name in needs}  # zero unsigned, as the library reads it
    _emit_json([("kind", args.kind), ("params", params), *_report_pairs(call(args))])
    return 0


def _cmd_envelope(args) -> int:
    if not (0.0 <= args.r_start <= args.r_end < 1.0 and args.steps >= 1):
        print("error: need 0 <= r-start <= r-end < 1 and steps >= 1", file=sys.stderr)
        return 2
    rows = []  # every row is computed before the header, so a domain error prints nothing
    for r in np.linspace(args.r_start, args.r_end, args.steps):
        res = radii.maximize_envelope(args.p, float(r), doubled=args.doubled)
        if args.doubled:
            exact = args.p >= 2.0 or float(r) <= harmonic.harmonic_threshold(args.p)
        else:
            exact = float(r) <= radii.exact_branch_threshold(args.p)
        flag = "true" if exact else "false"
        rows.append(f"{_fmt(r)},{_fmt(res.value)},{_fmt(res.argmax)},{flag}")
    print("\n".join(["r,value,argmax,exact", *rows]))
    return 0


# claim -> (options it needs, in the order they are required; the call, given
# the parsed options and the Monte-Carlo keywords)
_CLAIMS = {
    "theorem1": (("p", "r"), lambda a, mc: [montecarlo.verify_theorem1(a.p, a.r, a.trials, **mc)]),
    "lemma21": (("R",), lambda a, mc: [montecarlo.verify_lemma_quadratic(a.trials, a.R, **mc)]),
    "theorem2": (("p", "r"), lambda a, mc: [montecarlo.verify_theorem2(a.p, a.r, a.trials, **mc)]),
    "be": (("p", "r"), lambda a, mc: list(montecarlo.verify_be(a.r, a.p, a.trials, **mc))),
    "theoremB": (("p",), lambda a, mc: [montecarlo.verify_theoremB_ratio(a.p, seed=a.seed)]),
}


def _cmd_verify(args) -> int:
    needs, call = _CLAIMS[args.claim]
    _require(args, *needs)
    reports = call(args, dict(seed=args.seed, depth=args.depth, order=args.order))
    for report in reports:
        _emit_json(_report_pairs(report))
    return 1 if any(r.failures for r in reports) else 0


def _extremal_series(args) -> tuple[CoefficientSeries, float, float]:
    """Returns (series, reference bound, power exponent for the sum)."""
    n = args.order
    if args.family == "mobius":
        _require(args, "a")
        series = mobius_automorphism_coeffs(args.a, n)
        return series, radii.envelope_value(args.a, args.p, args.r), args.p
    if args.family == "psymmetric":
        _require(args, "a", "m")
        series = psymmetric_extremal_coeffs(args.p, args.m, args.a, n)
        # the family's majorant sum telescopes to r^m F(a; 1, r^p)
        ref = args.r ** int(args.m) * radii.envelope_value(args.a, 1.0, args.r ** int(args.p))
        return series, ref, 1.0
    _require(args, "a")
    series = be_extremal_coeffs(args.a, n)
    return series, eilenberg.be_bound(args.r), 1.0


def _cmd_extremal(args) -> int:
    args.r = _check_r(args.r)  # the echo and the reference read r as the library does
    series, reference, power = _extremal_series(args)
    ps = powered_sum(series, power, args.r)
    coeffs = [[c.real, c.imag] for c in np.asarray(series.coeffs)]
    _emit_json(
        [
            ("family", args.family),
            ("a", args.a + 0.0),  # a and m with zero unsigned, as the library reads them
            ("p", args.p),
            ("m", args.m + 0.0 if args.m is not None else 0),
            ("r", args.r),
            ("order", args.order),
            ("coeffs", coeffs),
            ("powered_sum_lower", ps.lower),
            ("powered_sum_upper", ps.upper),
            ("envelope_value", reference),
            ("gap", reference - ps.upper),
        ]
    )
    return 0


def _table_rows() -> list[tuple[str, str, float]]:
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rows = [
        ("powered_radius", "p=1", radii.powered_radius_rp(1.0).radius),
        ("powered_radius", "p=2", radii.powered_radius_rp(2.0).radius),
        ("lower_bound", "p=1", radii.lower_bound_mp(1.0)),
        ("lower_bound", "p=1.5", radii.lower_bound_mp(1.5)),
        ("exact_branch_threshold", "p=1", radii.exact_branch_threshold(1.0)),
        ("majorant_supremum", "p=1 r=1/3", radii.bombieri_closed_form(1.0 / 3.0)),
        ("majorant_supremum", "p=1 r=0.5", radii.bombieri_closed_form(0.5)),
        ("majorant_supremum", "p=1 r=1/sqrt2", radii.bombieri_closed_form(inv_sqrt2)),
        ("piecewise_majorant_M", "r=0.5", radii.paulsen_majorant(0.5)[0]),
        ("piecewise_majorant_m", "r=0.5", radii.paulsen_majorant(0.5)[1]),
        ("psymmetric_radius", "p=1 m=0", radii.psymmetric_radius(1, 0).radius),
        ("psymmetric_radius", "p=1 m=1", radii.psymmetric_radius(1, 1).radius),
        ("psymmetric_radius", "p=2 m=2", radii.psymmetric_radius(2, 2).radius),
        ("psymmetric_extremal_a", "p=1 m=1", radii.psymmetric_extremal_a(1, 1)),
        ("blaschke_sharpness_radius", "d=1 p=1", radii.blaschke_sharpness_radius(1, 1.0)),
        ("blaschke_sharpness_radius", "d=2 p=1", radii.blaschke_sharpness_radius(2, 1.0)),
        ("harmonic_radius", "p=1", harmonic.harmonic_radius_p1().radius),
        ("harmonic_threshold", "p=1", harmonic.harmonic_threshold(1.0)),
        ("harmonic_closed_form", "r=1/5", harmonic.harmonic_closed_form_p1(0.2)),
        ("harmonic_closed_form", "r=sqrt(2/3)", harmonic.harmonic_closed_form_p1(math.sqrt(2.0 / 3.0))),
        ("harmonic_bound", "p=3 r=0.6", harmonic.harmonic_bound(3.0, 0.6).value),
        ("be_radius", "", eilenberg.be_radius().radius),
        ("be_bound", "r=0.6", eilenberg.be_bound(0.6)),
        ("be_harmonic_radius", "p=1", eilenberg.be_harmonic_radius(1.0).radius),
        ("be_harmonic_radius", "p=2", eilenberg.be_harmonic_radius(2.0).radius),
        ("branch_consistency_gap", "p=1.5", radii.branch_consistency_gap(1.5)),
    ]
    for r in (0.9, 0.99, 0.999):
        gap = radii.mp_theorem1(1.5, r).value - radii.bb_lower_bound(1.5, r, 0.1, 0.0)
        rows.append(("asymptotic_gap", f"p=1.5 r={r} C=0", gap))
    return rows


def _cmd_table(args) -> int:
    print("name,params,value")
    for name, params, value in _table_rows():
        print(f"{name},{params},{_fmt(value)}")
    return 0


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise BohrlabError(f"--{name.replace('_', '-')} is required for this invocation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Majorant envelopes, Bohr-type radii and seeded inequality stress tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_radius = sub.add_parser("radius", help="compute one of the named radii")
    p_radius.add_argument("--kind", required=True, choices=list(_RADII))
    p_radius.add_argument("--p", type=float)
    p_radius.add_argument("--m", type=float)
    p_radius.set_defaults(func=_cmd_radius)

    p_env = sub.add_parser("envelope", help="CSV table of envelope maxima over a radius grid")
    p_env.add_argument("--p", type=float, required=True)
    p_env.add_argument("--r-start", type=float, required=True)
    p_env.add_argument("--r-end", type=float, required=True)
    p_env.add_argument("--steps", type=int, required=True)
    p_env.add_argument("--doubled", action="store_true")
    p_env.set_defaults(func=_cmd_envelope)

    p_verify = sub.add_parser("verify", help="run one seeded verification claim")
    p_verify.add_argument("claim", choices=list(_CLAIMS))
    p_verify.add_argument("--p", type=float)
    p_verify.add_argument("--r", type=float)
    p_verify.add_argument("--R", type=float)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--depth", type=int, default=montecarlo.DEFAULT_DEPTH)
    p_verify.add_argument("--order", type=int, default=montecarlo.DEFAULT_ORDER)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_ext = sub.add_parser("extremal", help="coefficients and attainment gap of an extremal")
    p_ext.add_argument("--family", required=True, choices=["mobius", "psymmetric", "be"])
    p_ext.add_argument("--a", type=float)
    p_ext.add_argument("--p", type=float, default=1.0)
    p_ext.add_argument("--m", type=float)
    p_ext.add_argument("--r", type=float, required=True)
    p_ext.add_argument("--order", type=int, default=400)
    p_ext.set_defaults(func=_cmd_extremal)

    p_table = sub.add_parser("table", help="CSV of the named constants in one bundle")
    p_table.set_defaults(func=_cmd_table)
    return parser


# Counts (--trials, --order, --depth, --steps) lie below 2^56, so every array they
# size stays under numpy's 2^63 bytes: one too large for memory ends in
# MemoryError, not in numpy's ValueError, OverflowError or IndexError.
_MAX_COUNT = 1 << 56


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for name in ("trials", "order", "depth", "steps"):
            if getattr(args, name, 0) >= _MAX_COUNT:
                raise BohrlabError(f"--{name} must lie below 2^56, got {getattr(args, name)}")
        return args.func(args)
    except BohrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to allocate is a usage error, not a verification failure
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
