"""Every public entry point rejects each out-of-range parameter with DomainError.

Each case names a cheap valid call, one of its parameters and the values that
parameter must refuse: NaN, +-inf and a value just outside each end of its
range.  Counts (trials, order, depth) must be finite, integer-valued and
non-negative; seeds must be finite and integer-valued, of any sign.  Entry
points without a ranged parameter are not listed: be_radius,
harmonic_radius_p1, and psymmetric_root_equation, which evaluates its
polynomial anywhere.  The last tests pin the set of public names, check
that importing the package and its CLI loads none of the heavy optional
modules, that sampling and a verify run load no numpy.random, that the CLI's
commands load no numpy.ma, and that no module keeps an unread import or
private name.
"""

import ast
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bohrlab
from bohrlab import DomainError, SchurFunction, mobius_automorphism_coeffs

NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)
COUNTS = (2.5, NAN, -1, INF)
SEEDS = (2.5,)  # besides NaN and +-inf; negative and huge seeds are valid


def below(x):
    return math.nextafter(x, -INF)


def above(x):
    return math.nextafter(x, INF)


SERIES = mobius_automorphism_coeffs(0.3, 8)
SCHUR = SchurFunction([0.3, 0.2])

P_02 = (0.0, above(2.0))  # p in (0, 2]
P_02_OPEN = (0.0, 2.0)  # p in (0, 2)
P_POS = (0.0,)  # p in (0, inf)
P_FROM_1 = (below(1.0),)  # p in [1, inf)
R_01 = (below(0.0), 1.0)  # r in [0, 1)
A_CLOSED = (below(0.0), above(1.0))  # a in [0, 1]
A_OPEN = (below(0.0), 1.0)  # a in [0, 1)
MC = dict(trials=2, seed=1, order=8, depth=3)

# (function, valid keyword arguments, {parameter: values just outside its range})
ENTRY_POINTS = [
    ("exact_branch_threshold", dict(p=1.0), dict(p=P_02)),
    ("envelope_value", dict(a=0.5, p=1.0, r=0.5), dict(a=A_CLOSED, p=P_02, r=R_01)),
    ("maximize_envelope", dict(p=1.0, r=0.5), dict(p=P_02, r=R_01)),
    ("mp_theorem1", dict(p=1.0, r=0.5), dict(p=P_02, r=R_01)),
    ("rp_via_infimum", dict(p=1.5), dict(p=P_02)),
    ("rp_via_envelope_bisection", dict(p=1.0), dict(p=P_02)),
    ("powered_radius_rp", dict(p=1.0), dict(p=P_02)),
    ("lower_bound_mp", dict(p=1.0), dict(p=P_02_OPEN)),
    ("bombieri_closed_form", dict(r=0.5), dict(r=(1 / 3 - 2e-12, 2**-0.5 + 2e-12))),
    ("paulsen_majorant", dict(r=0.5), dict(r=R_01)),
    ("psymmetric_radius", dict(p=2, m=1), dict(p=(0, 101, 1.5), m=(-1, 3, 0.5))),
    ("psymmetric_extremal_a", dict(p=2, m=1), dict(p=(0, 101, 1.5), m=(-1, 3, 0.5))),
    ("blaschke_sharpness_radius", dict(d=1, p=1.0), dict(d=(0, 1.5), p=P_02_OPEN)),
    (
        "bb_lower_bound",
        dict(p=1.5, r=0.9, eps=0.1, big_c=0.0),
        dict(p=(1.0, 2.0), r=(2**-0.25, 1.0), eps=(0.0,), big_c=(below(0.0),)),
    ),
    ("branch_consistency_gap", dict(p=1.5), dict(p=P_02_OPEN)),
    ("harmonic_threshold", dict(p=1.0), dict(p=P_02_OPEN)),
    ("harmonic_bound", dict(p=1.0, r=0.3), dict(p=P_POS, r=R_01)),
    ("harmonic_closed_form_p1", dict(r=0.5), dict(r=(0.2 - 2e-12, (2 / 3) ** 0.5 + 2e-12))),
    ("be_bound", dict(r=0.5), dict(r=R_01)),
    ("be_harmonic_bound", dict(p=1.0, r=0.5), dict(p=P_FROM_1, r=R_01)),
    ("be_harmonic_radius", dict(p=1.0), dict(p=P_FROM_1)),
    ("powered_sum", dict(c=SERIES, p=1.0, r=0.5), dict(p=P_POS, r=R_01)),
    ("mobius_automorphism_coeffs", dict(a=0.5, order=4), dict(a=A_OPEN, order=COUNTS)),
    (
        "psymmetric_extremal_coeffs",
        dict(p=2, m=1, a=0.5, order=4),
        dict(p=(0, 1.5), m=(-1, 3, 0.5), a=A_OPEN, order=COUNTS),
    ),
    ("be_extremal_coeffs", dict(a=0.5, order=4), dict(a=A_OPEN, order=COUNTS)),
    ("schur_synthesis", dict(s=SCHUR, order=4), dict(order=COUNTS)),
    ("schur_synthesis_rows", dict(schurs=[SCHUR], order=4), dict(order=COUNTS)),
    ("schur_analysis", dict(c=SERIES, depth=2), dict(depth=COUNTS + (SERIES.order + 1,))),
    (
        "sample_schur",
        dict(seed=1, index=3, depth=3),
        dict(seed=SEEDS, index=(2.5, -1), depth=COUNTS),
    ),
    (
        "verify_theorem1",
        dict(p=1.0, r=0.5, **MC),
        dict(p=P_02, r=R_01, trials=COUNTS, seed=SEEDS, order=COUNTS, depth=COUNTS),
    ),
    (
        "verify_lemma_quadratic",
        dict(big_r=0.5, **MC),
        dict(big_r=(0.0, above(1.0)), trials=COUNTS, seed=SEEDS, order=COUNTS, depth=COUNTS),
    ),
    (
        "verify_theorem2",
        # above the p = 1 threshold sqrt(2/3) the bound is not claimed
        dict(p=1.0, r=0.5, **MC),
        dict(
            p=P_POS,
            r=(below(0.0), above((2 / 3) ** 0.5)),
            trials=COUNTS,
            seed=SEEDS,
            order=COUNTS,
            depth=COUNTS,
        ),
    ),
    (
        "verify_be",
        dict(r=0.5, p=1.0, **MC),
        dict(r=R_01, p=P_FROM_1, trials=COUNTS, seed=SEEDS, order=COUNTS, depth=COUNTS),
    ),
    ("verify_theoremB_ratio", dict(p=1.0, seed=1), dict(p=P_02_OPEN, seed=SEEDS)),
]

COUNT_NAMES = ("trials", "order", "depth")
CASES = [
    pytest.param(name, valid, param, bad, id=f"{name}-{param}={bad!r}")
    for name, valid, outside in ENTRY_POINTS
    for param, values in outside.items()
    for bad in (values if param in COUNT_NAMES else NON_FINITE + values)
]


@pytest.mark.parametrize(
    "name, valid", [(name, valid) for name, valid, _ in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_valid_call_runs(name, valid):
    getattr(bohrlab, name)(**valid)


@pytest.mark.parametrize("name, valid, param, bad", CASES)
def test_out_of_range_parameter_raises_domain_error(name, valid, param, bad):
    with pytest.raises(DomainError):
        getattr(bohrlab, name)(**dict(valid, **{param: bad}))


SEEDED = [(name, valid) for name, valid, outside in ENTRY_POINTS if "seed" in outside]


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
@pytest.mark.parametrize("name, valid", SEEDED, ids=[name for name, _ in SEEDED])
def test_negative_and_huge_seeds_run(name, valid, seed):
    getattr(bohrlab, name)(**dict(valid, seed=seed))


PUBLIC_NAMES = {
    "BohrlabError", "CertifiedSum", "CoefficientSeries", "ConvergenceFailure",
    "DomainError", "EnvelopeResult", "HarmonicBound", "MpValue", "NoRootFound",
    "NonSchurInput", "RadiusCertificate", "SchurFunction", "VerificationReport",
    "bb_lower_bound", "be_bound", "be_extremal_coeffs", "be_harmonic_bound",
    "be_harmonic_radius", "be_radius", "blaschke_sharpness_radius",
    "bombieri_closed_form", "branch_consistency_gap", "envelope_value",
    "exact_branch_threshold", "harmonic_bound", "harmonic_closed_form_p1",
    "harmonic_radius_p1", "harmonic_threshold", "lower_bound_mp", "maximize_envelope",
    "mobius_automorphism_coeffs", "mp_theorem1", "paulsen_majorant",
    "powered_radius_rp", "powered_sum", "psymmetric_extremal_a",
    "psymmetric_extremal_coeffs", "psymmetric_radius", "psymmetric_root_equation",
    "rp_via_envelope_bisection", "rp_via_infimum", "sample_schur", "schur_analysis",
    "schur_synthesis", "schur_synthesis_rows", "verify_be",
    "verify_lemma_quadratic", "verify_theorem1", "verify_theorem2",
    "verify_theoremB_ratio",
}


def test_public_names_are_pinned():
    # adding or removing a public name has to edit PUBLIC_NAMES
    public = {
        name for name in dir(bohrlab)
        if not name.startswith("_") and not isinstance(getattr(bohrlab, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES


SRC = Path(__file__).resolve().parents[1] / "src" / "bohrlab"


def loaded_after(code):
    """Modules loaded by a fresh interpreter that imports bohrlab and its CLI
    and runs code."""
    code = f"import sys, bohrlab, bohrlab.cli\n{code}\nprint(*sorted(sys.modules), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stderr.split()


def test_import_loads_no_heavy_module():
    # scipy, mpmath and hypothesis are test or reference dependencies; any of
    # them on the import path of bohrlab would add to every run's start-up
    # time and memory
    loaded = loaded_after("")
    heavy = [m for m in loaded if m.split(".")[0] in ("scipy", "mpmath", "hypothesis")]
    assert "bohrlab.cli" in loaded and heavy == []


VERIFY_RUNS = [
    ["verify", claim, "--p", "1", "--r", "0.5", "--trials", "3", "--seed", "1"]
    for claim in ("theorem2", "be")
]


def test_sampling_and_verify_load_no_numpy_random():
    # trials are splitmix64 counter streams on uint64 arrays; numpy loads
    # numpy.random lazily, so drawing a sample or running a verify command
    # must not pay for its import
    loaded = loaded_after(f"bohrlab.sample_schur(1, 2, 3)\nfor argv in {VERIFY_RUNS!r}: bohrlab.cli.main(argv)")
    assert "bohrlab.cli" in loaded
    assert [m for m in loaded if m.startswith("numpy.random")] == []


def test_cli_commands_load_no_numpy_ma():
    # np.unique's first call imports numpy.ma (~9 ms); the envelope grids
    # (p < 1 seeds its own, as theoremB at p = 0.5 does) and the witnesses'
    # synthesis groups are sorted without it
    runs = [
        ["table"],
        ["radius", "--kind", "rp", "--p", "1.5"],
        ["envelope", "--p", "1", "--r-start", "0.1", "--r-end", "0.5", "--steps", "3"],
        ["verify", "theoremB", "--p", "0.5", "--seed", "1"],
        *VERIFY_RUNS,
    ]
    loaded = loaded_after(f"for argv in {runs!r}: bohrlab.cli.main(argv)")
    assert "bohrlab.cli" in loaded
    assert [m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]] == []


def test_no_unused_import_or_private_name():
    # no linter runs on the package: fail on a name a module imports and never
    # reads (the re-exports of __init__ aside), and on a private top-level name
    # that no module reads
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    reads = {
        stem: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
               and isinstance(node.ctx, ast.Load)}
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for stem, tree in trees.items()
    }
    read_anywhere = set().union(*reads.values())
    unused, unread = [], []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if stem == "__init__" or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in reads[stem]:
                    unused.append(f"{stem}: {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__") and name not in read_anywhere:
                    unread.append(f"{stem}: {name}")
    assert (unused, unread) == ([], [])
