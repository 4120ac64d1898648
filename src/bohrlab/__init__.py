"""Majorant-series envelopes and Bohr-type radii for the unit ball of
bounded analytic functions, with seeded Monte-Carlo stress tests."""

from .errors import (
    BohrlabError,
    ConvergenceFailure,
    DomainError,
    NoRootFound,
    NonSchurInput,
)
from .series import (
    CoefficientSeries,
    SchurFunction,
    be_extremal_coeffs,
    mobius_automorphism_coeffs,
    psymmetric_extremal_coeffs,
    schur_analysis,
    schur_synthesis,
    schur_synthesis_rows,
)
from .majorant import (
    CertifiedSum,
    powered_sum,
)
from .radii import (
    EnvelopeResult,
    MpValue,
    RadiusCertificate,
    bb_lower_bound,
    blaschke_sharpness_radius,
    bombieri_closed_form,
    branch_consistency_gap,
    envelope_value,
    exact_branch_threshold,
    lower_bound_mp,
    maximize_envelope,
    mp_theorem1,
    paulsen_majorant,
    powered_radius_rp,
    psymmetric_extremal_a,
    psymmetric_radius,
    psymmetric_root_equation,
    rp_via_envelope_bisection,
    rp_via_infimum,
)
from .harmonic import (
    HarmonicBound,
    harmonic_bound,
    harmonic_closed_form_p1,
    harmonic_radius_p1,
    harmonic_threshold,
)
from .eilenberg import (
    be_bound,
    be_harmonic_bound,
    be_harmonic_radius,
    be_radius,
)
from .montecarlo import (
    VerificationReport,
    sample_schur,
    verify_be,
    verify_lemma_quadratic,
    verify_theorem1,
    verify_theorem2,
    verify_theoremB_ratio,
)

__version__ = "0.1.0"
