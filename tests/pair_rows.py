"""The harmonic pair (h, g) with g' = omega h', as the harmonic verifiers
build it: h and omega synthesized in one block, then the co-analytic row."""

from bohrlab import schur_synthesis_rows
from bohrlab.series import _coanalytic_rows


def pair_rows(h, omega, order):
    """Coefficient rows (a, b) of h and g through the given order, for Schur
    functions h and omega; g vanishes at the origin."""
    a, w = schur_synthesis_rows([h, omega], order)
    b = _coanalytic_rows(a[None], w[None])
    assert (b[:, 0] == 0).all()
    return a, b[0]
