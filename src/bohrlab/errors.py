"""Exception types shared across the package."""


class BohrlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BohrlabError, ValueError):
    """A parameter lies outside the documented domain of an operation."""


class NonVanishingConstantTerm(DomainError):
    """A series that must vanish at the origin has a nonzero constant term."""


class NonSchurInput(BohrlabError, ValueError):
    """Coefficient data is inconsistent with membership in the closed unit ball."""


class NoRootFound(BohrlabError, ArithmeticError):
    """A root scan found no admissible root in the search interval."""


class ConvergenceFailure(BohrlabError, ArithmeticError):
    """Two independent computations of the same quantity disagree beyond tolerance."""
