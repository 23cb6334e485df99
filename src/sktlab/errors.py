"""Exception types shared across the package."""


class SktlabError(Exception):
    """Base class for all package-specific errors."""


class RegimeError(SktlabError):
    """Operation requires weak or strong competition, but the parameters are neither."""


class DegenerateError(SktlabError):
    """b2*c1 - b1*c2 is (numerically) zero; the coexistence state is undefined."""


class DomainError(SktlabError):
    """Argument outside the admissible range of a level-set function."""


class BandError(SktlabError):
    """Cross-diffusion rates violate the ratio band or rate floor of the bound certificate."""


class NoConvergence(SktlabError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NegativeState(SktlabError):
    """An accepted Newton iterate left the nonnegative cone."""


class NonFiniteSystem(SktlabError, ValueError):
    """A linear system reached the solver with an infinite or NaN entry."""


class BlowUp(SktlabError):
    """Time marching exceeded ten times the a priori bound certificate."""


class TauCollapse(SktlabError):
    """The nonlocal unknown collapsed towards zero: complete-segregation signature."""

    def __init__(self, message, tau=None):
        super().__init__(message)
        self.tau = tau


class NoThreshold(SktlabError):
    """No positive bifurcation threshold exists for the requested mode."""


class BracketError(SktlabError):
    """The supplied interval does not bracket a sign change."""


class NoBracket(SktlabError):
    """The flux mismatch does not change sign over the search interval."""


class AssemblyError(SktlabError):
    """Lobe tiling produced inconsistent supports."""


class ParseError(SktlabError):
    """Config text could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(SktlabError):
    """Config key failed validation."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
