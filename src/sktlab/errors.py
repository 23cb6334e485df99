"""Exception types of the package: one per row of cli._EXITS, each raised."""


class SktlabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SktlabError):
    """Config text could not be parsed, or a key failed validation."""


class NotApplicable(SktlabError):
    """The requested object provably does not exist for the parameters: no
    competition regime or constant state, an argument outside a level-set
    function's domain, rates outside the certificate's band, no bifurcation
    threshold, or no sign change of the lobe flux mismatch."""


class NoConvergence(SktlabError):
    """An iterative solver exhausted its iteration budget, or no Newton step
    stayed in the nonnegative cone."""


class TauCollapse(SktlabError):
    """The nonlocal unknown collapsed towards zero: complete-segregation
    signature.  The message ends with the last tau."""


class AssemblyError(SktlabError):
    """Lobe tiling produced inconsistent supports."""


class CheckFailed(SktlabError):
    """An embedded invariant check of selftest exceeded its bound."""


class NonFiniteSystem(SktlabError, ValueError):
    """A linear system reached the solver with an infinite or NaN entry."""
