"""Numerical laboratory for a stationary cross-diffusion competition system
on a one-dimensional interval with zero-flux boundary.

Subpackages cover the full-system steady solver, the a priori sup-norm
certificate, the simultaneous large-rate limit with its two limiting
systems, local bifurcation of the incomplete-segregation branch, and the
explicit construction of sign-changing complete-segregation solutions.
"""

__version__ = "0.1.0"

from .errors import (AssemblyError, CheckFailed, NoConvergence, NonFiniteSystem,
                     NotApplicable, SktlabError, TauCollapse, ValidationError)
from .grid import Grid, GridFn
from .limits import CSState, ISState, LimitParams
from .model import ConstantState, ModelParams

__all__ = [
    "AssemblyError", "CheckFailed", "ConstantState", "CSState",
    "Grid", "GridFn", "ISState", "LimitParams", "ModelParams", "NoConvergence",
    "NonFiniteSystem", "NotApplicable", "SktlabError", "TauCollapse",
    "ValidationError", "__version__",
]
