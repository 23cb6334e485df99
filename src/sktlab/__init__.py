"""Numerical laboratory for a stationary cross-diffusion competition system
on a one-dimensional interval with zero-flux boundary.

Subpackages cover the full-system steady solver, the a priori sup-norm
certificate, the simultaneous large-rate limit with its two limiting
systems, local bifurcation of the incomplete-segregation branch, and the
explicit construction of sign-changing complete-segregation solutions.
"""

__version__ = "0.1.0"
