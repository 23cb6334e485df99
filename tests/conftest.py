import numpy as np
import pytest

from sktlab.grid import Grid
from sktlab.limits import LimitParams
from sktlab.model import ModelParams

# Strong-competition workhorse parameter set used throughout the suite.
P1 = dict(a1=5.0, a2=3.0, b1=0.1, b2=1.0, c1=1.0, c2=0.1, d1=1.0, d2=0.1)

# Exact nullcline intersection for P1 (rational arithmetic:
# u* = 250/99, v* = 470/99, tau* = 117500/9801).
U_STAR = 250.0 / 99.0
V_STAR = 470.0 / 99.0
TAU_STAR = 117500.0 / 9801.0

# A weak-competition counterpart (ratio chain reversed).
PW = dict(a1=3.0, a2=5.0, b1=1.0, b2=0.1, c1=0.1, c2=1.0, d1=1.0, d2=0.1)

# Weak competition whose constant state is stable in every mode at rates
# 10; damped Newton from the amplitude-3 seed 5 leaves the nonnegative cone.
WEAK = dict(a1=0.30480044989138183, a2=2.7159879106745946, b1=0.8656383428185848,
            b2=0.3055356700727753, c1=0.29982191726302143, c2=5.276829007736922,
            d1=0.04219248327986911, d2=0.012093964722795903)

# A set whose swapped set (bounds.v_tilde0 on the v equation) has its rate
# alpha just inside the tangency window (alpha_lo, alpha_hi) of F(0, .),
# whose lower end mid - root loses most digits when formed as a difference.
TANGENCY = dict(a1=0.0011336076111554253, a2=45.939996170618436,
                b1=416.3479202690309, b2=0.41855300174574384,
                c1=0.001480945066304099, c2=0.17898321351710422,
                d1=156.98668958608022, d2=0.02608702527156015,
                alpha=0.21574698291965352, beta=0.001160899077124013)


@pytest.fixture
def p1():
    return ModelParams(**P1)


@pytest.fixture
def p1_limit():
    return LimitParams(gamma=1.0, **P1)


@pytest.fixture
def pw():
    return ModelParams(**PW)


@pytest.fixture
def grid64():
    return Grid(64, 1.0)


@pytest.fixture
def grid256():
    return Grid(256, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
