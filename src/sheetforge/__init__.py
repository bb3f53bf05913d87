"""sheetforge: weak approximation of (fractional) Brownian sheets by
Lévy-sheet-driven random kernel fields, with a Monte Carlo verification
harness.

Core pipeline: a Lévy sheet sampled exactly at lattice midpoints
(`simulate_sheet`) feeds one of three random kernels (`realize_theta`),
which a pair of deterministic Volterra-type kernels turns into the
approximating field (`build_approximation`); the harness compares its
statistics against the factorized limit covariance.
"""
from . import approx, config, errors, harness, kernels, levy, sheet, theta
from .approx import *
from .config import *
from .errors import *
from .harness import *
from .kernels import *
from .levy import *
from .sheet import *
from .theta import *

__version__ = "0.1.0"

__all__ = [
    *approx.__all__,
    *config.__all__,
    *errors.__all__,
    *harness.__all__,
    *kernels.__all__,
    *levy.__all__,
    *sheet.__all__,
    *theta.__all__,
]
