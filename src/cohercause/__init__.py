"""Model-free causal-influence testing via partial coherence.

The package computes partial coherence between signal sequences, tests
the null hypothesis of non-causality against its exact Wilks Lambda
law, and reproduces the built-in simulation experiments (coherence
direction maps and the ARMA power/ROC study). Its public names are those
of each module's ``__all__``.
"""
from .covariance import *
from .coherence import *
from .nulldist import *
from .inference import *
from .simulate import *
from .experiments import *
from . import coherence, covariance, experiments, inference, nulldist, simulate

__version__ = "0.1.0"

__all__ = [
    name
    for module in (covariance, coherence, nulldist, inference, simulate, experiments)
    for name in module.__all__
]
