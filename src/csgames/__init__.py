"""Solvers and verifiers for N-person constrained discounted stochastic games.

Everything is finite and exactly checkable: strategies are evaluated by
direct linear solves, constrained best responses are occupation-measure
linear programs, equilibrium claims come back as certificates with explicit
feasibility excesses and deviation gaps, gridded games are discretized with a
certified uniform error bound, and strategies can be reshaped (support
reduction, Markov replacement, occupation mixing, cost rescaling) without
changing what they cost.
"""

# Re-publishing each module's __all__ is the use of a wildcard import that
# PEP 8 names defensible: the modules' lists are the package's one list.
from .game import *
from .evaluation import *
from .best_response import *
from .discretization import *
from .equilibrium import *
from .transform import *

__version__ = "0.1.0"
