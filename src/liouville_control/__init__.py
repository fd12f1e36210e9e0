"""Ensemble optimal control of Liouville-transported densities.

A library and CLI for the open-loop control of a continuum of trajectories:
the density is advanced by a conservative finite-volume scheme, the adjoint
by a backward semi-Lagrangian scheme, the reduced gradient couples the two,
and a proximal projected-gradient loop minimizes tracking costs with L2,
sparsity (L1), and minimum-attention (H1) control penalties under box
constraints.  Runtime certificates check conservation, weighted-norm energy
growth, optimality residuals, and the uniqueness smallness ratio.

The package exports each library module's ``__all__`` and every exception
of ``errors``; a public name is declared once, in the module that defines
it.  ``cli`` and ``fileio`` serve the command line and stay modules.
"""

from .errors import *
from .grid import *
from .controls import *
from .forward import *
from .adjoint import *
from .reduced import *
from .optimize import *
from .oracles import *

__version__ = "0.1.0"
