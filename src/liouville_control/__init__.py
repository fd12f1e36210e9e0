"""Ensemble optimal control of Liouville-transported densities.

A library and CLI for the open-loop control of a continuum of trajectories:
the density is advanced by a conservative finite-volume scheme, the adjoint
by a backward semi-Lagrangian scheme, the reduced gradient couples the two,
and a proximal projected-gradient loop minimizes tracking costs with L2,
sparsity (L1), and minimum-attention (H1) control penalties under box
constraints.  Runtime certificates check conservation, weighted-norm energy
growth, optimality residuals, and the uniqueness smallness ratio.
"""

from .controls import (
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    DriftSpec,
    Potential,
    control_cost_terms,
    eval_drift,
    potential_eval,
    project_box,
)
from .errors import (
    CflUnderflow,
    CharacteristicEscape,
    DegenerateProbe,
    GridMismatch,
    InvalidGrid,
    LinesearchFailure,
    LiouvilleControlError,
    NonFinite,
    NotApplicable,
    SchemaError,
    UnknownPreset,
    UnsupportedDrift,
    UnsupportedOrder,
    ZeroMass,
)
from .forward import (
    EnergyCertificate,
    StateTrajectory,
    boundary_leak,
    energy_certificate,
    solve_forward,
    solve_linearized,
)
from .adjoint import (
    AdjointTrajectory,
    adjoint_energy_certificate,
    confining_weight_index,
    sample_potential,
    solve_adjoint,
)
from .grid import (
    GridSpec,
    MomentState,
    ScalarField,
    TimeGrid,
    integrate,
    interpolate,
    interpolate_flagged,
    make_grid,
    make_timegrid,
    moments,
    partial_derivative,
    sample_function,
    weighted_sobolev_norm,
)
from .optimize import MultiStartReport, OptimConfig, OptimResult, multi_start, optimize
from .oracles import (
    AffineFlow,
    ConstantAffineFlow,
    MomentPath,
    MomentSurrogateProblem,
    affine_exact_density,
    fd_directional_derivative,
    fit_order,
    lipschitz_probe,
    moment_ode,
)
from .reduced import (
    GradientPath,
    KktResidual,
    ProbeReport,
    Problem,
    frechet_probe,
    h1_riesz,
    kkt_residual,
    path_dot,
    path_norm,
    reduced_cost,
    reduced_gradient,
    smallness_certificate,
)

__version__ = "0.1.0"
