"""The package declares each public name once, in the module that defines it."""

import ast
import importlib
import inspect
from pathlib import Path

import liouville_control

PACKAGE = Path(liouville_control.__file__).resolve().parent

# the library modules whose public names the package exports; cli and
# fileio serve the command line
LIBRARY = ("errors", "grid", "controls", "forward", "adjoint", "reduced", "optimize", "oracles")

# every name the package exported before it re-exported the modules' own lists
EARLIER_EXPORTS = {
    "AffineFlow", "BoxBounds", "CflUnderflow", "CharacteristicEscape", "ControlPath", "CostSpec",
    "DegenerateProbe", "DriftPreset", "DriftSpec", "EnergyCertificate", "GradientPath", "GridMismatch",
    "GridSpec", "InvalidGrid", "KktResidual", "LinesearchFailure", "LiouvilleControlError", "MomentState",
    "MomentSurrogateProblem", "MultiStartReport", "NonFinite", "NotApplicable", "OptimConfig", "OptimResult",
    "Potential", "ProbeReport", "Problem", "ScalarField", "SchemaError", "StateTrajectory", "TimeGrid",
    "UnknownPreset", "UnsupportedDrift", "UnsupportedOrder", "ZeroMass", "adjoint_energy_certificate",
    "affine_exact_density", "boundary_leak", "confining_weight_index", "control_cost_terms",
    "energy_certificate", "eval_drift", "fd_directional_derivative", "fit_order", "frechet_probe", "h1_riesz",
    "integrate", "interpolate", "interpolate_flagged", "kkt_residual", "lipschitz_probe", "make_grid",
    "make_timegrid", "moments", "multi_start", "optimize", "partial_derivative", "path_dot", "path_norm",
    "potential_eval", "project_box", "reduced_cost", "reduced_gradient", "sample_function", "sample_potential",
    "smallness_certificate", "solve_adjoint", "solve_forward", "solve_linearized", "weighted_sobolev_norm",
}


def public_names(module) -> list:
    """A module's ``__all__``, or, for ``errors``, which defines nothing else,
    every name it defines."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name in vars(module) if not name.startswith("_")]


def test_the_package_exports_the_disjoint_union_of_the_modules_lists():
    declared = [name for m in LIBRARY for name in public_names(importlib.import_module(f"liouville_control.{m}"))]
    assert len(declared) == len(set(declared)), sorted(n for n in set(declared) if declared.count(n) > 1)
    for m in LIBRARY:
        module = importlib.import_module(f"liouville_control.{m}")
        for name in public_names(module):
            assert getattr(module, name).__module__ == module.__name__, f"{m}.{name} is defined elsewhere"
    exported = {name for name, value in vars(liouville_control).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(declared)
    assert EARLIER_EXPORTS <= exported


def imported_modules(path: Path) -> set:
    """The package modules a source file imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module)
    return found


def test_the_oracles_are_a_leaf_that_reads_no_private_name():
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if "oracles" in imported_modules(p))
    assert importers == ["__init__.py", "cli.py"]
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
