"""Controls, controlled drift, box projection, control costs, and potentials.

The drift is ``a(t, x; u) = a0(t, x) + u1(t) + x * u2(t)`` with the product
taken componentwise.  Controls are continuous piecewise-linear in time on the
nodes of a TimeGrid, one representation serving both the plain L2 case and
the H1 (slowly varying control) case, where the seminorm of a piecewise
linear path is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError, UnknownPreset
from .grid import GridSpec, TimeGrid, is_finite_number, resolve_preset

__all__ = [
    "ControlPath",
    "BoxBounds",
    "DriftPreset",
    "DriftSpec",
    "Potential",
    "CostSpec",
    "eval_drift",
    "project_box",
    "control_cost_terms",
    "potential_eval",
    "drift_grad_bound",
    "drift_div_bound",
]


@dataclass
class ControlPath:
    """Nodal values of u = (u1, u2), each (nt + 1, d), piecewise linear."""

    timegrid: TimeGrid
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.atleast_2d(np.asarray(self.u1, dtype=float))
        self.u2 = np.atleast_2d(np.asarray(self.u2, dtype=float))
        nn = self.timegrid.nt + 1
        if self.u1.shape[0] != nn or self.u2.shape[0] != nn:
            raise SchemaError(
                f"control needs {nn} nodes, got {self.u1.shape[0]} and {self.u2.shape[0]}"
            )
        if self.u1.shape != self.u2.shape:
            raise SchemaError("u1 and u2 must share the node layout")
        if not (np.all(np.isfinite(self.u1)) and np.all(np.isfinite(self.u2))):
            raise SchemaError("control values must be finite")

    @property
    def dim(self) -> int:
        return self.u1.shape[1]

    @classmethod
    def zeros(cls, timegrid: TimeGrid, dim: int) -> "ControlPath":
        z = np.zeros((timegrid.nt + 1, dim))
        return cls(timegrid, z, z.copy())

    @classmethod
    def constant(cls, timegrid: TimeGrid, u1, u2) -> "ControlPath":
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        u2 = np.atleast_1d(np.asarray(u2, dtype=float))
        nn = timegrid.nt + 1
        return cls(timegrid, np.tile(u1, (nn, 1)), np.tile(u2, (nn, 1)))

    def value_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(u1, u2) at a time or an array of times, each of shape
        ``t.shape + (d,)``: linear interpolation between nodes, t clamped
        to [0, T]."""
        nt = self.timegrid.nt
        s = np.minimum(np.maximum(np.asarray(t, dtype=float) / self.timegrid.dt, 0.0), float(nt))
        i = np.minimum(s.astype(int), nt - 1)
        w = (s - i)[..., None]
        return (
            (1.0 - w) * self.u1[i] + w * self.u1[i + 1],
            (1.0 - w) * self.u2[i] + w * self.u2[i + 1],
        )

    def stacked(self) -> np.ndarray:
        """Node values as (nt + 1, 2 d): u1 columns then u2 columns."""
        return np.hstack([self.u1, self.u2])

    @classmethod
    def from_stacked(cls, timegrid: TimeGrid, arr: np.ndarray) -> "ControlPath":
        arr = np.asarray(arr, dtype=float)
        d = arr.shape[1] // 2
        return cls(timegrid, arr[:, :d].copy(), arr[:, d:].copy())


@dataclass(frozen=True)
class BoxBounds:
    """Componentwise bounds on (u1, u2), stored as vectors in R^{2d}."""

    ua: tuple[float, ...]
    ub: tuple[float, ...]

    def __post_init__(self):
        if len(self.ua) != len(self.ub):
            raise SchemaError("ua and ub must have equal length")
        if any(a > b for a, b in zip(self.ua, self.ub)):
            raise SchemaError("need ua <= ub componentwise")

    @classmethod
    def symmetric(cls, radius: float, dim: int) -> "BoxBounds":
        r = float(radius)
        return cls(tuple([-r] * (2 * dim)), tuple([r] * (2 * dim)))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.ua, dtype=float), np.asarray(self.ub, dtype=float)

    def max_radius(self) -> float:
        """max of the Euclidean norms of the two corner vectors."""
        a, b = self.arrays()
        return max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def _vector(value, d: int) -> np.ndarray:
    return np.broadcast_to(np.atleast_1d(np.asarray(value, dtype=float)), (d,))


def _rotation(p: dict, d: int):
    if d != 2:
        raise UnknownPreset("rotation drift needs d = 2")
    w = float(p["omega"])
    return np.array([[0.0, -w], [w, 0.0]]), np.zeros(2)


def _rotation_eval(A, b, pts: np.ndarray) -> np.ndarray:
    w = float(A[1, 0])
    out = np.empty_like(pts)
    out[..., 0] = -w * pts[..., 1]
    out[..., 1] = w * pts[..., 0]
    return out


def _bump_g(pts: np.ndarray, sig: float) -> np.ndarray:
    return np.exp(-(pts**2).sum(axis=-1) / (2.0 * sig * sig))


def _bump_derivative_sup(c, sig: float, grid: GridSpec, order: int) -> float:
    pts = grid.cell_centers()
    g, x = _bump_g(pts, sig), np.abs(pts)
    if order == 1:
        hi = x / sig**2 * g[:, None]
    elif order == 2:
        hi = (x.max(axis=1) ** 2 / sig**4 + 1.0 / sig**2) * g
    elif order == 3:
        hi = (x.max(axis=1) ** 3 / sig**6 + 3.0 * x.max(axis=1) / sig**4) * g
    else:
        return 0.0
    return float(np.abs(c).max()) * float(hi.max())


class _DriftRow(NamedTuple):
    """One a0 preset: its parameters with their defaults (None: required),
    its coefficients on R^d from the parameters, and a0 at points from the
    coefficients.  An affine preset's coefficients are (A, b) with
    a0(x) = A x + b and its derivatives follow from A; the bump's are
    (c, sigma) and it gives its derivatives itself."""

    defaults: dict
    coefficients: Callable
    eval: Callable
    jacobian: Callable | None = None
    derivative_sup: Callable | None = None


_DRIFT_PRESETS = {
    "zero": _DriftRow({}, lambda p, d: (np.zeros((d, d)), np.zeros(d)), lambda A, b, pts: np.zeros_like(pts)),
    "constant": _DriftRow(
        {"b": 0.0},
        lambda p, d: (np.zeros((d, d)), _vector(p["b"], d)),
        lambda A, b, pts: np.broadcast_to(b, pts.shape).copy(),
    ),
    "affine": _DriftRow(
        {"A": None, "b": 0.0},
        lambda p, d: (np.asarray(p["A"], dtype=float).reshape(d, d), _vector(p["b"], d)),
        lambda A, b, pts: pts @ A.T + b,
    ),
    "rotation": _DriftRow({"omega": 1.0}, _rotation, _rotation_eval),  # d = 2 only
    "gaussian-bump": _DriftRow(
        {"c": 1.0, "sigma": 1.0},
        lambda p, d: (_vector(p["c"], d), float(p["sigma"])),
        lambda c, sig, pts: _bump_g(pts, sig)[..., None] * c,
        lambda c, sig, pts: -c[:, None] * pts[..., None, :] / sig**2 * _bump_g(pts, sig)[..., None, None],
        _bump_derivative_sup,
    ),
}


@dataclass(frozen=True)
class DriftPreset:
    """Uncontrolled part a0 of the drift, one row of ``_DRIFT_PRESETS``.

    Presets: zero; constant(b); affine(A, b); rotation(omega), d = 2 only;
    gaussian-bump(c, sigma).  All are smooth with bounded derivatives.  An
    unknown name or parameter, or an affine preset without A, raises
    UnknownPreset.
    """

    name: str = "zero"
    params: dict = field(default_factory=dict)
    _by_dim: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        row, params = resolve_preset(_DRIFT_PRESETS, "drift", self.name, self.params)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_resolved", params)

    def coefficients(self, d: int) -> tuple:
        """The preset's coefficients on R^d, resolved once per dimension."""
        if d not in self._by_dim:
            self._by_dim[d] = self._row.coefficients(self._resolved, d)
        return self._by_dim[d]

    def affine_part(self, d: int):
        """(A, b) with a0(x) = A x + b on R^d, or None if a0 is not affine."""
        return self.coefficients(d) if self._row.jacobian is None else None

    def eval(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self._row.eval(*self.coefficients(pts.shape[-1]), pts)

    def jacobian(self, t: float, points: np.ndarray) -> np.ndarray:
        """d a0_r / d x_s at the given points, shape points.shape + (d,)."""
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        if self._row.jacobian is not None:
            return self._row.jacobian(*self.coefficients(d), pts)
        return np.broadcast_to(self.coefficients(d)[0], pts.shape[:-1] + (d, d)).copy()

    def derivative_sup(self, grid: GridSpec, order: int) -> float:
        """max over the grid of the largest entry of the order-th derivative
        tensor of a0 (order >= 1): max|A| at order 1 for an affine preset,
        grid-sampled for the bump."""
        if self._row.derivative_sup is not None:
            return self._row.derivative_sup(*self.coefficients(grid.dim), grid, order)
        return float(np.abs(self.coefficients(grid.dim)[0]).max()) if order == 1 else 0.0


@dataclass
class DriftSpec:
    """Full controlled drift: preset a0 plus a control path."""

    a0: DriftPreset
    control: ControlPath


def eval_drift(spec: DriftSpec, t, points: np.ndarray) -> np.ndarray:
    """a0(t, x) + u1(t) + x * u2(t) at the given points, shape (..., d).

    ``t`` is one time, or an array of B times for B equal blocks of rows of
    ``points`` (N, d): block b is evaluated at t[b].
    """
    pts = np.asarray(points, dtype=float)
    squeeze = False
    if pts.ndim == 1 and spec.control.dim == 1 and pts.shape[-1] != 1:
        pts = pts[:, None]
        squeeze = True
    d = pts.shape[-1]
    u1, u2 = (np.reshape(u, (-1, 1, d)) for u in spec.control.value_at(t))
    blocks = pts.reshape(u1.shape[0], -1, d)
    out = (spec.a0.eval(t, pts).reshape(blocks.shape) + u1 + blocks * u2).reshape(pts.shape)
    return out[..., 0] if squeeze else out


def drift_grad_bound(spec: DriftSpec, t: float, grid: GridSpec, m: int) -> float:
    """Discrete C^m_b norm of grad a at time t: sup-norms of the derivative
    tensors of a of orders 1..m+1, summed."""
    u1, u2 = spec.control.value_at(t)
    pts = grid.cell_centers()
    jac = spec.a0.jacobian(t, pts)
    jac = jac + np.diag(u2)
    total = float(np.abs(jac).max())
    for order in range(2, m + 2):
        total += spec.a0.derivative_sup(grid, order)
    return total


def drift_div_bound(spec: DriftSpec, t: float, grid: GridSpec) -> float:
    """Discrete sup norm of div a at time t."""
    u1, u2 = spec.control.value_at(t)
    pts = grid.cell_centers()
    jac = spec.a0.jacobian(t, pts)
    div = np.trace(jac, axis1=-2, axis2=-1) + u2.sum()
    return float(np.abs(div).max())


def project_box(control: ControlPath, bounds: BoxBounds) -> ControlPath:
    """Componentwise clamp of every node into the box; idempotent."""
    ua, ub = bounds.arrays()
    d = control.dim
    u1 = np.clip(control.u1, ua[:d], ub[:d])
    u2 = np.clip(control.u2, ua[d:], ub[d:])
    return ControlPath(control.timegrid, u1, u2)


def _segment_abs_integral(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Exact integral of |linear segment| from value a to value b over dt."""
    same = a * b >= 0.0
    out = np.where(
        same,
        0.5 * dt * (np.abs(a) + np.abs(b)),
        0.5 * dt * (a * a + b * b) / np.maximum(np.abs(a) + np.abs(b), 1e-300),
    )
    return out


def control_cost_terms(control: ControlPath, l1_mode: str = "component"):
    """(L2 squared, L1, H1 seminorm squared) of the control path.

    L2sq by the trapezoid rule on nodes; L1 exactly per linear segment for
    the componentwise norm (sign changes handled in closed form), trapezoid
    fallback for the Euclidean variant; H1sq exactly from segment slopes.
    """
    dt = control.timegrid.dt
    u = control.stacked()
    sq = (u * u).sum(axis=1)
    l2sq = float(np.trapezoid(sq, dx=dt))
    if l1_mode == "component":
        seg = _segment_abs_integral(u[:-1], u[1:], dt)
        l1 = float(seg.sum())
    elif l1_mode == "euclidean":
        l1 = float(np.trapezoid(np.sqrt(sq), dx=dt))
    else:
        raise SchemaError(f"unknown l1 mode {l1_mode!r}")
    slopes = (u[1:] - u[:-1]) / dt
    h1sq = float(((slopes * slopes).sum(axis=1) * dt).sum())
    return l2sq, l1, h1sq


# potential presets: name -> the potential at points (..., d) and time t
_POTENTIALS = {
    "zero": lambda pot, pts, t: np.zeros(pts.shape[:-1]),
    "gaussian-well": lambda pot, pts, t: 1.0 - np.exp(-(pts**2).sum(axis=-1)),
    "quadratic": lambda pot, pts, t: (pts**2).sum(axis=-1),
    "tracking": lambda pot, pts, t: ((pts - pot.target_at(t)) ** 2).sum(axis=-1),
}


def _finite(value) -> float:
    """A track_path time or coordinate: a finite number, not a bool or a string."""
    if not is_finite_number(value):
        raise SchemaError(f"track_path times and coordinates must be finite numbers, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Potential:
    """Cost potential preset for theta (running) and phi (terminal).

    Menu: zero; gaussian-well 1 - exp(-|x|^2); quadratic |x|^2; tracking
    |x - x_d(t)|^2 with x_d piecewise linear through track_path nodes.  An
    unknown name raises UnknownPreset.
    """

    name: str = "zero"
    track_t: tuple[float, ...] = ()
    track_x: tuple[tuple[float, ...], ...] = ()
    # track_t and track_x as arrays, built once for target_at
    _track: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _POTENTIALS:
            raise UnknownPreset(f"unknown potential preset {self.name!r}")
        object.__setattr__(self, "_track", (np.asarray(self.track_t), np.asarray(self.track_x)))

    @classmethod
    def tracking(cls, nodes) -> "Potential":
        ts = tuple(_finite(p[0]) for p in nodes)
        xs = tuple(tuple(_finite(v) for v in np.ravel(np.asarray(p[1], dtype=object))) for p in nodes)
        if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise SchemaError("track_path needs at least two strictly increasing times")
        return cls(name="tracking", track_t=ts, track_x=xs)

    @property
    def is_zero(self) -> bool:
        return self.name == "zero"

    @property
    def time_dependent(self) -> bool:
        return self.name == "tracking"

    @property
    def confining(self) -> bool:
        """Grows like |x|^2, so the adjoint is measured in a negative-weight norm."""
        return self.name in ("quadratic", "tracking")

    def target_at(self, t: float) -> np.ndarray:
        ts, xs = self._track
        tt = min(max(t, ts[0]), ts[-1])
        i = int(np.searchsorted(ts, tt, side="right") - 1)
        i = min(max(i, 0), len(ts) - 2)
        w = (tt - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * xs[i] + w * xs[i + 1]


def potential_eval(potential: Potential, points: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Exact analytic evaluation of a potential at points of shape (..., d).

    Scalars and flat arrays are read as d = 1 points.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    if scalar:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    out = _POTENTIALS[potential.name](potential, pts, t)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CostSpec:
    """Weights and potentials of the ensemble cost functional."""

    gamma: float = 1.0
    delta: float = 0.0
    nu: float = 0.0
    theta: Potential = Potential("zero")
    phi: Potential = Potential("zero")
    l1_mode: str = "component"

    def __post_init__(self):
        if not self.gamma > 0:
            raise SchemaError(f"gamma must be positive, got {self.gamma}")
        if self.delta < 0 or self.nu < 0:
            raise SchemaError("delta and nu must be nonnegative")
        if self.l1_mode not in ("component", "euclidean"):
            raise SchemaError(f"unknown l1 mode {self.l1_mode!r}")
