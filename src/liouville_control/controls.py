"""Controls, controlled drift, box projection, control costs, and potentials.

The drift is ``a(t, x; u) = a0(t, x) + u1(t) + x * u2(t)`` with the product
taken componentwise.  Controls are continuous piecewise-linear in time on the
nodes of a TimeGrid, one representation serving both the plain L2 case and
the H1 (slowly varying control) case, where the seminorm of a piecewise
linear path is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, UnknownPreset
from .grid import GridSpec, TimeGrid

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

    def value_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Linear interpolation between nodes; t clamped to [0, T]."""
        dt = self.timegrid.dt
        s = min(max(t / dt, 0.0), float(self.timegrid.nt))
        i = min(int(s), self.timegrid.nt - 1)
        w = s - i
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

    def copy(self) -> "ControlPath":
        return ControlPath(self.timegrid, self.u1.copy(), self.u2.copy())


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


@dataclass(frozen=True)
class DriftPreset:
    """Uncontrolled part a0 of the drift.

    Presets: zero; constant(b); affine(A, b); rotation(omega), d = 2 only;
    gaussian-bump(c, sigma).  All are smooth with bounded derivatives.
    """

    name: str = "zero"
    params: dict = field(default_factory=dict)

    def eval(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        if self.name == "zero":
            return np.zeros_like(pts)
        if self.name == "constant":
            b = np.broadcast_to(np.atleast_1d(self.params.get("b", 0.0)), (d,))
            return np.broadcast_to(b, pts.shape).copy()
        if self.name == "affine":
            A = np.asarray(self.params.get("A"), dtype=float).reshape(d, d)
            b = np.broadcast_to(np.atleast_1d(self.params.get("b", 0.0)), (d,))
            return pts @ A.T + b
        if self.name == "rotation":
            if d != 2:
                raise UnknownPreset("rotation drift needs d = 2")
            w = float(self.params.get("omega", 1.0))
            out = np.empty_like(pts)
            out[..., 0] = -w * pts[..., 1]
            out[..., 1] = w * pts[..., 0]
            return out
        if self.name == "gaussian-bump":
            c = np.broadcast_to(np.atleast_1d(self.params.get("c", 1.0)), (d,))
            sig = float(self.params.get("sigma", 1.0))
            g = np.exp(-(pts**2).sum(axis=-1) / (2.0 * sig * sig))
            return g[..., None] * c
        raise UnknownPreset(f"unknown drift preset {self.name!r}")

    def jacobian(self, t: float, points: np.ndarray) -> np.ndarray:
        """d a0_r / d x_s at the given points, shape points.shape + (d,)."""
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        jshape = pts.shape[:-1] + (d, d)
        if self.name in ("zero", "constant"):
            return np.zeros(jshape)
        if self.name == "affine":
            A = np.asarray(self.params.get("A"), dtype=float).reshape(d, d)
            return np.broadcast_to(A, jshape).copy()
        if self.name == "rotation":
            w = float(self.params.get("omega", 1.0))
            J = np.array([[0.0, -w], [w, 0.0]])
            return np.broadcast_to(J, jshape).copy()
        if self.name == "gaussian-bump":
            c = np.broadcast_to(np.atleast_1d(self.params.get("c", 1.0)), (d,))
            sig2 = float(self.params.get("sigma", 1.0)) ** 2
            g = np.exp(-(pts**2).sum(axis=-1) / (2.0 * sig2))
            return -c[:, None] * pts[..., None, :] / sig2 * g[..., None, None]
        raise UnknownPreset(f"unknown drift preset {self.name!r}")

    def derivative_sup(self, grid: GridSpec, order: int) -> float:
        """max over the grid of the largest entry of the order-th derivative
        tensor of a0 (order >= 1); closed forms for the polynomial presets,
        grid-sampled for the bump.
        """
        d = grid.dim
        if self.name in ("zero", "constant"):
            return 0.0
        if self.name == "affine":
            A = np.asarray(self.params.get("A"), dtype=float).reshape(d, d)
            return float(np.abs(A).max()) if order == 1 else 0.0
        if self.name == "rotation":
            w = float(self.params.get("omega", 1.0))
            return abs(w) if order == 1 else 0.0
        if self.name == "gaussian-bump":
            c = np.broadcast_to(np.atleast_1d(self.params.get("c", 1.0)), (d,))
            cmax = float(np.abs(c).max())
            sig = float(self.params.get("sigma", 1.0))
            pts = grid.cell_centers()
            g = np.exp(-(pts**2).sum(axis=-1) / (2.0 * sig * sig))
            x = np.abs(pts)
            if order == 1:
                m = (x / sig**2) * g[:, None]
                return cmax * float(m.max())
            if order == 2:
                hi = (x.max(axis=1) ** 2 / sig**4 + 1.0 / sig**2) * g
                return cmax * float(hi.max())
            if order == 3:
                hi = (x.max(axis=1) ** 3 / sig**6 + 3.0 * x.max(axis=1) / sig**4) * g
                return cmax * float(hi.max())
            return 0.0
        raise UnknownPreset(f"unknown drift preset {self.name!r}")


@dataclass
class DriftSpec:
    """Full controlled drift: preset a0 plus a control path."""

    a0: DriftPreset
    control: ControlPath


def eval_drift(spec: DriftSpec, t: float, points: np.ndarray) -> np.ndarray:
    """a0(t, x) + u1(t) + x * u2(t) at the given points, shape (..., d)."""
    pts = np.asarray(points, dtype=float)
    squeeze = False
    if pts.ndim == 1 and spec.control.dim == 1 and pts.shape[-1] != 1:
        pts = pts[:, None]
        squeeze = True
    u1, u2 = spec.control.value_at(t)
    out = spec.a0.eval(t, pts) + u1 + pts * u2
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


@dataclass(frozen=True)
class Potential:
    """Cost potential preset for theta (running) and phi (terminal).

    Menu: zero; gaussian-well 1 - exp(-|x|^2); quadratic |x|^2; tracking
    |x - x_d(t)|^2 with x_d piecewise linear through track_path nodes.
    """

    name: str = "zero"
    track_t: tuple[float, ...] = ()
    track_x: tuple[tuple[float, ...], ...] = ()

    @classmethod
    def tracking(cls, nodes) -> "Potential":
        ts = tuple(float(p[0]) for p in nodes)
        xs = tuple(tuple(float(v) for v in np.atleast_1d(p[1])) for p in nodes)
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
        ts = np.asarray(self.track_t)
        xs = np.asarray(self.track_x)
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
    if potential.name == "zero":
        out = np.zeros(pts.shape[:-1])
    elif potential.name == "gaussian-well":
        out = 1.0 - np.exp(-(pts**2).sum(axis=-1))
    elif potential.name == "quadratic":
        out = (pts**2).sum(axis=-1)
    elif potential.name == "tracking":
        xd = potential.target_at(t)
        out = ((pts - xd) ** 2).sum(axis=-1)
    else:
        raise UnknownPreset(f"unknown potential preset {potential.name!r}")
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
