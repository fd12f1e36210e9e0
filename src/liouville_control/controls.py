"""Controls, controlled drift, box projection, and the cost functional.

The drift is ``a(t, x; u) = a0(x) + u1(t) + x * u2(t)`` with the product
taken componentwise.  Controls are continuous piecewise-linear in time on the
nodes of a TimeGrid, one representation serving both the plain L2 case and
the H1 (slowly varying control) case, where the seminorm of a piecewise
linear path is exact.

The cost functional is defined here only: ``CostSpec.total`` adds the
control costs 1/2 gamma ||u||^2 + delta ||u||_1 + 1/2 nu ||u'||^2 onto a
state cost, with the componentwise L1 norm that the optimizer's
soft-threshold step solves, and each potential preset is one row of
``_POTENTIALS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError, UnknownPreset, UnsupportedOrder
from .grid import GridSpec, TimeGrid, _squared_norm, is_finite_number, resolve_preset

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
    """Nodal values of u = (u1, u2), each (nt + 1, d), piecewise linear.

    The nodes are stored once, as one read-only (nt + 1, 2 d) array,
    ``nodes``: the u1 columns, then the u2 columns.  ``u1`` and ``u2`` are
    views of it, and ``stacked()`` returns it without a copy.
    """

    timegrid: TimeGrid
    u1: np.ndarray
    u2: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u1 = np.atleast_2d(np.asarray(self.u1, dtype=float))
        u2 = np.atleast_2d(np.asarray(self.u2, dtype=float))
        nn = self.timegrid.nt + 1
        if u1.shape[0] != nn or u2.shape[0] != nn:
            raise SchemaError(f"control needs {nn} nodes, got {u1.shape[0]} and {u2.shape[0]}")
        if u1.shape != u2.shape:
            raise SchemaError("u1 and u2 must share the node layout")
        self.nodes = np.hstack([u1, u2])
        if not np.all(np.isfinite(self.nodes)):
            raise SchemaError("control values must be finite")
        self.nodes.flags.writeable = False
        self.u1, self.u2 = self.nodes[:, : u1.shape[1]], self.nodes[:, u1.shape[1]:]

    @property
    def dim(self) -> int:
        return self.u1.shape[1]

    @classmethod
    def zeros(cls, timegrid: TimeGrid, dim: int) -> "ControlPath":
        z = np.zeros((timegrid.nt + 1, dim))
        return cls(timegrid, z, z)

    @classmethod
    def constant(cls, timegrid: TimeGrid, u1, u2) -> "ControlPath":
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        u2 = np.atleast_1d(np.asarray(u2, dtype=float))
        nn = timegrid.nt + 1
        return cls(timegrid, np.tile(u1, (nn, 1)), np.tile(u2, (nn, 1)))

    def value_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(u1, u2) at a time or an array of times, each of shape
        ``t.shape + (d,)``: linear interpolation between nodes, t clamped
        to [0, T], in one pass over the stacked nodes."""
        nt = self.timegrid.nt
        s = np.minimum(np.maximum(np.asarray(t, dtype=float) / self.timegrid.dt, 0.0), float(nt))
        i = np.minimum(s.astype(int), nt - 1)
        w = (s - i)[..., None]
        u = (1.0 - w) * self.nodes[i] + w * self.nodes[i + 1]
        return u[..., : self.dim], u[..., self.dim:]

    def stacked(self) -> np.ndarray:
        """Node values as (nt + 1, 2 d): u1 columns then u2 columns (``nodes``, read-only)."""
        return self.nodes

    @classmethod
    def from_stacked(cls, timegrid: TimeGrid, arr: np.ndarray) -> "ControlPath":
        arr = np.asarray(arr, dtype=float)
        d = arr.shape[1] // 2
        return cls(timegrid, arr[:, :d], arr[:, d:])


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


def _bump(p: dict, d: int):
    sig = float(p["sigma"])
    if not sig > 0:
        raise UnknownPreset(f"gaussian-bump drift needs sigma > 0, got {sig}")
    return _vector(p["c"], d), sig


def _bump_g(pts: np.ndarray, sig: float) -> np.ndarray:
    return np.exp(-_squared_norm(pts) / (2.0 * sig * sig))


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
        raise UnsupportedOrder(f"gaussian-bump derivative bounds cover orders 1 to 3, got {order}")
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
        _bump,
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

    def eval(self, points: np.ndarray) -> np.ndarray:
        """a0 at points (..., d), as a new array, which eval_drift writes into."""
        pts = np.asarray(points, dtype=float)
        return self._row.eval(*self.coefficients(pts.shape[-1]), pts)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """d a0_r / d x_s at the given points, shape points.shape + (d,)."""
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        if self._row.jacobian is not None:
            return self._row.jacobian(*self.coefficients(d), pts)
        return np.broadcast_to(self.coefficients(d)[0], pts.shape[:-1] + (d, d)).copy()

    def derivative_sup(self, grid: GridSpec, order: int) -> float:
        """max over the grid of the largest entry of the order-th derivative
        tensor of a0 (order >= 1): max|A| at order 1 for an affine preset,
        grid-sampled for the bump, which raises UnsupportedOrder above order 3."""
        if self._row.derivative_sup is not None:
            return self._row.derivative_sup(*self.coefficients(grid.dim), grid, order)
        return float(np.abs(self.coefficients(grid.dim)[0]).max()) if order == 1 else 0.0


@dataclass
class DriftSpec:
    """Full controlled drift: preset a0 plus a control path."""

    a0: DriftPreset
    control: ControlPath


def eval_drift(spec: DriftSpec, t, points: np.ndarray, control=None) -> np.ndarray:
    """a0(x) + u1(t) + x * u2(t) at the given points, shape (..., d).

    ``t`` is one time, or an array of B times for B equal blocks of rows of
    ``points`` (N, d): block b is evaluated at t[b].  ``control`` is
    ``spec.control.value_at(t)`` if the caller has it already looked up.
    Each coordinate column in turn gets (a0 + u1) + x * u2 in a0's new array,
    so that numpy's inner loop runs over the points, not over d coordinates.
    At one time the control rows are 1-D and each entry is added to its
    column as it is; only at B times are the rows, the points and a0's array
    reshaped into B blocks, each row broadcast over its block.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = False
    if pts.ndim == 1 and spec.control.dim == 1 and pts.shape[-1] != 1:
        pts = pts[:, None]
        squeeze = True
    d = pts.shape[-1]
    u1, u2 = spec.control.value_at(t) if control is None else control
    out, x = spec.a0.eval(pts), pts
    if np.ndim(u1) > 1:
        u1, u2 = (np.reshape(u, (-1, 1, d)) for u in (u1, u2))
        x = pts.reshape(u1.shape[0], -1, d)
        out = out.reshape(x.shape)
    for k in range(d):
        col = out[..., k]
        col += u1[..., k]
        col += x[..., k] * u2[..., k]
    out = out.reshape(pts.shape)
    return out[..., 0] if squeeze else out


def _sup_shifted(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """max |values + shift| over points (rows of values) and entries, per row
    of shifts.  A rounded sum is monotone in each term, so each entry's sup
    is at its extremes over the points: the bits of the full table's max."""
    sup = np.maximum(np.abs(values.min(axis=0) + shifts), np.abs(values.max(axis=0) + shifts))
    return sup.reshape(len(shifts), -1).max(axis=1)


def drift_grad_bound(spec: DriftSpec, t: np.ndarray, grid: GridSpec, m: int) -> np.ndarray:
    """Discrete C^m_b norm of grad a at each of the times t: sup-norms of
    the derivative tensors of a of orders 1..m+1, summed.  The control adds
    diag(u2) to a0's Jacobian, which is evaluated once."""
    u2 = spec.control.value_at(t)[1]
    total = _sup_shifted(spec.a0.jacobian(grid.cell_centers()), u2[:, :, None] * np.eye(grid.dim))
    for order in range(2, m + 2):
        total += spec.a0.derivative_sup(grid, order)
    return total


def drift_div_bound(spec: DriftSpec, t: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete sup norm of div a at each of the times t, from one
    evaluation of a0's Jacobian."""
    u2 = spec.control.value_at(t)[1]
    div0 = np.trace(spec.a0.jacobian(grid.cell_centers()), axis1=-2, axis2=-1)
    return _sup_shifted(div0, u2.sum(axis=-1))


def project_box(control: ControlPath, bounds: BoxBounds) -> ControlPath:
    """Componentwise clamp of every node into the box; idempotent."""
    return ControlPath.from_stacked(control.timegrid, np.clip(control.nodes, *bounds.arrays()))


def control_cost_terms(control: ControlPath):
    """(L2 squared, L1, H1 seminorm squared) of the control path.

    L2sq by the trapezoid rule on nodes; the componentwise L1 norm exactly
    per linear segment, a segment that changes sign in closed form; H1sq
    exactly from segment slopes.
    """
    dt = control.timegrid.dt
    u = control.stacked()
    l2sq = float(np.trapezoid((u * u).sum(axis=1), dx=dt))
    a, b = u[:-1], u[1:]
    seg = np.where(
        a * b >= 0.0,
        0.5 * dt * (np.abs(a) + np.abs(b)),
        0.5 * dt * (a * a + b * b) / np.maximum(np.abs(a) + np.abs(b), 1e-300),
    )
    slopes = (b - a) / dt
    h1sq = float(((slopes * slopes).sum(axis=1) * dt).sum())
    return l2sq, float(seg.sum()), h1sq


def _well_moments(pot, m, S, t):
    """The closure of 1 - exp(-|x|^2): E = 1 - s with s = det(W)^(-1/2) exp(-m^T W^-1 m), W = I + 2 S."""
    Winv = np.linalg.inv(np.eye(m.shape[-1]) + 2.0 * S)
    v = (Winv @ m[..., None])[..., 0]
    s = np.linalg.det(Winv) ** 0.5 * np.exp(-(m * v).sum(axis=-1))
    return 1.0 - s, 2.0 * s[..., None] * v, s[..., None, None] * (Winv - 2.0 * v[..., :, None] * v[..., None, :])


def _square_moments(pot, m, S, t):
    """The closure of |x - x_d(t)|^2, or of |x|^2 without a track: (|m - x_d|^2 + tr S, 2 (m - x_d), I)."""
    r = m - pot.target_at(t) if pot.time_dependent else m
    return _squared_norm(r) + np.trace(S, axis1=-2, axis2=-1), 2.0 * r, np.broadcast_to(np.eye(m.shape[-1]), S.shape)


class _PotentialRow(NamedTuple):
    """One potential preset: its values at points (..., M, d) and a time or times (see potential_eval;
    |x|^2 from grid._squared_norm), its gaussian closure (see Potential.gaussian_moments), and
    whether it depends on time (then it needs a track), grows like |x|^2, or vanishes."""

    evaluate: Callable
    moments: Callable
    time_dependent: bool = False
    confining: bool = False
    is_zero: bool = False


_POTENTIALS = {
    "zero": _PotentialRow(lambda pot, x, t: np.zeros(x.shape[:-1]), lambda pot, m, S, t: (0 * m[..., 0], 0 * m, 0 * S),
                          is_zero=True),
    "gaussian-well": _PotentialRow(lambda pot, x, t: 1.0 - np.exp(-_squared_norm(x)), _well_moments),
    "quadratic": _PotentialRow(lambda pot, x, t: _squared_norm(x), _square_moments, confining=True),
    "tracking": _PotentialRow(
        lambda pot, x, t: _squared_norm(x, pot.target_at(t)[..., None, :]), _square_moments,
        time_dependent=True, confining=True,
    ),
}


def _finite(value) -> float:
    """A track_path time or coordinate: a finite number, not a bool or a string."""
    if not is_finite_number(value):
        raise SchemaError(f"track_path times and coordinates must be finite numbers, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Potential:
    """A cost potential, theta (running) or phi (terminal): one row of ``_POTENTIALS``.

    Menu: zero; gaussian-well 1 - exp(-|x|^2); quadratic |x|^2; tracking
    |x - x_d(t)|^2 with x_d piecewise linear through track_path nodes.  An
    unknown name raises UnknownPreset; a time-dependent preset without at
    least two strictly increasing track times, each with a point, raises
    SchemaError.
    """

    name: str = "zero"
    track_t: tuple[float, ...] = ()
    track_x: tuple[tuple[float, ...], ...] = ()
    # track_t and track_x as arrays, built once for target_at
    _track: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _POTENTIALS:
            raise UnknownPreset(f"unknown potential preset {self.name!r}")
        row = _POTENTIALS[self.name]
        ts, xs = self.track_t, self.track_x
        if row.time_dependent and (len(ts) < 2 or len(xs) != len(ts) or any(b <= a for a, b in zip(ts, ts[1:]))):
            raise SchemaError("track_path needs at least two strictly increasing times, each with a point")
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_track", (np.asarray(ts), np.asarray(xs)))

    @classmethod
    def tracking(cls, nodes) -> "Potential":
        ts = tuple(_finite(p[0]) for p in nodes)
        xs = tuple(tuple(_finite(v) for v in np.ravel(np.asarray(p[1], dtype=object))) for p in nodes)
        return cls(name="tracking", track_t=ts, track_x=xs)

    is_zero = property(lambda self: self._row.is_zero)
    time_dependent = property(lambda self: self._row.time_dependent)
    # grows like |x|^2, so the adjoint is measured in a negative-weight norm
    confining = property(lambda self: self._row.confining)

    def gaussian_moments(self, m, S, t):
        """(E[pot(X)], dE/dm, dE/dS) for X ~ N(m, S), m (..., d) and S (..., d, d), at times t that
        broadcast against m.shape[:-1]; analytic in (m, S), so a complex step differentiates it."""
        return self._row.moments(self, np.asarray(m), np.asarray(S), t)

    def target_at(self, t) -> np.ndarray:
        """x_d at a time or an array of times, of shape ``t.shape + (d,)``:
        linear interpolation between track nodes, t clamped to the track's
        ends."""
        ts, xs = self._track
        tt = np.minimum(np.maximum(np.asarray(t, dtype=float), ts[0]), ts[-1])
        # tt >= ts[0], so the node index is at least 0
        i = np.minimum(np.searchsorted(ts, tt, side="right") - 1, len(ts) - 2)
        w = ((tt - ts[i]) / (ts[i + 1] - ts[i]))[..., None]
        return (1.0 - w) * xs[i] + w * xs[i + 1]


def potential_eval(potential: Potential, points: np.ndarray, t=0.0) -> np.ndarray:
    """Exact analytic evaluation of a potential at points of shape (..., d).

    A scalar is read as one d = 1 point; a flat array raises ValueError,
    since it could be n points of d = 1 or one point of d = n, and so do
    points whose d differs from that of a tracking potential's track.  ``t``
    is one time, or an array of times of shape S for points of shape
    S + (M, d), or (M, d) shared by every time: the values have shape
    S + (M,), row s at time t[s].  A preset that does not depend on time
    gives ``points.shape[:-1]``, which broadcasts against S + (M,).
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    if scalar:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        raise ValueError(f"points must have the layout (..., d), got the flat shape {pts.shape}")
    track_x = potential._track[1]
    if potential.time_dependent and track_x.shape[-1] != pts.shape[-1]:
        raise ValueError(f"points must have the layout (..., d) with the track's d = {track_x.shape[-1]}, got {pts.shape}")
    out = potential._row.evaluate(potential, pts, t)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CostSpec:
    """Weights and potentials of the ensemble cost functional."""

    gamma: float = 1.0
    delta: float = 0.0
    nu: float = 0.0
    theta: Potential = Potential("zero")
    phi: Potential = Potential("zero")

    def __post_init__(self):
        if not self.gamma > 0:
            raise SchemaError(f"gamma must be positive, got {self.gamma}")
        if self.delta < 0 or self.nu < 0:
            raise SchemaError("delta and nu must be nonnegative")

    @property
    def confining(self) -> bool:
        """theta or phi grows like |x|^2: the adjoint takes a negative-weight norm."""
        return self.theta.confining or self.phi.confining

    def total(self, state: float, control: ControlPath) -> float:
        """A state cost plus 1/2 gamma ||u||^2 + delta ||u||_1 + 1/2 nu ||u'||^2, in that order."""
        l2sq, l1, h1sq = control_cost_terms(control)
        return state + 0.5 * self.gamma * l2sq + self.delta * l1 + 0.5 * self.nu * h1sq
