"""Independent ground truths used to check the solvers.

The exact-density oracle integrates the characteristic flow of the affine
drift in closed form and pushes the initial density through the
representation formula rho(t, x) = rho0(psi_t^{-1}(x)) / det J(t): per-axis
scale and shift when the affine part is diagonal (any controls), and one
matrix exponential for any affine part under constant controls.  The moment
oracle integrates the mean and variance ODEs mdot = u1 + m * u2,
vdot = 2 v * u2 with RK4.  Both stay entirely away from the PDE
discretization.  The moment surrogate prices a gaussian ensemble by each
potential's gaussian moment closure (``Potential.gaussian_moments``) and
adds the control costs by ``CostSpec.total``, so it minimizes the cost that
``controls`` defines.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .controls import ControlPath, CostSpec, DriftSpec
from .errors import DegenerateProbe, UnsupportedDrift
from .grid import TimeGrid, density_preset_eval

__all__ = [
    "AffineFlow",
    "ConstantAffineFlow",
    "expm",
    "MomentPath",
    "affine_exact_density",
    "moment_ode",
    "fd_directional_derivative",
    "lipschitz_probe",
    "fit_order",
    "MomentSurrogateProblem",
]

# Gauss-Legendre nodes/weights on [0, 1], 12 points: exact to ~1e-15 for
# the smooth per-segment flow integrands.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _affine_part(drift: DriftSpec) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) with a0(x) = A x + b; raises UnsupportedDrift if a0 is not affine."""
    ab = drift.a0.affine_part(drift.control.dim)
    if ab is None:
        raise UnsupportedDrift(f"no exact flow for a0 preset {drift.a0.name!r}")
    return ab


def _is_diagonal(A: np.ndarray) -> bool:
    return not np.any(A != np.diag(np.diag(A)))


def _axis_rates(drift: DriftSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis nodal alpha(t) = u1 + b and beta(t) = u2 + diag(A) for the
    decoupled linear ODE xdot = alpha + beta x; raises UnsupportedDrift for
    presets whose flow is not a per-axis closed form.
    """
    A, b = _affine_part(drift)
    if not _is_diagonal(A):
        raise UnsupportedDrift("exact flow needs a diagonal affine part")
    return drift.control.u1 + b, drift.control.u2 + np.diag(A)


def expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [6/6] Pade
    approximant (Golub & Van Loan, Algorithm 11.3.1): X is scaled by 2^-s
    so that its 1-norm is at most 1/2, where the approximant's relative
    error is below 4e-16, and the result is squared s times."""
    X = np.asarray(X, dtype=float)
    norm = float(np.abs(X).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    X = X / 2.0**s
    q = 6
    c = 1.0
    power = N = D = np.eye(X.shape[0])
    for k in range(1, q + 1):
        c *= (q - k + 1) / ((2 * q - k + 1) * k)
        power = X @ power
        N = N + c * power
        D = D + (-1) ** k * c * power
    E = np.linalg.solve(D, N)
    for _ in range(s):
        E = E @ E
    return E


@dataclass
class AffineFlow:
    """Closed-form flow of xdot = alpha(t) + beta(t) x, per axis.

    psi_t(x0) = scale(t) * x0 + shift(t), with scale(0) = 1, shift(0) = 0
    and jacdet = prod(scale) > 0.
    """

    drift: DriftSpec

    def __post_init__(self):
        self._alpha, self._beta = _axis_rates(self.drift)
        self._tg = self.drift.control.timegrid

    def _beta_integral(self, t: float) -> np.ndarray:
        """B(t) = int_0^t beta, exact for piecewise-linear beta."""
        dt = self._tg.dt
        s = min(max(t / dt, 0.0), float(self._tg.nt))
        i = int(min(s, self._tg.nt - 1))
        beta = self._beta
        full = 0.5 * dt * (beta[:i] + beta[1 : i + 1]).sum(axis=0) if i > 0 else 0.0
        tau = (s - i) * dt
        b0 = beta[i]
        slope = (beta[i + 1] - beta[i]) / dt
        return full + b0 * tau + 0.5 * slope * tau * tau

    def scale(self, t: float) -> np.ndarray:
        return np.exp(self._beta_integral(t))

    def shift(self, t: float) -> np.ndarray:
        """b(t) = scale(t) * int_0^t exp(-B(s)) alpha(s) ds by per-segment
        Gauss quadrature."""
        dt = self._tg.dt
        s = min(max(t / dt, 0.0), float(self._tg.nt))
        nfull = int(s)
        acc = np.zeros(self.drift.control.dim)
        B_seg_start = np.zeros(self.drift.control.dim)
        for i in range(nfull + 1):
            seg_len = dt if i < nfull else (s - nfull) * dt
            if seg_len <= 0.0:
                break
            b0, b1 = self._beta[i], self._beta[min(i + 1, self._tg.nt)]
            a0, a1 = self._alpha[i], self._alpha[min(i + 1, self._tg.nt)]
            slope_b = (b1 - b0) / dt
            slope_a = (a1 - a0) / dt
            for xq, wq in zip(_GL_X, _GL_W):
                tau = xq * seg_len
                Bval = B_seg_start + b0 * tau + 0.5 * slope_b * tau * tau
                acc = acc + wq * seg_len * np.exp(-Bval) * (a0 + slope_a * tau)
            B_seg_start = B_seg_start + b0 * seg_len + 0.5 * slope_b * seg_len**2
        return np.exp(self._beta_integral(t)) * acc

    def jacdet(self, t: float) -> float:
        return float(np.prod(self.scale(t)))

    def map_inverse(self, t: float, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.shift(t)) / self.scale(t)

    def map_between(self, t0: float, t1: float, points: np.ndarray) -> np.ndarray:
        """psi_{t0 -> t1}(x): follow the flow from time t0 to time t1."""
        s0, s1 = self.scale(t0), self.scale(t1)
        b0, b1 = self.shift(t0), self.shift(t1)
        ratio = s1 / s0
        return ratio * (np.asarray(points, dtype=float) - b0) + b1


@dataclass
class ConstantAffineFlow:
    """Exact flow of xdot = M x + c with M = A + diag(u2), c = b + u1, for
    any affine a0 under constant controls.

    psi_t(x0) = E11 x0 + e12 with [[E11, e12], [0, 1]] = expm(t [[M, c], [0, 0]]),
    and jacdet = exp(t tr M).
    """

    drift: DriftSpec

    def __post_init__(self):
        A, b = _affine_part(self.drift)
        ctrl = self.drift.control
        if np.any(ctrl.u1 != ctrl.u1[0]) or np.any(ctrl.u2 != ctrl.u2[0]):
            raise UnsupportedDrift("exact flow of a non-diagonal affine part needs constant controls")
        d = ctrl.dim
        self._B = np.zeros((d + 1, d + 1))
        self._B[:d, :d] = A + np.diag(ctrl.u2[0])
        self._B[:d, d] = b + ctrl.u1[0]

    def jacdet(self, t: float) -> float:
        return math.exp(t * float(np.trace(self._B)))

    def map_inverse(self, t: float, points: np.ndarray) -> np.ndarray:
        """psi_t^{-1}(x): the flow backward from t to 0, expm(-t B)."""
        E = expm(-t * self._B)
        d = self._B.shape[0] - 1
        return np.asarray(points, dtype=float) @ E[:d, :d].T + E[:d, d]


def affine_exact_density(
    rho0_preset: str, rho0_params: dict, drift: DriftSpec, t: float, points: np.ndarray
) -> np.ndarray:
    """rho(t, x) through the representation formula, for integrable flows:
    AffineFlow for a diagonal affine part, ConstantAffineFlow otherwise."""
    A, _ = _affine_part(drift)
    flow = AffineFlow(drift) if _is_diagonal(A) else ConstantAffineFlow(drift)
    back = flow.map_inverse(t, points)
    return density_preset_eval(rho0_preset, rho0_params, back) / flow.jacdet(t)


@dataclass
class MomentPath:
    """Mean and variance trajectories on the time nodes, each (nt + 1, d)."""

    timegrid: TimeGrid
    m: np.ndarray
    v: np.ndarray


def moment_ode(control: ControlPath, x0, v0, timegrid: TimeGrid | None = None) -> MomentPath:
    """RK4 integration of mdot = u1 + m * u2, vdot = 2 v * u2."""
    tg = timegrid or control.timegrid
    d = control.dim
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (d,))
    v0 = np.broadcast_to(np.atleast_1d(np.asarray(v0, dtype=float)), (d,))
    if np.any(v0 <= 0):
        raise ValueError("moment oracle needs v0 > 0")
    dt = tg.dt
    m = np.zeros((tg.nt + 1, d))
    v = np.zeros((tg.nt + 1, d))
    m[0], v[0] = x0, v0
    # (u1, u2) at the stage times t, t + dt/2 and t + dt of every step, from one lookup
    t = np.arange(tg.nt) * dt
    u1, u2 = control.value_at(np.stack([t, t + dt / 2, t + dt]))

    def rhs(stage, i, mm, vv):
        return u1[stage, i] + mm * u2[stage, i], 2.0 * vv * u2[stage, i]

    for i in range(tg.nt):
        k1m, k1v = rhs(0, i, m[i], v[i])
        k2m, k2v = rhs(1, i, m[i] + dt / 2 * k1m, v[i] + dt / 2 * k1v)
        k3m, k3v = rhs(1, i, m[i] + dt / 2 * k2m, v[i] + dt / 2 * k2v)
        k4m, k4v = rhs(2, i, m[i] + dt * k3m, v[i] + dt * k3v)
        m[i + 1] = m[i] + dt / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        v[i + 1] = v[i] + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return MomentPath(tg, m, v)


def fd_directional_derivative(problem, control: ControlPath, direction: ControlPath, eps: float) -> float:
    """Central difference (J(u + eps du) - J(u - eps du)) / (2 eps)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    ua, ub = problem.bounds.arrays()
    for sgn in (+1.0, -1.0):
        stacked = control.stacked() + sgn * eps * direction.stacked()
        if np.any(stacked < ua - 1e-12) or np.any(stacked > ub + 1e-12):
            raise ValueError("u +/- eps * direction leaves the admissible box")
    up = ControlPath.from_stacked(control.timegrid, control.stacked() + eps * direction.stacked())
    dn = ControlPath.from_stacked(control.timegrid, control.stacked() - eps * direction.stacked())
    return (problem.reduced_cost(up) - problem.reduced_cost(dn)) / (2.0 * eps)


def lipschitz_probe(problem, u: ControlPath, v: ControlPath) -> float:
    """max over time nodes of ||G(u)(t) - G(v)(t)||_{L2} / int_0^t |u - v|."""
    diff = u.stacked() - v.stacked()
    speed = np.sqrt((diff * diff).sum(axis=1))
    dt = u.timegrid.dt
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (speed[:-1] + speed[1:]))])
    if cum[-1] <= 0.0:
        raise DegenerateProbe("controls coincide; Lipschitz ratio undefined")
    tru = problem.solve_forward_for(u)
    trv = problem.solve_forward_for(v)
    vol = problem.grid.cell_volume
    ratio = 0.0
    for n, (fu, fv) in enumerate(zip(tru.nodes, trv.nodes)):
        if n == 0 or cum[n] <= 0.0:
            continue
        l2 = np.sqrt((((fu - fv) ** 2).sum()) * vol)
        ratio = max(ratio, float(l2 / cum[n]))
    return ratio


def fit_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    lh = np.log(np.asarray(hs, dtype=float))
    le = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    A = np.vstack([lh, np.ones_like(lh)]).T
    slope, _ = np.linalg.lstsq(A, le, rcond=None)[0]
    return float(slope)


# --- moment-restricted surrogate -------------------------------------------
#
# For a0 = 0 a gaussian stays gaussian under the affine flow, so the cost of
# a gaussian ensemble is an explicit function of (m(t), v(t)).  Minimizing
# that function over the same nodal controls gives an ODE-only reference for
# the PDE optimizer: a 2(nt + 1)-variable problem solved by the same
# proximal loop.


@dataclass
class MomentSurrogateProblem:
    """Gaussian-restricted twin of a d = 1 ensemble problem (a0 = 0).

    Exposes the same reduced_cost / descent_gradient / bounds protocol the
    optimizer consumes, so the identical proximal loop can minimize it.
    """

    timegrid: TimeGrid
    x0: float
    v0: float
    cost: CostSpec
    bounds: object
    control_dim: int = 1

    def reduced_cost(self, control: ControlPath) -> float:
        path = moment_ode(control, self.x0, self.v0, self.timegrid)
        m, v, dt = path.m[:, 0], path.v[:, 0], self.timegrid.dt
        run = [self.cost.theta.gaussian_moments(float(m[i]), float(v[i]), i * dt)[0] for i in range(m.size)]
        j = float(np.trapezoid(np.array(run), dx=dt))
        j += self.cost.phi.gaussian_moments(float(m[-1]), float(v[-1]), self.timegrid.T)[0]
        return self.cost.total(j, control)

    def descent_gradient(self, control: ControlPath):
        """delta-free L2 gradient via the backward adjoint of the moment ODEs."""
        tg = self.timegrid
        dt = tg.dt
        path = moment_ode(control, self.x0, self.v0, self.timegrid)
        m, v = path.m[:, 0], path.v[:, 0]
        lm = np.zeros(tg.nt + 1)
        lv = np.zeros(tg.nt + 1)
        _, lm[-1], lv[-1] = self.cost.phi.gaussian_moments(m[-1], v[-1], tg.T)
        # step i runs back from node t1 to the midpoint tm of (t1 - dt, t1);
        # u2 at both, for every step, from one lookup
        t1 = np.arange(tg.nt + 1) * dt
        tm = 0.5 * ((t1 - dt) + t1)
        times = np.stack([t1, tm])
        u2 = control.value_at(times)[1][..., 0]

        def lrhs(stage, i, mm, vv, lmm, lvv):
            _, em, ev = self.cost.theta.gaussian_moments(mm, vv, times[stage, i])
            return -em - lmm * u2[stage, i], -ev - 2.0 * lvv * u2[stage, i]

        for i in range(tg.nt, 0, -1):
            mmid, vmid = 0.5 * (m[i] + m[i - 1]), 0.5 * (v[i] + v[i - 1])
            k1m, k1v = lrhs(0, i, m[i], v[i], lm[i], lv[i])
            k2m, k2v = lrhs(1, i, mmid, vmid, lm[i] - 0.5 * dt * k1m, lv[i] - 0.5 * dt * k1v)
            lm[i - 1] = lm[i] - dt * k2m
            lv[i - 1] = lv[i] - dt * k2v
        g1 = self.cost.gamma * control.u1[:, 0] + lm
        g2 = self.cost.gamma * control.u2[:, 0] + lm * m + 2.0 * lv * v
        return ControlPath(tg, g1[:, None], g2[:, None])
