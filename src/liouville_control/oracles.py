"""Independent ground truths used to check the solvers.

The exact-density oracle takes the characteristic flow of the affine drift
under constant controls as one matrix exponential and pushes the initial
density through the representation formula
rho(t, x) = rho0(psi_t^{-1}(x)) / det D psi_t.  The moment
surrogate integrates the mean and covariance ODEs of each gaussian component
of rho0 with RK4, prices them by the potentials' gaussian closures and the
control costs by ``CostSpec.total``, and differentiates exactly those RK4
steps.  Both stay entirely away from the PDE discretization.

The module is a leaf: no solver module imports it, so the solvers never
depend on their checks; only ``cli`` and the package import it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .controls import BoxBounds, ControlPath, CostSpec, DriftPreset, DriftSpec
from .errors import DegenerateProbe, NotApplicable, UnsupportedDrift
from .grid import TimeGrid, density_preset_eval, gaussian_mixture

__all__ = [
    "AffineFlow",
    "expm",
    "affine_exact_density",
    "fd_directional_derivative",
    "lipschitz_probe",
    "MomentSurrogateProblem",
]


def _affine_part(a0: DriftPreset, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) with a0(x) = A x + b on R^d; raises UnsupportedDrift if a0 is not affine."""
    ab = a0.affine_part(d)
    if ab is None:
        raise UnsupportedDrift(f"no exact flow for a0 preset {a0.name!r}")
    return ab


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
    """Exact flow of xdot = M x + c with M = A + diag(u2), c = b + u1, for
    any affine a0 under constant controls; any other a0 or a control that
    varies in time raises UnsupportedDrift.

    psi_{t0 -> t1}(x) = E11 x + e12 with [[E11, e12], [0, 1]] =
    expm((t1 - t0) [[M, c], [0, 0]]), and jacdet(t) = exp(t tr M).
    """

    drift: DriftSpec

    def __post_init__(self):
        A, b = _affine_part(self.drift.a0, self.drift.control.dim)
        ctrl = self.drift.control
        if np.any(ctrl.u1 != ctrl.u1[0]) or np.any(ctrl.u2 != ctrl.u2[0]):
            raise UnsupportedDrift("exact flow needs constant controls")
        d = ctrl.dim
        self._B = np.zeros((d + 1, d + 1))
        self._B[:d, :d] = A + np.diag(ctrl.u2[0])
        self._B[:d, d] = b + ctrl.u1[0]

    def jacdet(self, t: float) -> float:
        return math.exp(t * float(np.trace(self._B)))

    def map_between(self, t0: float, t1: float, points: np.ndarray) -> np.ndarray:
        """psi_{t0 -> t1}(x): follow the flow from time t0 to time t1."""
        E = expm((t1 - t0) * self._B)
        d = self._B.shape[0] - 1
        return np.asarray(points, dtype=float) @ E[:d, :d].T + E[:d, d]


def affine_exact_density(
    rho0_preset: str, rho0_params: dict, drift: DriftSpec, t: float, points: np.ndarray
) -> np.ndarray:
    """rho(t, x) = rho0(psi_t^{-1}(x)) / det D psi_t along the AffineFlow of drift."""
    flow = AffineFlow(drift)
    back = flow.map_between(t, 0.0, points)
    return density_preset_eval(rho0_preset, rho0_params, back) / flow.jacdet(t)


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


# Under the affine drift M x + c, M = A + diag(u2) and c = b + u1, a gaussian
# stays gaussian: m' = M m + c and S' = M S + S M^T for each component of a
# mixture.  Its state y = (m, S by rows, 1) has the rate y L^T, with
# L = lift(M, c) affine in the controls.


def _lift(M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The matrix of (m, S, 1) -> (M m + c, M S + S M^T, 0) on (m, S by rows, 1)."""
    d = len(M)
    L = np.zeros((d + d * d + 1,) * 2)
    L[:d, :d], L[:d, -1] = M, c
    L[d:-1, d:-1] = np.kron(M, np.eye(d)) + np.kron(np.eye(d), M)
    return L


def _rk4(y: np.ndarray, dt: float, stages) -> tuple:
    """One classical RK4 step of y' = y L^T from y, with the four stages' L in
    turn: the step's end and its four stage points."""
    points, k = [y], []
    for L, h in zip(stages, (dt / 2, dt / 2, dt, 0.0)):
        k.append(points[-1] @ L.T)
        points.append(y + h * k[-1])
    return y + dt / 6 * (k[0] + 2 * k[1] + 2 * k[2] + k[3]), points[:4]


@dataclass
class MomentSurrogateProblem:
    """The moment twin of an ensemble problem whose rho0 is a gaussian mixture,
    a (preset, params) pair, and whose a0 is affine, in d = len(bounds.ua) // 2
    dimensions.  It has the reduced_cost / descent_gradient / bounds protocol
    of the optimizer's proximal loop; ``path`` and ``state_cost`` take the
    stacked node array (nt + 1, 2 d), real or complex."""

    timegrid: TimeGrid
    rho0: tuple
    cost: CostSpec
    bounds: BoxBounds
    a0: DriftPreset = DriftPreset()

    def __post_init__(self):
        self._d = d = len(self.bounds.ua) // 2
        self._L0 = _lift(*_affine_part(self.a0, d))
        self._dL = np.stack([_lift(np.diag(e[d:]), e[:d]) for e in np.eye(2 * d)])  # dL / dU_j
        mixture = gaussian_mixture(*self.rho0, d)
        if mixture is None:
            raise NotApplicable(f"density preset {self.rho0[0]!r} is not a gaussian mixture")
        self._w = np.array([w for w, _, _ in mixture])
        self._y0 = np.array([np.r_[x0, v0 * np.eye(d).ravel(), 1.0] for _, x0, v0 in mixture])

    def _sweep(self, U: np.ndarray) -> tuple:
        """RK4 from rho0's components with the controls U[i], (U[i] + U[i+1]) / 2 and
        U[i+1] at the stages of step i: the stage matrices (3, nt, n, n), the node
        states (nt + 1, K, n) and every step's four stage points (nt, 4, K, n)."""
        L = self._L0 + np.tensordot(np.stack([U[:-1], 0.5 * (U[:-1] + U[1:]), U[1:]]), self._dL, axes=1)
        y, points = [self._y0], []
        for i in range(len(U) - 1):
            end, stage_points = _rk4(y[i], self.timegrid.dt, L[(0, 1, 1, 2), i])
            y.append(end)
            points.append(stage_points)
        return L, np.array(y), np.array(points)

    def path(self, U) -> tuple:
        """Means (nt + 1, K, d) and covariances (nt + 1, K, d, d) of the components at the nodes."""
        y, d = self._sweep(np.asarray(U))[1], self._d
        return y[..., :d], y[..., d:-1].reshape(y.shape[:-1] + (d, d))

    def _price(self, y: np.ndarray) -> tuple:
        """The state cost of the node states y and its derivative by them: the
        trapezoid rule over the nodes of theta's closure plus phi's at T, each
        summed over the components with their weights."""
        tg, d = self.timegrid, self._d
        m, S = y[..., :d], y[..., d:-1].reshape(y.shape[:-1] + (d, d))
        weights = tg.trapezoid_weights()[:, None] * self._w
        run = self.cost.theta.gaussian_moments(m, S, tg.nodes()[:, None])
        end = self.cost.phi.gaussian_moments(m[-1], S[-1], tg.T)
        slope = np.zeros_like(y)
        slope[..., :-1] = weights[..., None] * np.concatenate([run[1], run[2].reshape(m.shape[:-1] + (-1,))], axis=-1)
        slope[-1, :, :-1] += self._w[:, None] * np.concatenate([end[1], end[2].reshape(m.shape[1:-1] + (-1,))], axis=-1)
        return (weights * run[0]).sum() + self._w @ end[0], slope

    def state_cost(self, U):
        """The state cost of the stacked node array U, real or complex."""
        return self._price(self._sweep(np.asarray(U))[1])[0]

    def reduced_cost(self, control: ControlPath) -> float:
        return self.cost.total(float(self.state_cost(control.nodes)), control)

    def descent_gradient(self, control: ControlPath) -> ControlPath:
        """The delta-free L2 gradient of reduced_cost.  The transpose of the RK4 steps
        runs back from T with the stages' L^T, so c drops out of (m, S); stage s of
        step i adds dt b_s Q^T (dL / dU) Y at its stage points Q and Y, summed over
        the components.  That derivative by the nodes, with the nu term of
        CostSpec.total, is divided by the trapezoid weights, and gamma u is added."""
        tg, dt, U = self.timegrid, self.timegrid.dt, control.nodes
        L, y, Y = self._sweep(U)
        slope = self._price(y)[1]
        Q, q = np.empty_like(Y), slope[-1]
        for i in range(tg.nt - 1, -1, -1):
            q, points = _rk4(q, dt, L[(2, 1, 1, 0), i].swapaxes(-1, -2))
            Q[i] = points[::-1]
            q = q + slope[i]
        g = np.einsum("iska,jab,iskb->isj", Q, self._dL, Y) * (dt / 6 * np.array([1.0, 2.0, 2.0, 1.0]))[:, None]
        mid, nu_du = 0.5 * (g[:, 1] + g[:, 2]), self.cost.nu * np.diff(U, axis=0) / dt
        G = np.zeros_like(U)
        G[:-1] += g[:, 0] + mid - nu_du
        G[1:] += g[:, 3] + mid + nu_du
        return ControlPath.from_stacked(tg, G / tg.trapezoid_weights()[:, None] + self.cost.gamma * U)
