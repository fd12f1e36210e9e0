"""Tensor grids, field storage, discrete calculus, and weighted Sobolev norms.

Everything downstream (solvers, gradients, certificates) lives on a truncated
tensor-product grid of cell centers in dimension 1 or 2.  Quadrature is the
midpoint rule on cell centers throughout, so that the finite-volume state and
every integral functional share one discretization.

The weighted norms come in two families: for integer k >= 0 the weight is
``1 + |x|^k`` (with the convention that k = 0 means weight 1, the plain
Sobolev norm), and for k < 0 the weight is ``(1 + |x|)^k``, the polynomially
decaying scale used for adjoint states with quadratically growing data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
import numbers

import numpy as np

from .errors import InvalidGrid, UnknownPreset, UnsupportedOrder, ZeroMass

__all__ = [
    "GridSpec",
    "TimeGrid",
    "ScalarField",
    "MomentState",
    "make_grid",
    "make_timegrid",
    "per_axis",
    "is_count",
    "is_finite_number",
    "density_preset_eval",
    "gaussian_mixture",
    "sample_function",
    "partial_derivative",
    "integrate",
    "weighted_sobolev_norm",
    "moments",
    "interpolate_flagged",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered tensor grid on a box, d in {1, 2}.

    Cell centers sit at ``lo + (i + 1/2) h`` per axis; ``values`` arrays are
    row-major over axes (C order).  ``h``, ``num_cells``, ``cell_volume`` and
    each norm weight (``weight``) are computed once per grid; ``==``,
    ``hash``, ``asdict`` and ``replace`` read the fields only.
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / m for a, b, m in zip(self.lo, self.hi, self.n))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @cached_property
    def num_cells(self) -> int:
        return int(np.prod(self.n))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def centers(self, axis: int) -> np.ndarray:
        """1D array of cell-center coordinates along one axis."""
        a, m = self.lo[axis], self.n[axis]
        h = self.h[axis]
        return a + (np.arange(m) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return np.meshgrid(*(self.centers(ax) for ax in range(self.dim)), indexing="ij")

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (num_cells, dim) array, row-major."""
        mesh = self.meshgrid()
        return np.column_stack([m.ravel() for m in mesh])

    def radius(self) -> np.ndarray:
        """|x| at every cell center, shaped like a field."""
        mesh = self.meshgrid()
        return np.sqrt(sum(m * m for m in mesh))

    @cached_property
    def _weights(self) -> dict:
        return {}

    def weight(self, k: int) -> np.ndarray:
        """The weight of the H^m_k norms at every cell center, read-only and
        computed once per k: 1 for k = 0, 1 + |x|^k for k > 0 and
        (1 + |x|)^k for k < 0."""
        w = self._weights.get(k)
        if w is None:
            if k == 0:
                w = np.ones(self.shape)
            elif k > 0:
                w = 1.0 + self.radius() ** k
            else:
                w = (1.0 + self.radius()) ** float(k)
            w.flags.writeable = False
            self._weights[k] = w
        return w


def is_count(value) -> bool:
    """True for a Python or numpy integer that is not a bool.  Counts are
    never truncated: 64.9 is not 64, and True is not 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a real number that is not a bool and is finite as a float:
    not NaN, not infinite, and not an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def per_axis(value, n: int, name: str, count: str = "grid.dim") -> list:
    """The ``n`` per-axis entries of ``value``, one entry or a list of 1 or
    ``n`` (``count``) entries, as given: one entry serves every axis.  Any
    other length raises ValueError naming ``name``."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    if len(values) not in (1, n):
        raise ValueError(f"{name} needs 1 or {count} = {n} values, got {len(values)}")
    return values if len(values) == n else values * n


def make_grid(dim, lo, hi, n) -> GridSpec:
    """Build a GridSpec from per-axis bounds and cell counts (see per_axis).

    Raises InvalidGrid unless dim and the cell counts are integers, lo, hi
    and n have one entry per axis (or one for every axis), bounds are finite
    with hi > lo and n >= 8 per axis.
    """
    if not is_count(dim) or dim not in (1, 2):
        raise InvalidGrid(f"dim must be 1 or 2, got {dim!r}")
    try:
        lo_t, hi_t, n_t = (per_axis(v, dim, f"grid.{key}") for key, v in (("lo", lo), ("hi", hi), ("n", n)))
    except ValueError as err:
        raise InvalidGrid(f"{err}: one entry per axis, or one for every axis") from err
    if not all(is_count(m) for m in n_t):
        raise InvalidGrid(f"cell counts must be integers, got {n!r}")
    lo_t, hi_t, n_t = tuple(map(float, lo_t)), tuple(map(float, hi_t)), tuple(map(int, n_t))
    for a, b, m in zip(lo_t, hi_t, n_t):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidGrid("grid bounds must be finite")
        if not b > a:
            raise InvalidGrid(f"hi must exceed lo, got [{a}, {b}]")
        if m < 8:
            raise InvalidGrid(f"need at least 8 cells per axis, got {m}")
    return GridSpec(dim=dim, lo=lo_t, hi=hi_t, n=n_t)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with nt steps (nt + 1 nodes)."""

    T: float
    nt: int

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise InvalidGrid(f"final time must be positive, got {self.T}")
        if not is_count(self.nt):
            raise InvalidGrid(f"the number of time steps must be an integer, got {self.nt!r}")
        object.__setattr__(self, "nt", int(self.nt))
        if self.nt < 2:
            raise InvalidGrid(f"need at least 2 time steps, got {self.nt}")

    @property
    def dt(self) -> float:
        return self.T / self.nt

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def trapezoid_weights(self) -> np.ndarray:
        return np.r_[0.5, np.ones(self.nt - 1), 0.5] * self.dt


def make_timegrid(T: float, nt: int) -> TimeGrid:
    return TimeGrid(T=float(T), nt=nt)


# per-node work that depends only on the control and the time node runs on
# blocks of consecutive nodes holding about this many grid points in all
_BLOCK_POINTS = 16384


def _block_nodes(points: int) -> int:
    """Time nodes per block for fields of ``points`` grid points (at least one)."""
    return max(1, _BLOCK_POINTS // points)


def _row_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each field of a block, over its contiguous row, which
    gives the bits of the field's own ``sum()``."""
    return values.reshape(values.shape[0], -1).sum(axis=1)


@dataclass
class ScalarField:
    """Cell values on a grid; holds densities, adjoints, and potentials.

    ``values`` has the grid's shape, or ``(B, *grid.shape)`` for a block of
    B fields, which ``partial_derivative`` differentiates and
    ``weighted_sobolev_norm`` measures in one pass; every other function
    takes one field.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-self.grid.dim:] != self.grid.shape or self.values.ndim > self.grid.dim + 1:
            raise InvalidGrid(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidGrid("field values must be finite")


@dataclass(frozen=True)
class MomentState:
    """Mass, mean, and per-axis second central moment of a field."""

    mass: float
    mean: tuple[float, ...]
    variance: tuple[float, ...]


def _is_finite_entry(value) -> bool:
    """True for a finite number (see is_finite_number) or a nested list of them."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return all(_is_finite_entry(v) for v in value)
    return is_finite_number(value)


def resolve_preset(table: dict, family: str, name: str, params) -> tuple:
    """The row of a preset table and the preset's parameters: the row's
    defaults (its first entry) updated by ``params``.  An unknown name or
    parameter, a required parameter (default None) left out, or a given
    value that is not a finite number or a nested list of them raises
    UnknownPreset."""
    if name not in table:
        raise UnknownPreset(f"unknown {family} preset {name!r}")
    defaults = table[name][0]
    resolved = {**defaults, **dict(params or {})}
    for key, value in resolved.items():
        if key not in defaults or value is None:
            problem = "needs" if key in defaults else "has no"
            takes = ", ".join(defaults) or "none"
            raise UnknownPreset(f"{family} preset {name!r} {problem} parameter {key!r} (it takes: {takes})")
        if not _is_finite_entry(value):
            raise UnknownPreset(
                f"{family} preset {name!r} parameter {key!r} must be a finite number or a list of them, got {value!r}"
            )
    return table[name], resolved


def _points(points) -> np.ndarray:
    """``points`` as a float array of layout (..., d), the one layout of point
    arrays: a scalar or a flat array raises ValueError, since a flat array
    could be n points of d = 1 or one point of d = n."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        raise ValueError(f"points must have the layout (..., d), got the shape {pts.shape}")
    return pts


def _squared_norm(pts: np.ndarray, centre=None) -> np.ndarray:
    """|x - centre|^2 of points (..., d), or |x|^2 without a centre (whose last axis, if
    given, has d entries): the squared coordinate columns added in index order, so that
    numpy's inner loop runs over the points, not over the d = 2 coordinates of one point as
    in ``(v**2).sum(axis=-1)``, whose bits this gives (a square carries no -0.0)."""
    cols = (pts[..., k] if centre is None else pts[..., k] - centre[..., k] for k in range(pts.shape[-1]))
    sq = next(cols) ** 2
    for col in cols:
        sq += col**2
    return sq


def _gaussian(pts: np.ndarray, x0: np.ndarray, v0: float) -> np.ndarray:
    """The normalized gaussian density of centre x0 (d,) and variance v0 at points (..., d)."""
    d = pts.shape[-1]
    sq = _squared_norm(pts, x0)
    return (2.0 * np.pi * v0) ** (-d / 2.0) * np.exp(-sq / (2.0 * v0))


# density presets (initial data and sources): name -> (parameters with their
# defaults, values at points (..., d) from the parameters, or None for a gaussian
# mixture, whose components the parameters name: (weight, or None for 1,
# centre, variance))
_DENSITY_PRESETS = {
    "zero": ({}, lambda p, pts: np.zeros(pts.shape[:-1]), None),
    "constant": ({"c": 1.0}, lambda p, pts: np.full(pts.shape[:-1], float(p["c"])), None),
    "gaussian": ({"x0": 0.0, "v0": 1.0}, None, [(None, "x0", "v0")]),
    "bimodal-gaussian": (
        {"x0a": -2.0, "v0a": 0.5, "wa": 0.5, "x0b": 2.0, "v0b": 0.5, "wb": 0.5},
        None,
        [("wa", "x0a", "v0a"), ("wb", "x0b", "v0b")],
    ),
}


def gaussian_mixture(preset: str, params: dict | None, d: int) -> list | None:
    """The components (weight, centre of shape (d,), variance) of a gaussian
    mixture density preset in d dimensions, or None for any other preset.  A
    centre is per-axis (see per_axis); a variance that is not positive
    raises UnknownPreset."""
    (_, _, components), params = resolve_preset(_DENSITY_PRESETS, "density", preset, params)
    if components is None:
        return None
    mixture = []
    for w, x0, v0 in components:
        centre = np.array([float(v) for v in per_axis(params[x0], d, x0)])
        v0 = float(params[v0])
        if v0 <= 0:
            raise UnknownPreset(f"gaussian preset needs v0 > 0, got {v0}")
        mixture.append((1.0 if w is None else float(params[w]), centre, v0))
    return mixture


def density_preset_eval(preset: str, params: dict | None, points: np.ndarray) -> np.ndarray:
    """Evaluate a named density preset at points (..., d) (see _points).

    Presets: ``gaussian(x0, v0)`` (normalized density), ``bimodal-gaussian``
    (``wa`` times the gaussian (``x0a``, ``v0a``) plus ``wb`` times
    (``x0b``, ``v0b``)), ``constant(c)``, ``zero``.  An unknown name or
    parameter, or a parameter that is not a finite number or a nested list
    of them, raises UnknownPreset.
    """
    pts = _points(points)
    mixture = gaussian_mixture(preset, params, pts.shape[-1])
    if mixture is not None:
        return sum(w * _gaussian(pts, x0, v0) for w, x0, v0 in mixture)
    (_, evaluate, _), params = resolve_preset(_DENSITY_PRESETS, "density", preset, params)
    return evaluate(params, pts)


def sample_function(grid: GridSpec, preset: str, params: dict | None = None) -> ScalarField:
    """Evaluate a density preset (see density_preset_eval) at the cell centers."""
    return ScalarField(grid, density_preset_eval(preset, params, grid.cell_centers()).reshape(grid.shape))


def partial_derivative(field: ScalarField, axis: int) -> ScalarField:
    """Second-order difference along one grid axis, of one field or of each
    field of a block.

    Central in the interior, one-sided three-point at the two boundary
    layers; both stencils are exact on quadratics.
    """
    v = field.values
    h = field.grid.h[axis]
    d = np.empty_like(v)
    vm = np.moveaxis(v, axis - field.grid.dim, 0)
    dm = np.moveaxis(d, axis - field.grid.dim, 0)
    np.divide(np.subtract(vm[2:], vm[:-2], out=dm[1:-1]), 2.0 * h, out=dm[1:-1])
    dm[0] = (-3.0 * vm[0] + 4.0 * vm[1] - vm[2]) / (2.0 * h)
    dm[-1] = (3.0 * vm[-1] - 4.0 * vm[-2] + vm[-3]) / (2.0 * h)
    return ScalarField(field.grid, d)


def integrate(field: ScalarField) -> float:
    """Midpoint quadrature: sum of cell values times the cell volume."""
    return float(field.values.sum() * field.grid.cell_volume)


def _derivative_multiindices(dim: int, m: int) -> list[tuple[int, ...]]:
    # derivative orders per axis, all |alpha| <= m
    if dim == 1:
        return [(a,) for a in range(m + 1)]
    return [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]


def _apply_derivative(field: ScalarField, alpha: tuple[int, ...]) -> ScalarField:
    out = field
    for axis, order in enumerate(alpha):
        for _ in range(order):
            out = partial_derivative(out, axis)
    return out


def weighted_sobolev_norm(field: ScalarField, m: int, k: int):
    """Discrete H^m_k norm: sum over |alpha| <= m of the weighted L2 norms
    of the difference-quotient derivatives.  A float for one field; for a
    block of fields, an array of their norms, each with the bits of the
    field's own (see ``_row_sums``).
    """
    if m < 0 or m > 2:
        raise UnsupportedOrder(f"supported derivative orders are 0..2, got {m}")
    grid = field.grid
    w = grid.weight(int(k))
    total = 0.0
    for alpha in _derivative_multiindices(grid.dim, m):
        squares = (w * _apply_derivative(field, alpha).values) ** 2
        total = total + np.sqrt(_row_sums(squares.reshape(-1, grid.num_cells)) * grid.cell_volume)
    return total if field.values.ndim > grid.dim else float(total[0])


def moments(field: ScalarField) -> MomentState:
    """Mass, mean, and per-axis variance by midpoint quadrature.

    Raises ZeroMass when the field mass is not positive.
    """
    vol = field.grid.cell_volume
    mass = float(field.values.sum() * vol)
    if mass <= 0.0:
        raise ZeroMass(f"cannot normalize moments, mass = {mass}")
    mesh = field.grid.meshgrid()
    mean = []
    var = []
    for x in mesh:
        mr = float((x * field.values).sum() * vol) / mass
        vr = float((((x - mr) ** 2) * field.values).sum() * vol) / mass
        mean.append(mr)
        var.append(vr)
    return MomentState(mass=mass, mean=tuple(mean), variance=tuple(var))


# stencil nodes relative to cell i, as columns: cubic (-1, 0, 1, 2) and,
# within one cell of the boundary, the linear pair (0, 1) twice
_CUBIC_OFFSETS = np.array([[-1], [0], [1], [2]])
_EDGE_OFFSETS = np.array([[0], [1], [0], [1]])


def _axis_stencil(grid: GridSpec, axis: int, coords: np.ndarray):
    """Per-axis interpolation stencil: (indices (4, N), weights (4, N)).

    Cubic Lagrange on the four surrounding centers in the interior, linear
    within one cell of the boundary; query coordinates are clamped to the
    span of the cell centers.
    """
    n = grid.n[axis]
    h = grid.h[axis]
    c0 = grid.lo[axis] + 0.5 * h
    s = np.clip((coords - c0) / h, 0.0, float(n - 1))
    i = np.minimum(s.astype(int), n - 2)
    t = s - i
    # cubic weights at offset t for nodes (-1, 0, 1, 2) around cell i
    idx = i + _CUBIC_OFFSETS
    mt, tm2, tt1 = -t, t - 2.0, t * t - 1.0
    wts = np.empty((4, t.size))
    wts[0] = mt * (t - 1.0) * tm2 / 6.0
    wts[1] = tt1 * tm2 / 2.0
    wts[2] = mt * (t + 1.0) * tm2 / 2.0
    wts[3] = t * tt1 / 6.0
    # within one cell of the boundary: linear weights on the pair (i, i + 1),
    # zero on its second copy
    edge = np.flatnonzero((i < 1) | (i > n - 3))
    if edge.size:
        idx[:, edge] = i[edge] + _EDGE_OFFSETS
        te = t[edge]
        wts[0, edge] = 1.0 - te
        wts[1, edge] = te
        wts[2:, edge] = 0.0
    return idx, wts


def interpolation_stencil(grid: GridSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a field's values and weights, each (4**d, N), of the
    stencils of N finite points (N, d); 2D rows are (x node, y node) pairs."""
    ix, wx = _axis_stencil(grid, 0, pts[:, 0])
    if grid.dim == 1:
        return ix, wx
    iy, wy = _axis_stencil(grid, 1, pts[:, 1])
    return (ix[:, None] * grid.n[1] + iy[None, :]).reshape(16, -1), (wx[:, None] * wy[None, :]).reshape(16, -1)


def apply_stencil(values: np.ndarray, idx: np.ndarray, wts: np.ndarray, clip: bool = False) -> np.ndarray:
    """``values`` interpolated with an ``interpolation_stencil`` (see interpolate_flagged)."""
    gathered = values.ravel()[idx]
    # rows are stencil nodes, columns points.  The products are summed as
    # numpy's pairwise sum adds one contiguous row of 4 or 16 terms: from
    # +0.0 and in order for 4; for 16, the partial sums r_j = p_j + p_{j+8}
    # as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then onto +0.0.
    # So the values are those of a row-per-point layout, bit for bit.
    p = wts * gathered
    if idx.shape[0] == 16:
        p = p[:8] + p[8:]
        p = p[0::2] + p[1::2]
        p = p[0::2] + p[1::2]
    vals = p.sum(axis=0)
    if clip:
        lo, hi = gathered.min(axis=0), gathered.max(axis=0)
        # which signed zero a zero bound carries depends on the reduction
        # order; those points take it from a reduction along their own
        # contiguous stencil values
        zero = np.flatnonzero((lo == 0.0) | (hi == 0.0))
        if zero.size:
            rows = np.ascontiguousarray(gathered[:, zero].T)
            lo[zero], hi[zero] = rows.min(axis=1), rows.max(axis=1)
        vals = np.clip(vals, lo, hi)
    return vals


def interpolate_flagged(field: ScalarField, points: np.ndarray, clip: bool = False):
    """Interpolate at points (N, d); also report which points fell outside
    the domain box (their value is the boundary-clamped one).

    With ``clip=True`` the result is limited to the range of the gathered
    stencil values, which suppresses cubic overshoot near extrema.  Points
    must be finite; an empty point set gives empty results.  Its halves,
    ``interpolation_stencil`` and ``apply_stencil``, let a caller build the
    stencils of points known in advance many at a time.
    """
    grid = field.grid
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise InvalidGrid(f"points must be (N, {grid.dim})")
    if not np.all(np.isfinite(pts)):
        raise InvalidGrid("points must be finite")
    out_mask = np.zeros(pts.shape[0], dtype=bool)
    for ax in range(grid.dim):
        out_mask |= (pts[:, ax] < grid.lo[ax]) | (pts[:, ax] > grid.hi[ax])
    return apply_stencil(field.values, *interpolation_stencil(grid, pts), clip=clip), out_mask
