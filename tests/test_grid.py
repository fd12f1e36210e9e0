import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from liouville_control import (
    ControlPath,
    InvalidGrid,
    OptimConfig,
    ScalarField,
    SchemaError,
    TimeGrid,
    UnknownPreset,
    UnsupportedOrder,
    ZeroMass,
    density_preset_eval,
    gaussian_mixture,
    integrate,
    interpolate_flagged,
    make_grid,
    make_timegrid,
    moments,
    partial_derivative,
    per_axis,
    sample_function,
    weighted_sobolev_norm,
)
from liouville_control.fileio import read_control_csv, read_field_csv, write_control_csv, write_field_csv
from liouville_control.grid import apply_stencil, interpolation_stencil


def test_make_grid_spacing():
    g = make_grid(1, -8, 8, 16)
    assert g.h == (1.0,)
    g2 = make_grid(2, (-4, -4), (4, 4), (64, 64))
    assert g2.h == (0.125, 0.125)


def test_grid_quantities_are_computed_once_per_grid():
    g = make_grid(2, (-4.0, -3.0), (4.0, 5.0), (16, 12))
    assert g.h is g.h and g.num_cells is g.num_cells and g.cell_volume is g.cell_volume
    assert (g.h, g.num_cells, g.cell_volume) == ((0.5, 8.0 / 12), 192, 0.5 * (8.0 / 12))
    # equality, hashing and asdict read the fields only, read values or not
    fresh = make_grid(2, (-4.0, -3.0), (4.0, 5.0), (16, 12))
    assert g == fresh and hash(g) == hash(fresh)
    assert dataclasses.asdict(g) == dataclasses.asdict(fresh) == {
        "dim": 2, "lo": (-4.0, -3.0), "hi": (4.0, 5.0), "n": (16, 12),
    }
    assert dataclasses.replace(g, n=(8, 8)).h == (1.0, 1.0)


def test_make_grid_rejects_bad_input():
    with pytest.raises(InvalidGrid):
        make_grid(1, -8, 8, 0)
    with pytest.raises(InvalidGrid):
        make_grid(1, 8, -8, 16)
    with pytest.raises(InvalidGrid):
        make_grid(3, -1, 1, 16)
    with pytest.raises(InvalidGrid):
        make_grid(1, -np.inf, 8, 16)



@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: make_grid(1, -1, 1, 64.9), InvalidGrid),
        (lambda: make_grid(2, -1, 1, (32, 32.0)), InvalidGrid),
        (lambda: make_grid(1, -1, 1, np.float64(64)), InvalidGrid),
        (lambda: make_grid(1, -1, 1, True), InvalidGrid),
        (lambda: make_grid(1.0, -1, 1, 64), InvalidGrid),
        (lambda: make_grid(True, -1, 1, 64), InvalidGrid),
        (lambda: make_timegrid(1.0, 32.7), InvalidGrid),
        (lambda: TimeGrid(1.0, 32.7), InvalidGrid),
        (lambda: TimeGrid(1.0, True), InvalidGrid),
        (lambda: OptimConfig(max_iters=2.5), ValueError),
        (lambda: OptimConfig(max_iters=True), ValueError),
    ],
)
def test_constructors_reject_counts_that_are_not_integers(build, error):
    with pytest.raises(error, match="integer|dim"):
        build()
    # numpy integers are counts
    assert make_grid(2, -1, 1, np.array([32, 16])).n == (32, 16)
    assert type(make_timegrid(1.0, np.int64(8)).nt) is int
    assert OptimConfig(max_iters=0).max_iters == 0


G1, G2 = make_grid(1, -4, 4, 16), make_grid(2, -4, 4, 16)


@pytest.mark.parametrize("build, match", [
    (lambda: make_grid(2, (-1.0, -1.0), (1.0, 1.0, 1.0), (16, 16)), "one entry per axis"),
    (lambda: make_grid(2, (-1.0, -1.0), (1.0, 1.0), (16, 16, 16)), "one entry per axis"),
    (lambda: TimeGrid(0.0, 8), "final time must be positive"),
    (lambda: TimeGrid(-1.0, 8), "final time must be positive"),
    (lambda: TimeGrid(1.0, 1), "at least 2 time steps"),
    (lambda: ScalarField(G1, np.zeros(15)), "does not match grid"),
    (lambda: ScalarField(G2, np.zeros((16, 15))), "does not match grid"),
    (lambda: ScalarField(G2, np.zeros((2, 2, 16, 16))), "does not match grid"),
    (lambda: interpolate_flagged(ScalarField(G2, np.ones(G2.shape)), np.zeros((3, 1))), r"points must be \(N, 2\)"),
    (lambda: interpolate_flagged(ScalarField(G1, np.ones(G1.shape)), np.zeros((3, 1, 1))), r"points must be \(N, 1\)"),
])
def test_grids_and_fields_reject_values_of_the_wrong_shape(build, match):
    with pytest.raises(InvalidGrid, match=match):
        build()


def test_per_axis_values_give_one_entry_per_axis():
    # one entry serves every axis; entries come back as given, so an integer
    # too large for a float stays exact
    assert per_axis(0.5, 2, "x0") == [0.5, 0.5]
    assert per_axis([10**400], 2, "grid.n") == [10**400, 10**400]
    assert per_axis((1, 2), 2, "grid.n") == [1, 2] and per_axis(np.array([3]), 1, "grid.n") == [3]
    for value, n, count, got in ([0.1, 0.2, 0.3], 2, "grid.dim", 3), ([], 1, "grid.dim", 0), ([1.0] * 3, 4, "2 * grid.dim", 3):
        with pytest.raises(ValueError, match=re.escape(f"b needs 1 or {count} = {n} values, got {got}")):
            per_axis(value, n, "b", count)
    with pytest.raises(InvalidGrid, match=re.escape("grid.hi needs 1 or grid.dim = 2 values, got 3: one entry per axis")):
        make_grid(2, (-1.0, -1.0), (1.0, 1.0, 1.0), (16, 16))
    with pytest.raises(InvalidGrid, match=re.escape("grid.n needs 1 or grid.dim = 2 values, got 3: one entry per axis")):
        make_grid(2, -1.0, 1.0, (16, 16, 16))
    assert make_grid(2, [-1.0], 1, [16]) == make_grid(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))


def test_cell_centers_reproducible():
    g = make_grid(1, -8, 8, 16)
    assert np.array_equal(g.centers(0), -8.0 + (np.arange(16) + 0.5) * 1.0)


def test_sample_constant_and_zero():
    g = make_grid(1, -8, 8, 32)
    f = sample_function(g, "constant", {"c": 1.0})
    assert np.all(f.values == 1.0)
    z = sample_function(g, "zero")
    assert np.all(z.values == 0.0)
    with pytest.raises(UnknownPreset):
        sample_function(g, "gausian")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "preset, params",
    [
        ("zero", {}),
        ("constant", {"c": 2.5}),
        ("gaussian", {"x0": 0.5, "v0": 0.8}),
        ("bimodal-gaussian", {"x0a": -1.0, "v0b": 0.3, "wb": 0.25}),
    ],
)
def test_sample_function_is_the_preset_at_the_cell_centers(dim, preset, params):
    g = make_grid(dim, -4, 4, 16)
    f = sample_function(g, preset, params)
    assert np.array_equal(f.values.ravel(), density_preset_eval(preset, params, g.cell_centers()))
    with pytest.raises(UnknownPreset, match="no parameter 'x1'"):
        sample_function(g, preset, dict(params, x1=0.0))


@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_mixture_gives_the_checked_components(d):
    assert gaussian_mixture("constant", {"c": 2.0}, d) is None
    assert gaussian_mixture("zero", None, d) is None
    params = {"x0a": -1.0, "wb": 0.25, "v0b": 0.3}
    mixture = gaussian_mixture("bimodal-gaussian", params, d)
    assert [(w, x0.tolist(), v0) for w, x0, v0 in mixture] == [(0.5, [-1.0] * d, 0.5), (0.25, [2.0] * d, 0.3)]
    # the density is the weighted sum of the components' normalized gaussians
    pts = make_grid(d, -4, 4, 16).cell_centers()
    dens = sum(w * np.exp(-((pts - x0) ** 2).sum(axis=1) / (2 * v0)) / (2 * math.pi * v0) ** (d / 2)
               for w, x0, v0 in mixture)
    assert np.allclose(density_preset_eval("bimodal-gaussian", params, pts), dens, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match=f"x0 needs 1 or grid.dim = {d} values, got 3"):
        gaussian_mixture("gaussian", {"x0": [0.0, 1.0, 2.0]}, d)
    with pytest.raises(ValueError, match=f"x0b needs 1 or grid.dim = {d} values, got 3"):
        gaussian_mixture("bimodal-gaussian", {"x0b": [0.0, 1.0, 2.0]}, d)
    with pytest.raises(UnknownPreset, match="v0 > 0"):
        gaussian_mixture("bimodal-gaussian", {"v0a": -0.5}, d)


def test_gaussian_peak_value():
    # closed form of the standard normal density at the origin
    val = density_preset_eval("gaussian", {"x0": 0.0, "v0": 1.0}, np.array([[0.0]]))
    assert abs(val[0] - 1.0 / math.sqrt(2 * math.pi)) < 1e-15


def test_gaussian_mass_matches_error_function():
    # midpoint quadrature against the erf closed form on the truncated box
    exact = math.erf(8.0 / math.sqrt(2.0))
    g = make_grid(1, -8, 8, 256)
    f = sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0})
    assert abs(integrate(f) - exact) < 1e-6
    g2 = make_grid(1, -8, 8, 512)
    f2 = sample_function(g2, "gaussian", {"x0": 0.0, "v0": 1.0})
    assert abs(integrate(f2) - exact) < 1e-8


def test_integrate_constant():
    g = make_grid(1, -8, 8, 64)
    assert integrate(sample_function(g, "constant", {"c": 1.0})) == pytest.approx(16.0, abs=1e-12)
    assert integrate(sample_function(g, "zero")) == 0.0
    g2 = make_grid(2, (-2, -1), (2, 1), (16, 8))
    assert integrate(sample_function(g2, "constant", {"c": 3.0})) == pytest.approx(24.0, abs=1e-12)


def test_partial_derivative_exact_on_polynomials():
    g = make_grid(1, -8, 8, 8)  # centers at -7, -5, ..., 7 (x = 1 is a node)
    x = g.centers(0)
    const = ScalarField(g, np.full(8, 3.0))
    assert np.abs(partial_derivative(const, 0).values).max() == 0.0
    lin = ScalarField(g, x.copy())
    assert np.abs(partial_derivative(lin, 0).values - 1.0).max() < 1e-13
    quad = ScalarField(g, x**2)
    d = partial_derivative(quad, 0)
    assert np.abs(d.values - 2.0 * x).max() < 1e-11
    assert d.values[np.where(x == 1.0)][0] == pytest.approx(2.0, abs=1e-12)


def test_partial_derivative_linearity():
    rng = np.random.default_rng(7)
    g = make_grid(2, (-1, -1), (1, 1), (16, 12))
    f = ScalarField(g, rng.normal(size=g.shape))
    h = ScalarField(g, rng.normal(size=g.shape))
    for ax in (0, 1):
        lhs = partial_derivative(ScalarField(g, 2.5 * f.values - 1.5 * h.values), ax).values
        rhs = 2.5 * partial_derivative(f, ax).values - 1.5 * partial_derivative(h, ax).values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_weighted_norm_constant_closed_forms():
    g = make_grid(1, -8, 8, 256)
    one = sample_function(g, "constant", {"c": 1.0})
    assert weighted_sobolev_norm(one, 0, 0) == pytest.approx(4.0, abs=1e-12)
    # integral of (1 + |x|)^2 over [-8, 8] in closed form
    exact = math.sqrt(2.0 * (9.0**3 - 1.0) / 3.0)
    assert weighted_sobolev_norm(one, 0, 1) == pytest.approx(exact, rel=1e-4)


def test_weighted_norm_negative_index_vs_fine_quadrature():
    g = make_grid(1, -8, 8, 256)
    x = g.centers(0)
    f = ScalarField(g, x**2)
    val = weighted_sobolev_norm(f, 0, -3)

    def fine(n):
        gg = make_grid(1, -8, 8, n)
        xx = gg.centers(0)
        return weighted_sobolev_norm(ScalarField(gg, xx**2), 0, -3)

    # Richardson extrapolation of the second-order quadrature
    i1, i2 = fine(4096), fine(8192)
    oracle = i2 + (i2 - i1) / 3.0
    assert val == pytest.approx(oracle, rel=5e-3)
    assert math.isfinite(val)


def test_weighted_norm_homogeneity_and_embedding():
    rng = np.random.default_rng(3)
    g = make_grid(1, -8, 8, 64)
    f = ScalarField(g, rng.normal(size=g.shape))
    for m, k in [(0, 0), (1, 1), (1, 2), (2, 2)]:
        n1 = weighted_sobolev_norm(f, m, k)
        n2 = weighted_sobolev_norm(ScalarField(g, -2.5 * f.values), m, k)
        assert n2 == pytest.approx(2.5 * n1, rel=1e-12)
        if m <= k:
            assert n1 >= weighted_sobolev_norm(f, m, 0) - 1e-12
    with pytest.raises(UnsupportedOrder):
        weighted_sobolev_norm(f, 3, 0)


def test_weighted_norm_k0_is_unweighted():
    rng = np.random.default_rng(11)
    g = make_grid(2, (-2, -2), (2, 2), (16, 16))
    f = ScalarField(g, rng.normal(size=g.shape))
    vol = g.cell_volume
    l2 = math.sqrt(float((f.values**2).sum() * vol))
    assert weighted_sobolev_norm(f, 0, 0) == pytest.approx(l2, rel=1e-13)


def reference_weighted_norm(field, m, k):
    """The weighted H^m_k norm with its weight built afresh on every call."""
    grid = field.grid
    r = np.sqrt(sum(c * c for c in grid.meshgrid()))
    w = np.ones(grid.shape) if k == 0 else 1.0 + r**k if k > 0 else (1.0 + r) ** float(k)
    total = 0.0
    for alpha in ([(a,) for a in range(m + 1)] if grid.dim == 1 else
                  [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]):
        df = field
        for axis, order in enumerate(alpha):
            for _ in range(order):
                df = partial_derivative(df, axis)
        total += math.sqrt(float(((w * df.values) ** 2).sum() * grid.cell_volume))
    return total


@pytest.mark.parametrize("grid", [make_grid(1, -8, 8, 96), make_grid(2, (-3, -2), (3, 4), (20, 18))],
                         ids=["1d", "2d"])
def test_norm_weights_are_cached_read_only_and_keep_the_norms_bits(grid):
    rng = np.random.default_rng(5)
    f = ScalarField(grid, rng.normal(size=grid.shape))
    for m, k in [(0, 0), (1, 0), (0, 2), (1, 2), (2, 1), (0, -3), (1, -4)]:
        norm = weighted_sobolev_norm(f, m, k)
        assert np.float64(norm).view(np.int64) == np.float64(reference_weighted_norm(f, m, k)).view(np.int64)
        assert weighted_sobolev_norm(f, m, k) == norm
    for k in (0, 2, -3):
        w = grid.weight(k)
        assert grid.weight(k) is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
    # equal grids compare and hash by their fields only
    twin = dataclasses.replace(grid)
    assert twin == grid and hash(twin) == hash(grid) and twin.weight(2) is not grid.weight(2)


def test_moments_of_gaussians():
    g = make_grid(1, -8, 8, 512)
    f = sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0})
    m = moments(f)
    assert abs(m.mean[0]) < 1e-10
    assert m.variance[0] == pytest.approx(1.0, abs=1e-4)
    f2 = sample_function(g, "gaussian", {"x0": 2.0, "v0": 0.5})
    m2 = moments(f2)
    assert m2.mean[0] == pytest.approx(2.0, abs=1e-8)
    assert m2.variance[0] == pytest.approx(0.5, abs=1e-4)


def test_moments_zero_mass_raises():
    g = make_grid(1, -8, 8, 32)
    with pytest.raises(ZeroMass):
        moments(sample_function(g, "zero"))


def test_moments_converge_with_refinement():
    # midpoint quadrature on a decaying gaussian is spectrally accurate:
    # already at n = 64 only rounding is left
    for n in (64, 128, 256):
        g = make_grid(1, -8, 8, n)
        m = moments(sample_function(g, "gaussian", {"x0": 0.5, "v0": 0.8}))
        assert abs(m.variance[0] - 0.8) + abs(m.mean[0] - 0.5) < 1e-12


def test_interpolate_constant_and_cubic_reproduction():
    g = make_grid(1, -8, 8, 16)
    c = sample_function(g, "constant", {"c": 2.5})
    assert interpolate_flagged(c, np.array([[0.3]]))[0][0] == pytest.approx(2.5, abs=1e-14)
    x = g.centers(0)
    cubic = ScalarField(g, x**3)
    assert interpolate_flagged(cubic, np.array([[0.3]]))[0][0] == pytest.approx(0.027, abs=1e-12)


def test_interpolate_gaussian_fourth_order():
    def err(n):
        g = make_grid(1, -8, 8, n)
        f = sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0})
        pts = np.linspace(-4.0, 4.0, 113)[:, None]
        exact = density_preset_eval("gaussian", {"x0": 0.0, "v0": 1.0}, pts)
        return np.abs(interpolate_flagged(f, pts)[0] - exact).max()

    e1, e2 = err(64), err(128)
    assert e1 / e2 > 8.0  # nominal factor 16 for fourth order


def test_interpolate_out_of_hull_flag():
    g = make_grid(1, -8, 8, 16)
    x = g.centers(0)
    f = ScalarField(g, x.copy())
    vals, mask = interpolate_flagged(f, np.array([[0.0], [9.5]]))
    assert not mask[0] and mask[1]
    assert vals[1] == pytest.approx(x[-1], abs=1e-12)  # clamped to the last center


def test_interpolate_clip_limits_overshoot():
    g = make_grid(1, -8, 8, 16)
    vals = np.zeros(16)
    vals[8] = 1.0  # spike: cubic overshoots next to it
    f = ScalarField(g, vals)
    pts = np.linspace(-4, 4, 201)[:, None]
    unclipped = interpolate_flagged(f, pts)[0]
    clipped = interpolate_flagged(f, pts, clip=True)[0]
    assert unclipped.min() < -1e-3
    assert clipped.min() >= 0.0
    assert clipped.max() <= 1.0 + 1e-15


def test_interpolate_2d_tensor_product():
    g = make_grid(2, (-4, -4), (4, 4), (32, 32))
    X, Y = g.meshgrid()
    f = ScalarField(g, X**2 * Y + 2.0 * Y**2)
    pts = np.array([[0.3, 0.7], [-1.1, 0.2]])
    exact = pts[:, 0] ** 2 * pts[:, 1] + 2.0 * pts[:, 1] ** 2
    assert np.abs(interpolate_flagged(f, pts)[0] - exact).max() < 1e-12


def test_interpolate_rejects_points_that_are_not_finite():
    g1 = make_grid(1, -8, 8, 16)
    f1 = ScalarField(g1, g1.centers(0).copy())
    g2 = make_grid(2, (-4, -4), (4, 4), (16, 16))
    f2 = ScalarField(g2, np.ones(g2.shape))
    for f, pts in (
        (f1, np.array([[0.0], [np.nan]])),
        (f1, np.array([[np.inf]])),
        (f2, np.array([[0.5, 0.5], [np.nan, 0.0]])),
        (f2, np.array([[-np.inf, 0.0]])),
    ):
        for clip in (False, True):
            with pytest.raises(InvalidGrid, match="points must be finite"):
                interpolate_flagged(f, pts, clip=clip)


def test_interpolate_empty_point_set():
    g1 = make_grid(1, -8, 8, 16)
    g2 = make_grid(2, (-4, -4), (4, 4), (16, 16))
    for g, pts in ((g1, np.zeros((0, 1))), (g2, np.zeros((0, 2)))):
        f = ScalarField(g, np.ones(g.shape))
        for clip in (False, True):
            vals, mask = interpolate_flagged(f, pts, clip=clip)
            assert vals.shape == mask.shape == (0,)
            assert vals.dtype == float and mask.dtype == bool


def _masked_axis_stencil(grid, axis, coords):
    # the per-axis stencil as (N, 4) arrays filled through boolean masks
    n = grid.n[axis]
    h = grid.h[axis]
    c0 = grid.lo[axis] + 0.5 * h
    s = np.clip((coords - c0) / h, 0.0, float(n - 1))
    i = np.minimum(s.astype(int), n - 2)
    t = s - i
    idx = np.empty((coords.size, 4), dtype=int)
    wts = np.zeros((coords.size, 4))
    interior = (i >= 1) & (i <= n - 3)
    ti = t[interior]
    for k in range(4):
        idx[interior, k] = i[interior] + k - 1
    wts[interior, 0] = -ti * (ti - 1.0) * (ti - 2.0) / 6.0
    wts[interior, 1] = (ti * ti - 1.0) * (ti - 2.0) / 2.0
    wts[interior, 2] = -ti * (ti + 1.0) * (ti - 2.0) / 2.0
    wts[interior, 3] = ti * (ti * ti - 1.0) / 6.0
    edge = ~interior
    te = t[edge]
    ie = i[edge]
    idx[edge, 0] = ie
    idx[edge, 1] = ie + 1
    idx[edge, 2] = ie
    idx[edge, 3] = ie + 1
    wts[edge, 0] = 1.0 - te
    wts[edge, 1] = te
    return idx, wts


def _masked_interpolate(field, pts, clip):
    # one row of stencil values per point, summed and clipped row by row
    grid = field.grid
    stencils = [_masked_axis_stencil(grid, ax, pts[:, ax]) for ax in range(grid.dim)]
    v = field.values
    if grid.dim == 1:
        idx, wts = stencils[0]
        gathered = v[idx]
        vals = (wts * gathered).sum(axis=1)
    else:
        (ix, wx), (iy, wy) = stencils
        gathered = v[ix[:, :, None], iy[:, None, :]]
        vals = (wx[:, :, None] * wy[:, None, :] * gathered).sum(axis=(1, 2))
        gathered = gathered.reshape(pts.shape[0], -1)
    if clip:
        vals = np.clip(vals, gathered.min(axis=1), gathered.max(axis=1))
    return vals


def _query_points(grid, rng, count):
    # random points in and beyond the box, cell centres, the box edges and
    # the outermost centres, mixed independently per axis
    cols = []
    for ax in range(grid.dim):
        c = grid.centers(ax)
        lo, hi = grid.lo[ax], grid.hi[ax]
        special = np.array([lo, hi, c[0], c[1], c[-2], c[-1], lo - 3.0, hi + 3.0])
        pick = rng.integers(3, size=count)
        cols.append(np.select(
            [pick == 0, pick == 1],
            [rng.choice(c, count), rng.choice(special, count)],
            rng.uniform(lo - 1.0, hi + 1.0, count),
        ))
    return np.column_stack(cols)


@pytest.mark.parametrize("dim, n, count", [(1, 16, 64), (1, 768, 768), (2, 48, 48 * 48)])
def test_interpolate_matches_the_masked_row_version(dim, n, count):
    rng = np.random.default_rng(n)
    g = make_grid(dim, -6, 6, n)
    for trial in range(6):
        vals = rng.normal(size=g.shape) * 10.0 ** rng.integers(-3, 4)
        if trial % 2:
            # nonnegative spikes on zeros of both signs: the cubic undershoot
            # is clipped to a zero bound whose sign the stencil decides
            vals = np.abs(vals)
            vals[rng.random(g.shape) < 0.3] = 0.0
            vals[(vals == 0.0) & (rng.random(g.shape) < 0.5)] = -0.0
        else:
            vals[rng.random(g.shape) < 0.3] = -0.0
        f = ScalarField(g, vals)
        pts = _query_points(g, rng, count)
        idx, wts = interpolation_stencil(g, pts)
        assert idx.shape == wts.shape == (4**dim, count)
        for clip in (False, True):
            got, _ = interpolate_flagged(f, pts, clip=clip)
            want = _masked_interpolate(f, pts, clip)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # the two halves on their own, the clipped signed zeros included
            halves = apply_stencil(f.values, idx, wts, clip=clip)
            assert np.array_equal(halves.view(np.int64), got.view(np.int64))


def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    g = make_grid(1, -8, 8, 32)
    f = ScalarField(g, rng.normal(size=g.shape))
    p = tmp_path / "snap.csv"
    write_field_csv(f, str(p))
    back = read_field_csv(str(p))
    assert back.grid.n == g.n
    assert np.array_equal(back.values, f.values)
    g2 = make_grid(2, (-1, -2), (3, 2), (8, 16))
    f2 = ScalarField(g2, rng.normal(size=g2.shape))
    p2 = tmp_path / "snap2.csv"
    write_field_csv(f2, str(p2))
    back2 = read_field_csv(str(p2))
    assert back2.grid.n == g2.n
    assert np.array_equal(back2.values, f2.values)
    assert back2.grid.lo == pytest.approx(g2.lo, abs=1e-14)


def test_control_csv_roundtrip_needs_the_uniform_time_grid(tmp_path):
    rng = np.random.default_rng(1)
    for T, nt, d in ((0.7, 10, 1), (2.5, 33, 2)):
        tg = make_timegrid(T, nt)
        ctrl = ControlPath(tg, rng.normal(size=(nt + 1, d)), rng.normal(size=(nt + 1, d)))
        p = tmp_path / f"control-{d}d.csv"
        write_control_csv(ctrl, str(p))
        back = read_control_csv(str(p))
        assert back.timegrid == tg and np.array_equal(back.nodes, ctrl.nodes)
    # t = 0, 0.1, 0.5, 1 are not three equal steps
    p = tmp_path / "uneven.csv"
    p.write_text("t,u1_1,u2_1\n0,0,0\n0.1,1,0\n0.5,2,0\n1,3,0\n")
    with pytest.raises(SchemaError, match="uneven.csv"):
        read_control_csv(str(p))
    # two nodes are one step, which no TimeGrid has
    p = tmp_path / "short.csv"
    p.write_text("t,u1_1,u2_1\n0,0,0\n1,3,0\n")
    with pytest.raises(SchemaError, match="short.csv needs at least 3 nodes"):
        read_control_csv(str(p))


HEADER = r"bad.csv needs the header t,u1_1..u1_d,u2_1..u2_d for some d >= 1, got "


@pytest.mark.parametrize("header, width, match", [
    ("t,u1_1", 2, HEADER + "t,u1_1$"),  # no u2: was a control of dim 0
    ("t,u1_1,u2_1,u1_2", 4, HEADER),  # an even count: its last column was dropped
    ("t,a,b", 3, HEADER),  # the right count of unknown columns was accepted
    ("t,u2_1,u1_1", 3, HEADER),
    ("t", 1, HEADER),
    ("t,u1_1,u2_1", 2, "bad.csv needs at least 3 nodes ending at T > 0, each a row of 3 numbers"),
])
def test_control_csv_needs_the_header_that_write_control_csv_writes(tmp_path, header, width, match):
    p = tmp_path / "bad.csv"
    p.write_text(header + "\n" + "".join(",".join([str(0.5 * k)] + ["0"] * (width - 1)) + "\n" for k in range(3)))
    with pytest.raises(SchemaError, match=match):
        read_control_csv(str(p))


def test_control_csv_with_a_header_and_no_rows_is_reported_once(tmp_path):
    # numpy's "input contained no data" warning would report the file a
    # second time; under "error" it would be raised instead of SchemaError
    p = tmp_path / "empty.csv"
    p.write_text("t,u1_1,u2_1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="empty.csv needs at least 3 nodes"):
            read_control_csv(str(p))
