import math

import numpy as np
import pytest

from liouville_control import (
    InvalidGrid,
    ScalarField,
    UnknownPreset,
    UnsupportedOrder,
    ZeroMass,
    integrate,
    interpolate,
    interpolate_flagged,
    make_grid,
    moments,
    partial_derivative,
    sample_function,
    weighted_sobolev_norm,
)
from liouville_control.fileio import read_field_csv, write_field_csv
from liouville_control.oracles import density_preset_eval


def test_make_grid_spacing():
    g = make_grid(1, -8, 8, 16)
    assert g.h == (1.0,)
    g2 = make_grid(2, (-4, -4), (4, 4), (64, 64))
    assert g2.h == (0.125, 0.125)


def test_make_grid_rejects_bad_input():
    with pytest.raises(InvalidGrid):
        make_grid(1, -8, 8, 0)
    with pytest.raises(InvalidGrid):
        make_grid(1, 8, -8, 16)
    with pytest.raises(InvalidGrid):
        make_grid(3, -1, 1, 16)
    with pytest.raises(InvalidGrid):
        make_grid(1, -np.inf, 8, 16)


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
    assert interpolate(c, np.array([0.3]))[0] == pytest.approx(2.5, abs=1e-14)
    x = g.centers(0)
    cubic = ScalarField(g, x**3)
    assert interpolate(cubic, np.array([0.3]))[0] == pytest.approx(0.027, abs=1e-12)


def test_interpolate_gaussian_fourth_order():
    def err(n):
        g = make_grid(1, -8, 8, n)
        f = sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0})
        pts = np.linspace(-4.0, 4.0, 113)
        exact = density_preset_eval("gaussian", {"x0": 0.0, "v0": 1.0}, pts)
        return np.abs(interpolate(f, pts) - exact).max()

    e1, e2 = err(64), err(128)
    assert e1 / e2 > 8.0  # nominal factor 16 for fourth order


def test_interpolate_out_of_hull_flag():
    g = make_grid(1, -8, 8, 16)
    x = g.centers(0)
    f = ScalarField(g, x.copy())
    vals, mask = interpolate_flagged(f, np.array([0.0, 9.5]))
    assert not mask[0] and mask[1]
    assert vals[1] == pytest.approx(x[-1], abs=1e-12)  # clamped to the last center


def test_interpolate_clip_limits_overshoot():
    g = make_grid(1, -8, 8, 16)
    vals = np.zeros(16)
    vals[8] = 1.0  # spike: cubic overshoots next to it
    f = ScalarField(g, vals)
    pts = np.linspace(-4, 4, 201)
    unclipped = interpolate(f, pts)
    clipped = interpolate(f, pts, clip=True)
    assert unclipped.min() < -1e-3
    assert clipped.min() >= 0.0
    assert clipped.max() <= 1.0 + 1e-15


def test_interpolate_2d_tensor_product():
    g = make_grid(2, (-4, -4), (4, 4), (32, 32))
    X, Y = g.meshgrid()
    f = ScalarField(g, X**2 * Y + 2.0 * Y**2)
    pts = np.array([[0.3, 0.7], [-1.1, 0.2]])
    exact = pts[:, 0] ** 2 * pts[:, 1] + 2.0 * pts[:, 1] ** 2
    assert np.abs(interpolate(f, pts) - exact).max() < 1e-12


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
