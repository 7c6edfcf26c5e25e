import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import GridTooCoarse, RegionOutsideGrid
from cknlab.fitting import halving_factors
from cknlab.grids import (
    RadialGrid,
    _CELL_FIRST,
    _CELL_INTERIOR,
    d2_dx2,
    d2_ds2,
    d_dx,
    d_ds,
    default_grid,
    fd_weights,
    integrate_measure_radial,
    integrate_uniform,
    radial_derivs,
    sphere_area,
)


def test_sphere_areas():
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-13
    assert abs(sphere_area(4) - 2 * math.pi**2) < 1e-13


def test_fd_weights_reproduce_central_stencils():
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 1), [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 2),
        [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12], atol=1e-14,
    )


def test_cell_weights_closed_forms():
    np.testing.assert_allclose(_CELL_INTERIOR, np.array([-1, 13, 13, -1]) / 24.0, atol=1e-15)
    np.testing.assert_allclose(_CELL_FIRST, np.array([9, 19, -5, 1]) / 24.0, atol=1e-15)


class TestRadialGrid:
    def test_log_uniform(self):
        g = default_grid()
        assert g.count == 2048 and g.r_min == 1e-3 and g.r_max == 1e3
        # log coordinates match the affine formula to 1e-14 of their scale
        x = g.x_nodes
        ideal = x[0] + g.log_step * np.arange(g.count)
        scale = np.max(np.abs(x))
        assert np.max(np.abs(x - ideal)) < 1e-14 * scale
        assert np.max(np.abs(np.log(g.nodes) - ideal)) < 1e-14 * scale
        assert np.all(np.diff(g.nodes) > 0)

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            RadialGrid(1e-2, 1e2, 8)

    def test_refined_halves_step(self):
        g = RadialGrid(1e-2, 1e2, 65)
        assert abs(g.refined().log_step - g.log_step / 2) < 1e-16


class TestDerivatives:
    def test_exact_on_cubics_in_x(self):
        g = RadialGrid(1e-2, 1e2, 128)
        x = g.x_nodes
        f = 2.0 + 0.5 * x - 0.25 * x**2 + 0.125 * x**3
        df = 0.5 - 0.5 * x + 0.375 * x**2
        d2f = -0.5 + 0.75 * x
        assert np.max(np.abs(d_dx(f, g.log_step) - df)) < 1e-11
        assert np.max(np.abs(d2_dx2(f, g.log_step) - d2f)) < 1e-9

    def test_fourth_order_on_powers(self):
        errs1, errs2 = [], []
        for count in (257, 513, 1025):
            g = RadialGrid(1e-2, 1e2, count)
            s = g.nodes
            w = s**2
            errs1.append(np.max(np.abs(d_ds(w, g) - 2 * s) / (2 * s)))
            errs2.append(np.max(np.abs(d2_ds2(w, g) - 2.0) / 2.0))
        for f in halving_factors(errs1) + halving_factors(errs2):
            assert 8.0 <= f <= 32.0

    @pytest.mark.parametrize("shape", [(300,), (300, 7)])
    def test_radial_derivs_bitwise_equal_to_separate_passes(self, shape):
        g = RadialGrid(1e-2, 1e2, 300)
        vals = np.random.default_rng(3).standard_normal(shape)
        d1, d2 = radial_derivs(vals, g)
        s = g.column(vals)
        assert np.array_equal(d1, d_ds(vals, g))
        assert np.array_equal(d2, d2_ds2(vals, g))
        assert np.array_equal(d2, (d2_dx2(vals, g.log_step) - d_dx(vals, g.log_step)) / s**2)

    def test_2d_arrays_differentiate_along_axis0(self):
        g = RadialGrid(1e-1, 1e1, 64)
        prof = g.nodes**1.5
        vals = prof[:, None] * np.array([1.0, 2.0])[None, :]
        d = d_ds(vals, g)
        expected = 1.5 * g.nodes**0.5
        for j, fac in enumerate((1.0, 2.0)):
            rel = np.abs(d[4:-4, j] - fac * expected[4:-4]) / (fac * expected[4:-4])
            assert rel.max() < 1e-4


class TestQuadrature:
    def test_exact_for_cubics_with_offgrid_endpoints(self):
        g = RadialGrid(1e-2, 1e2, 64)
        x = g.x_nodes
        F = 1.0 + x - 0.5 * x**2 + 0.2 * x**3

        def exact(a, b):
            anti = lambda t: t + t**2 / 2 - 0.5 * t**3 / 3 + 0.05 * t**4
            return anti(b) - anti(a)

        for a, b in [(x[0], x[-1]), (-1.234, 2.345), (x[0] + 0.3 * g.log_step, 0.77)]:
            got = integrate_uniform(F, g.log_step, x[0], a, b)
            assert abs(got - exact(a, b)) < 1e-12 * max(1.0, abs(exact(a, b)))

    def test_measure_full_ball(self):
        # int_0^R s^(n-1) ds = R^n / n, origin truncation negligible
        g = default_grid()
        n = 6.0
        got = integrate_measure_radial(np.ones(g.count), g, n, g.r_min, 10.0)
        assert abs(got - 10.0**n / n) < 1e-6 * 10.0**n / n

    def test_power_law_closed_forms(self):
        # f = s^(1-n) cancels the measure weight exactly; f = s^-n leaves 1/s
        g = default_grid()
        n = 6.0
        got_flat = integrate_measure_radial(g.nodes ** (1.0 - n), g, n, 1.0, 2.0)
        assert abs(got_flat - 1.0) < 1e-10
        got_log = integrate_measure_radial(g.nodes ** (-n), g, n, 1.0, 2.0)
        assert abs(got_log - math.log(2.0)) < 1e-10

    def test_region_outside_grid(self):
        g = RadialGrid(1e-2, 1e2, 64)
        with pytest.raises(RegionOutsideGrid):
            integrate_uniform(np.ones(64), g.log_step, g.x_nodes[0],
                              g.x_nodes[0] - 1.0, 0.0)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=64, max_size=64),
           st.floats(min_value=0.01, max_value=4.0))
    def test_linear_and_monotone(self, samples, shift):
        g = RadialGrid(1e-1, 1e1, 64)
        f = np.asarray(samples)
        gf = f + shift  # g >= f pointwise
        i_f = integrate_measure_radial(f, g, 3.0, g.r_min, g.r_max)
        i_g = integrate_measure_radial(gf, g, 3.0, g.r_min, g.r_max)
        i_shift = integrate_measure_radial(np.full(64, shift), g, 3.0, g.r_min, g.r_max)
        assert i_g >= i_f
        assert abs(i_g - (i_f + i_shift)) < 1e-9 * max(1.0, abs(i_g))
