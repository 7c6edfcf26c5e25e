import numpy as np
import pytest

from cknlab.bubble import bubble_cylinder
from cknlab.cylfield import (
    CylinderField,
    L_of_values,
    PeriodicGrid,
    Radial,
    grad_cyl,
    integrate_mu,
    theta_derivative,
    theta_nodes,
)
from cknlab.errors import CknLabError
from cknlab.grids import RadialGrid, sphere_area
from cknlab.params import derive_params
from cknlab.reporting import csv_text


class TestGradCyl:
    def test_constant(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), np.ones(grid_small.count), ps_n6)
        assert np.max(np.abs(grad_cyl(w).values)) < 1e-20

    def test_linear_field(self, ps_n6, grid_small):
        # w(s) = s with alpha = 1/2: |Dw|^2 = alpha^2 = 1/4
        w = CylinderField(grid_small, Radial(), grid_small.nodes, ps_n6)
        sq = grad_cyl(w).values
        assert np.max(np.abs(sq[4:-4] - 0.25)) < 1e-7

    def test_pure_angle_d2(self):
        # alpha = 1 realizable at d=2 via (a, b) = (-1, -1/2); w = sin(theta)
        ps = derive_params(-1.0, -0.5, 2)
        assert abs(ps.alpha - 1.0) < 1e-14
        g = RadialGrid(1e-1, 1e1, 64)
        ang = PeriodicGrid(64)
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        vals = np.broadcast_to(np.sin(th)[None, :], (64, 64)).copy()
        w = CylinderField(g, ang, vals, ps)
        sq = grad_cyl(w).values
        expected = np.cos(th)[None, :] ** 2 / g.nodes[:, None] ** 2
        assert np.max(np.abs(sq - expected)) < 1e-10 * expected.max()


@pytest.mark.parametrize("m", [63, 64])
def test_periodic_theta_pair_is_bitwise_both_orders(m):
    vals = np.random.default_rng(4).standard_normal((40, m))
    grad, lap = PeriodicGrid(m).theta_pair(vals)
    assert np.array_equal(grad, theta_derivative(vals, 1))
    assert np.array_equal(lap, theta_derivative(vals, 2))


class TestApplyL:
    """L on sample arrays, through L_of_values."""

    def test_annihilates_harmonic_power(self, ps_n6, grid_small):
        n = ps_n6.n
        s = grid_small.nodes
        out = L_of_values(s ** (2.0 - n), grid_small, Radial(), ps_n6)
        scale = np.abs(ps_n6.alpha**2 * n * (n - 1) * s ** (-n))
        assert np.max(np.abs(out[4:-4]) / scale[4:-4]) < 1e-5

    def test_annihilates_constants(self, ps_n6, grid_small):
        ones = np.ones(grid_small.count)
        assert np.max(np.abs(L_of_values(ones, grid_small, Radial(), ps_n6))) < 1e-20

    def test_quadratic_closed_form(self, ps_n6, grid_small):
        expected = 2.0 * ps_n6.alpha**2 * ps_n6.n
        out = L_of_values(grid_small.nodes**2, grid_small, Radial(), ps_n6)
        assert np.max(np.abs(out[4:-4] - expected)) < 1e-7 * expected

    def test_single_harmonic_matches_periodic_sector(self, ps_d2):
        # L(f(s) cos k theta) by the spectral route == (L f - k^2 f / s^2) cos k theta
        g = RadialGrid(1e-1, 1e1, 128)
        k = 2
        prof = (1.0 + g.nodes**2) ** (-1.5)
        sect = L_of_values(prof, g, Radial(), ps_d2) - k**2 * prof / g.nodes**2
        ang = PeriodicGrid(64)
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        full = L_of_values(prof[:, None] * np.cos(k * th)[None, :], g, ang, ps_d2)
        recovered = 2.0 * np.mean(full * np.cos(k * th)[None, :], axis=1)
        assert np.max(np.abs(recovered - sect)) < 1e-10 * np.max(np.abs(sect))

    def test_order_of_accuracy_invariant(self, ps_n6):
        # smooth closed form: w = exp(sin(ln s)); halving shrinks errors ~16x
        errsL, errsG = [], []
        for count in (257, 513, 1025):
            g = RadialGrid(1e-2, 1e2, count)
            x = g.x_nodes
            s = g.nodes
            w = np.exp(np.sin(x))
            field = CylinderField(g, Radial(), w, ps_n6)
            wp = w * np.cos(x) / s
            wpp = (w * (np.cos(x) ** 2 - np.sin(x)) - w * np.cos(x)) / s**2
            exactL = ps_n6.alpha**2 * (wpp + (ps_n6.n - 1) * wp / s)
            exactG = ps_n6.alpha**2 * wp**2
            errsL.append(np.max(np.abs(L_of_values(w, g, Radial(), ps_n6) - exactL)[6:-6]))
            errsG.append(np.max(np.abs(grad_cyl(field).values - exactG)[6:-6]))
        for errs in (errsL, errsG):
            assert all(8.0 <= a / b <= 32.0 for a, b in zip(errs, errs[1:]))


class TestIntegrateMu:
    def test_ball_volume(self, ps_n6, grid_default):
        f = CylinderField(grid_default, Radial(), np.ones(2048), ps_n6)
        R = 10.0
        got = integrate_mu(f, r_hi=R)
        expected = sphere_area(3) * R**ps_n6.n / ps_n6.n
        assert abs(got / expected - 1.0) < 1e-6

    def test_bubble_p_integral_stable_under_domain_doubling(self, ps_sobolev3):
        # w^p s^(n-1) ~ s^(-n-1): convergent tail
        vals = []
        for r_max in (1e3, 2e3):
            g = RadialGrid(1e-3, r_max, 3000)
            w = bubble_cylinder(ps_sobolev3, g)
            f = w.with_values(w.values**ps_sobolev3.p_exp)
            vals.append(integrate_mu(f))
        assert abs(vals[1] / vals[0] - 1.0) < 1e-6

    def test_angular_factor_d2(self, ps_d2):
        g = RadialGrid(1e-1, 1e1, 64)
        ang = PeriodicGrid(32)
        th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        vals = np.broadcast_to((2.0 + np.cos(th))[None, :], (64, 32)).copy()
        f = CylinderField(g, ang, vals, ps_d2)
        # mean of 2 + cos is 2
        flat = CylinderField(g, Radial(), np.full(64, 2.0), ps_d2)
        assert abs(integrate_mu(f) / integrate_mu(flat) - 1.0) < 1e-12

    def test_region_validation(self, ps_n6, grid_small):
        f = CylinderField(grid_small, Radial(), np.ones(512), ps_n6)
        with pytest.raises(CknLabError, match="outside grid"):
            integrate_mu(f, grid_small.r_min / 10, 1.0)

    def test_one_region_rule(self, ps_n6, grid_default):
        # integrate_uniform alone judges the grid ends, in ln r: an r_hi within
        # its tolerance integrates to the grid end, an r_lo past it is refused
        g = grid_default
        f = CylinderField(g, Radial(), np.exp(-g.nodes), ps_n6)
        assert integrate_mu(f, r_hi=g.r_max * (1 + 3e-12)) == integrate_mu(f)
        with pytest.raises(CknLabError, match="outside grid"):
            integrate_mu(f, g.r_min * (1 - 1e-9))
        for r_lo, r_hi in [(2.0, 1.0), (0.0, 1.0)]:
            with pytest.raises(ValueError):
                integrate_mu(f, r_lo, r_hi)


class TestResidualEqW:
    """L w + w^(p-1), which vanishes at grid scale iff w solves the cylinder equation."""

    def test_bubble_closed_form_residual(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default).values
        res = L_of_values(w, grid_default, Radial(), ps_n6) + w ** (ps_n6.p_exp - 1)
        norm = np.max(w ** (ps_n6.p_exp - 1))
        assert np.max(np.abs(res[4:-4])) / norm < 5e-6  # FD noise floor
        # away from the flat region the FD residual is tight
        mask = grid_default.nodes >= 1.0
        assert np.max(np.abs(res[mask][:-4])) / norm < 1e-8

    def test_constant_residual_is_one(self, ps_n6, grid_small):
        w = np.ones(512)
        res = L_of_values(w, grid_small, Radial(), ps_n6) + w ** (ps_n6.p_exp - 1)
        assert np.max(np.abs(res[4:-4] - 1.0)) < 1e-10

    def test_amplitude_scaling_is_not_a_symmetry(self, ps_n6, grid_default):
        w = 2.0 * bubble_cylinder(ps_n6, grid_default).values
        res = L_of_values(w, grid_default, Radial(), ps_n6) + w ** (ps_n6.p_exp - 1)
        norm = np.max(w ** (ps_n6.p_exp - 1))
        assert np.max(np.abs(res[4:-4])) / norm > 0.1


class TestCsvExport:
    def test_radial_header_omits_theta(self, ps_n6):
        g = RadialGrid(1e-1, 1e1, 16)
        w = CylinderField(g, Radial(), np.ones(16), ps_n6)
        text = csv_text(["r", "value"], list(zip(g.nodes, w.values)))
        assert text.splitlines()[0] == "r,value"
        assert len(text.splitlines()) == 17

    def test_periodic_rows_radial_major(self, ps_d2):
        g = RadialGrid(1e-1, 1e1, 16)
        vals = np.arange(16 * 8, dtype=float).reshape(16, 8)
        w = CylinderField(g, PeriodicGrid(8), vals, ps_d2)
        rows = [(r, t, w.values[i, j]) for i, r in enumerate(g.nodes)
                for j, t in enumerate(theta_nodes(w.angular))]
        lines = csv_text(["r", "theta", "value"], rows).splitlines()
        assert lines[0] == "r,theta,value"
        assert len(lines) == 1 + 16 * 8
        first_r = lines[1].split(",")[0]
        assert all(lines[1 + j].split(",")[0] == first_r for j in range(8))
