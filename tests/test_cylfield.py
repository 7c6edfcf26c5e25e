import numpy as np
import pytest
from scipy.integrate import quad

from cknlab.bubble import bubble_cylinder, bubble_cylinder_values, cylinder_amplitude
from cknlab.cylfield import (
    CylinderField,
    MeasureRegion,
    PeriodicGrid,
    Radial,
    SingleHarmonic,
    apply_L,
    ckn_rayleigh,
    grad_cyl,
    integrate_mu,
    residual_eq_w,
    theta_derivative,
    to_cylinder,
)
from cknlab.errors import (
    DegenerateDenominator,
    NonPositiveSample,
    RegionOutsideGrid,
    UnsupportedAngularRep,
)
from cknlab.fitting import halving_factors
from cknlab.grids import RadialGrid, sphere_area
from cknlab.params import derive_params


class TestToCylinder:
    def test_constant_is_fixed(self, ps_n6, grid_small):
        w = to_cylinder(lambda r, t: np.ones_like(r), ps_n6, grid_small)
        assert np.max(np.abs(w.values - 1.0)) == 0.0

    def test_power_law_exponent(self, ps_n6, grid_small):
        # u(r) = r^(-(n-2) alpha) pulls back to w(s) = s^(2-n)
        n, alpha = ps_n6.n, ps_n6.alpha
        w = to_cylinder(lambda r, t: r ** (-(n - 2) * alpha), ps_n6, grid_small)
        expected = grid_small.nodes ** (2.0 - n)
        rel = np.abs(w.values / expected - 1.0)
        assert rel.max() < 1e-13

    def test_round_trip_at_nodes(self, ps_n6, grid_small):
        u = lambda r, t: 2.0 + np.sin(np.log(r))
        w = to_cylinder(u, ps_n6, grid_small)
        r_back = grid_small.nodes ** (1.0 / ps_n6.alpha)
        rel = np.abs(w.values / u(r_back, None) - 1.0)
        assert rel.max() < 1e-13

    def test_positivity_gate(self, ps_n6, grid_small):
        with pytest.raises(NonPositiveSample):
            to_cylinder(lambda r, t: np.log(r), ps_n6, grid_small,
                        require_positive=True)

    def test_angular_sampler_d2(self, ps_d2):
        g = RadialGrid(1e-1, 1e1, 64)
        w = to_cylinder(lambda r, t: 2.0 + np.cos(t) * 0 * r + np.cos(t), ps_d2,
                        g, angular=PeriodicGrid(32))
        assert w.values.shape == (64, 32)


class TestGradCyl:
    def test_constant(self, ps_n6, grid_small):
        w = to_cylinder(lambda r, t: np.ones_like(r), ps_n6, grid_small)
        assert np.max(np.abs(grad_cyl(w).square_norm.values)) < 1e-20

    def test_linear_field(self, ps_n6, grid_small):
        # w(s) = s with alpha = 1/2: |Dw|^2 = alpha^2 = 1/4
        w = CylinderField(grid_small, Radial(), grid_small.nodes, ps_n6)
        sq = grad_cyl(w).square_norm.values
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
        sq = grad_cyl(w).square_norm.values
        expected = np.cos(th)[None, :] ** 2 / g.nodes[:, None] ** 2
        assert np.max(np.abs(sq - expected)) < 1e-10 * expected.max()

    def test_single_harmonic_k1_unsupported(self, ps_n6, grid_small):
        w = CylinderField(grid_small, SingleHarmonic(1),
                          np.ones(grid_small.count), ps_n6)
        with pytest.raises(UnsupportedAngularRep):
            grad_cyl(w)


@pytest.mark.parametrize("m", [63, 64])
def test_periodic_theta_pair_is_bitwise_both_orders(m):
    vals = np.random.default_rng(4).standard_normal((40, m))
    grad, lap = PeriodicGrid(m).theta_pair(vals)
    assert np.array_equal(grad, theta_derivative(vals, 1))
    assert np.array_equal(lap, theta_derivative(vals, 2))


class TestApplyL:
    def test_annihilates_harmonic_power(self, ps_n6, grid_small):
        n = ps_n6.n
        s = grid_small.nodes
        w = CylinderField(grid_small, Radial(), s ** (2.0 - n), ps_n6)
        out = apply_L(w).values
        scale = np.abs(ps_n6.alpha**2 * n * (n - 1) * s ** (-n))
        assert np.max(np.abs(out[4:-4]) / scale[4:-4]) < 1e-5

    def test_annihilates_constants(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), np.ones(grid_small.count), ps_n6)
        assert np.max(np.abs(apply_L(w).values)) < 1e-20

    def test_quadratic_closed_form(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), grid_small.nodes**2, ps_n6)
        expected = 2.0 * ps_n6.alpha**2 * ps_n6.n
        out = apply_L(w).values
        assert np.max(np.abs(out[4:-4] - expected)) < 1e-7 * expected

    def test_single_harmonic_k0_matches_radial(self, ps_n6, grid_small):
        vals = (1.0 + grid_small.nodes**2) ** (-1.0)
        rad = apply_L(CylinderField(grid_small, Radial(), vals, ps_n6)).values
        sect = apply_L(CylinderField(grid_small, SingleHarmonic(0), vals, ps_n6)).values
        assert np.max(np.abs(rad - sect)) <= 1e-13 * np.max(np.abs(rad))

    def test_single_harmonic_matches_periodic_sector(self, ps_d2):
        # L(f(s) cos k theta) under the sector rule == spectral route at k = 2
        g = RadialGrid(1e-1, 1e1, 128)
        k = 2
        prof = (1.0 + g.nodes**2) ** (-1.5)
        sect = apply_L(CylinderField(g, SingleHarmonic(k), prof, ps_d2)).values
        ang = PeriodicGrid(64)
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        full = apply_L(CylinderField(g, ang, prof[:, None] * np.cos(k * th)[None, :],
                                     ps_d2)).values
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
            errsL.append(np.max(np.abs(apply_L(field).values - exactL)[6:-6]))
            errsG.append(np.max(np.abs(grad_cyl(field).square_norm.values - exactG)[6:-6]))
        for f in halving_factors(errsL) + halving_factors(errsG):
            assert 8.0 <= f <= 32.0


class TestIntegrateMu:
    def test_ball_volume(self, ps_n6, grid_default):
        f = CylinderField(grid_default, Radial(), np.ones(2048), ps_n6)
        R = 10.0
        got = integrate_mu(f, MeasureRegion(grid_default.r_min, R))
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
        with pytest.raises(RegionOutsideGrid):
            integrate_mu(f, MeasureRegion(grid_small.r_min / 10, 1.0))


class TestResidualEqW:
    def test_bubble_closed_form_residual(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        res = residual_eq_w(w)
        norm = np.max(w.values ** (ps_n6.p_exp - 1))
        assert np.max(np.abs(res.values[4:-4])) / norm < 5e-6  # FD noise floor
        # away from the flat region the FD residual is tight
        mask = grid_default.nodes >= 1.0
        assert np.max(np.abs(res.values[mask][:-4])) / norm < 1e-8

    def test_constant_residual_is_one(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), np.ones(512), ps_n6)
        res = residual_eq_w(w).values
        assert np.max(np.abs(res[4:-4] - 1.0)) < 1e-10

    def test_amplitude_scaling_is_not_a_symmetry(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        res = residual_eq_w(w.with_values(2.0 * w.values))
        norm = np.max((2.0 * w.values) ** (ps_n6.p_exp - 1))
        assert np.max(np.abs(res.values[4:-4])) / norm > 0.1


class TestCknRayleigh:
    def test_matches_quadrature_oracle_sobolev(self, ps_sobolev3, grid_default):
        w = bubble_cylinder(ps_sobolev3, grid_default)
        got = ckn_rayleigh(w)
        c0 = cylinder_amplitude(ps_sobolev3)
        n, p = ps_sobolev3.n, ps_sobolev3.p_exp
        num, _ = quad(lambda s: (c0 * (1 + s * s) ** (-0.5)) ** p * s ** (n - 1),
                      grid_default.r_min, grid_default.r_max, limit=200)
        den, _ = quad(lambda s: (c0 * s / (1 + s * s) ** 1.5) ** 2 * s ** (n - 1),
                      grid_default.r_min, grid_default.r_max, limit=200)
        area = sphere_area(3)
        expected = (area * num) ** (2.0 / p) / (area * den)
        assert abs(got / expected - 1.0) < 1e-6

    def test_refinement_stability(self, ps_sobolev3):
        vals = []
        for count in (1024, 2048):
            g = RadialGrid(1e-3, 1e3, count)
            vals.append(ckn_rayleigh(bubble_cylinder(ps_sobolev3, g)))
        assert abs(vals[1] / vals[0] - 1.0) < 1e-4

    def test_scale_invariance(self, ps_n6, grid_default):
        base = ckn_rayleigh(bubble_cylinder(ps_n6, grid_default))
        for lam in (0.5, 2.0, 5.0):
            vals = bubble_cylinder_values(ps_n6, grid_default.nodes, lam=lam)
            w = CylinderField(grid_default, Radial(), vals, ps_n6)
            assert abs(ckn_rayleigh(w) / base - 1.0) < 1e-6

    def test_bump_is_worse_than_bubble(self, ps_n6, grid_default):
        s = grid_default.nodes
        bump = np.exp(-0.5 * ((np.log(s) - 0.0) / 0.1) ** 2) + 1e-8
        w = CylinderField(grid_default, Radial(), bump, ps_n6)
        assert ckn_rayleigh(w) < ckn_rayleigh(bubble_cylinder(ps_n6, grid_default))

    def test_degenerate_denominator(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), np.ones(512), ps_n6)
        with pytest.raises(DegenerateDenominator):
            ckn_rayleigh(w)


class TestCsvExport:
    def test_radial_header_omits_theta(self, ps_n6):
        g = RadialGrid(1e-1, 1e1, 16)
        w = CylinderField(g, Radial(), np.ones(16), ps_n6)
        text = w.to_csv_text()
        assert text.splitlines()[0] == "r,value"
        assert len(text.splitlines()) == 17

    def test_periodic_rows_radial_major(self, ps_d2):
        g = RadialGrid(1e-1, 1e1, 16)
        vals = np.arange(16 * 8, dtype=float).reshape(16, 8)
        w = CylinderField(g, PeriodicGrid(8), vals, ps_d2)
        lines = w.to_csv_text().splitlines()
        assert lines[0] == "r,theta,value"
        assert len(lines) == 1 + 16 * 8
        first_r = lines[1].split(",")[0]
        assert all(lines[1 + j].split(",")[0] == first_r for j in range(8))
