import numpy as np
import pytest
from scipy.integrate import quad

from cknlab.bubble import bubble_cylinder
from cknlab.cylfield import CylinderField, L_of_values, PeriodicGrid, Radial, integrate_mu
from cknlab import pressure
from cknlab.errors import CknLabError
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid, sphere_area
from cknlab.params import derive_params
from cknlab.pressure import (
    bochner_decomposition,
    bochner_k,
    defect_density,
    divergence_form_residual,
    pressure_of,
    residual_eq_P,
    rigidity_defect,
    rigidity_defect_breakdown,
    sphere_margins,
)
from cknlab.verify import (
    evaluate_log_field,
    interior_max,
    random_log_field_coeffs,
)

from test_kernels_bitwise import pressure_field_from_target, ref_interior_max
from test_oracles import pressure_amplitude


def radial_pressure_field(ps, grid, target):
    """PressureField with radial P equal to `target` exactly."""
    w_vals = ((ps.n - 1.0) / target) ** ((ps.n - 2.0) / 2.0)
    return pressure_of(CylinderField(grid, Radial(), w_vals, ps))


class TestPressureOf:
    def test_bubble_pressure_is_quadratic(self, ps_sobolev3, grid_default):
        pf = pressure_of(bubble_cylinder(ps_sobolev3, grid_default))
        s = grid_default.nodes
        A = pressure_amplitude(ps_sobolev3)
        assert abs(A - 2.0 * 3.0 ** (-0.5)) < 1e-15
        exact = A * (1.0 + s**2)
        assert np.max(np.abs(pf.P / exact - 1.0)) < 1e-13

    def test_constant_field(self, ps_n6, grid_small):
        pf = pressure_of(CylinderField(grid_small, Radial(),
                                       np.ones(grid_small.count), ps_n6))
        assert np.max(np.abs(pf.P - (ps_n6.n - 1.0))) < 1e-13

    def test_power_law_exponent_algebra(self, ps_n6, grid_small):
        # w = s^(2-n) gives P = (n-1) s^2
        s = grid_small.nodes
        pf = pressure_of(CylinderField(grid_small, Radial(),
                                       s ** (2.0 - ps_n6.n), ps_n6))
        exact = (ps_n6.n - 1.0) * s**2
        assert np.max(np.abs(pf.P / exact - 1.0)) < 1e-13

    def test_positivity_gate(self, ps_n6, grid_small):
        vals = np.ones(grid_small.count)
        vals[3] = -1.0
        with pytest.raises(CknLabError, match="requires a positive field"):
            pressure_of(CylinderField(grid_small, Radial(), vals, ps_n6))


    @pytest.mark.parametrize("periodic", [False, True])
    def test_LP_is_the_L_kernel_bitwise(self, ps_d2, periodic):
        g = RadialGrid(1e-2, 1e2, 257)
        if periodic:
            w = evaluate_log_field(random_log_field_coeffs(np.random.default_rng(6)), g,
                                   PeriodicGrid(32), ps_d2)
        else:
            w = bubble_cylinder(ps_d2, g)
        pf = pressure_of(w)
        assert pf.LP.shape == w.values.shape
        assert np.array_equal(pf.LP, L_of_values(pf.P, g, w.angular, ps_d2))


class TestResidualEqP:
    def test_bubble_interior_residual(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        res = residual_eq_P(pf)
        assert np.max(np.abs(res[4:-4])) < 1e-5  # float64 floor in the flat zone
        mask = grid_default.nodes >= 1.0
        assert np.max(np.abs(res[mask][:-4])) < 1e-8

    def test_constant_pressure_closed_form(self, ps_n6, grid_small):
        C = 3.7
        pf = radial_pressure_field(ps_n6, grid_small, np.full(grid_small.count, C))
        res = residual_eq_P(pf)
        n = ps_n6.n
        expected = -2.0 * (n - 1.0) ** 2 / ((n - 2.0) * C)
        assert np.max(np.abs(res[4:-4] - expected)) < 1e-8 * abs(expected)

    def test_fourth_order_convergence(self, ps_n6):
        errs, hs = [], []
        for count in (97, 193, 385):
            g = RadialGrid(1e-3, 1e3, count)
            pf = pressure_of(bubble_cylinder(ps_n6, g))
            errs.append(interior_max(residual_eq_P(pf), g))
            hs.append(g.log_step)
        assert fit_loglog(hs, errs) >= 3.8


class TestBochnerK:
    def test_quadratic_pressure_annihilated(self, ps_n6, ps_sobolev3):
        # the residual floor scales with alpha^4 and the 1/s^2 rounding
        # amplification, so the tightest honest bound lives at s >= 1
        g = RadialGrid(1.0, 100.0, 1025)
        pf = pressure_of(bubble_cylinder(ps_n6, g))
        A = pressure_amplitude(ps_n6)
        assert np.max(np.abs(bochner_k(pf)[4:-4])) < 1e-9 * A**2
        pf3 = pressure_of(bubble_cylinder(ps_sobolev3, g))
        A3 = pressure_amplitude(ps_sobolev3)
        assert np.max(np.abs(bochner_k(pf3)[4:-4])) < 2e-8 * A3**2

    def test_radial_linear_closed_form(self, ps_n6):
        # P(s) = s: k[P] = ((n-1)/n) alpha^4 / s^2
        g = RadialGrid(1e-1, 1e1, 512)
        pf = radial_pressure_field(ps_n6, g, g.nodes.copy())
        n, alpha = ps_n6.n, ps_n6.alpha
        exact = (n - 1.0) / n * alpha**4 / g.nodes**2
        rel = np.abs(bochner_k(pf) / exact - 1.0)
        assert rel[6:-6].max() < 1e-6

    def test_radial_k_is_single_square(self, ps_n6, rng):
        # radial k equals ((n-1)/n) alpha^4 (P'' - P'/s)^2 >= 0 pointwise
        g = RadialGrid(1e-1, 1e1, 256)
        x = g.x_nodes
        target = np.exp(1.0 + 0.3 * np.sin(x) + 0.1 * x)
        pf = radial_pressure_field(ps_n6, g, target)
        k = bochner_k(pf)
        assert k[6:-6].min() > -1e-10 * np.abs(k).max()

    def test_matches_decomposition_on_random_field(self, ps_d2, rng):
        g = RadialGrid(1e-3, 1e3, 1025)
        ang = PeriodicGrid(128)
        coeffs = random_log_field_coeffs(rng)
        pf = pressure_field_from_target(
            evaluate_log_field(coeffs, g, ang, ps_d2).values, g, ang, ps_d2)
        t1, t2, t3 = bochner_decomposition(pf)
        diff = t1 + t2 + t3 - bochner_k(pf)
        scale = np.abs(bochner_k(pf)).max()
        assert ref_interior_max(diff, g, frac=0.06) < 1e-5 * scale


class TestDecomposition:
    def test_quadratic_all_terms_vanish(self, ps_n6):
        g = RadialGrid(1e-2, 1e2, 2049)
        pf = pressure_of(bubble_cylinder(ps_n6, g))
        A = pressure_amplitude(ps_n6)
        for term in bochner_decomposition(pf):
            assert np.max(np.abs(term[4:-4])) < 1e-9 * A**2

    def test_radial_only_hessian_term(self, ps_n6):
        g = RadialGrid(1e-1, 1e1, 256)
        pf = radial_pressure_field(ps_n6, g, g.nodes.copy())
        radial_hessian, mixed, sphere = bochner_decomposition(pf)
        assert mixed is not sphere
        assert np.all(mixed == 0.0)
        assert np.all(sphere == 0.0)
        n, alpha = ps_n6.n, ps_n6.alpha
        exact = (n - 1.0) / n * alpha**4 / g.nodes**2  # P''=0, P'/s = 1/s
        rel = np.abs(radial_hessian / exact - 1.0)
        assert rel[6:-6].max() < 1e-6

    def test_consistency_order_on_random_fields(self, ps_d2, rng):
        ang = PeriodicGrid(128)
        coeffs = random_log_field_coeffs(rng)
        errs, hs = [], []
        for count in (513, 1025, 2049):
            g = RadialGrid(1e-3, 1e3, count)
            pf = pressure_field_from_target(
                evaluate_log_field(coeffs, g, ang, ps_d2).values, g, ang, ps_d2)
            t1, t2, t3 = bochner_decomposition(pf)
            diff = t1 + t2 + t3 - bochner_k(pf)
            errs.append(ref_interior_max(diff, g, frac=0.06))
            hs.append(g.log_step)
        assert fit_loglog(hs, errs) >= 3.8


class TestSphereBochner:
    def _make(self, ps, profile_theta, M=256, count=64):
        g = RadialGrid(1e-1, 1e1, count)
        th = np.linspace(0, 2 * np.pi, M, endpoint=False)
        target = np.broadcast_to(profile_theta(th)[None, :], (count, M)).copy()
        return pressure_field_from_target(target, g, PeriodicGrid(M), ps)

    @staticmethod
    def margins(pf):
        return sphere_margins(pf.P, pf.thetaP, pf.lap_thetaP, pf.params)

    def test_constant_in_theta_both_sides_zero(self, ps_d2):
        # both sides integrate theta-derivatives of P, which vanish
        pf = self._make(ps_d2, lambda th: np.full_like(th, 2.0))
        assert np.max(np.abs(pf.thetaP)) < 1e-12 and np.max(np.abs(pf.lap_thetaP)) < 1e-12
        assert abs(self.margins(pf)[32]) < 1e-12

    def test_two_plus_cos_margin(self):
        # d = 2 path with n = 6, alpha = 1/2
        ps = derive_params(-1.0, -1.0 / 3.0, 2)
        assert abs(ps.n - 6.0) < 1e-12 and abs(ps.alpha - 0.5) < 1e-12
        pf = self._make(ps, lambda th: 2.0 + np.cos(th))
        assert self.margins(pf)[32] >= 0.0

    def test_seeded_profiles_nonnegative_margin(self, ps_d2, rng):
        from cknlab.verify import random_circle_profile
        for _ in range(100):
            prof = random_circle_profile(rng, 256)
            pf = self._make(ps_d2, lambda th, p=prof: p)
            assert self.margins(pf)[32] >= -1e-8

    def test_row_margin_matches_full_density(self, ps_d2, rng):
        from cknlab.verify import random_circle_profile
        g = RadialGrid(1e-1, 1e1, 64)
        rows = 1.0 + 0.1 * np.sin(np.arange(g.count))[:, None]   # rows differ
        target = rows * random_circle_profile(rng, 256)[None, :]
        pf = pressure_field_from_target(target, g, PeriodicGrid(256), ps_d2)
        n, alpha, d = pf.params.n, ps_d2.alpha, ps_d2.d
        full = pressure._sphere_k(pf.thetaP, pf.lap_thetaP, n, alpha)
        margins = self.margins(pf)
        for i in (0, 17, 32, 63):
            weight = pf.P[i] ** (1.0 - n)
            lhs = float(np.mean(weight * full[i])) * 2.0 * np.pi
            coeff = (n - 2.0) * ((d - 1.0) / (n - 1.0) - alpha**2)
            rhs = coeff * float(np.mean(weight * pf.thetaP[i] ** 2)) * 2.0 * np.pi
            assert np.array_equal(margins[i], lhs - rhs)


class TestDivergenceForm:
    def test_bubble_residual_small_and_convergent(self, ps_n6):
        errs, hs = [], []
        for count in (97, 193, 385):
            g = RadialGrid(1e-3, 1e3, count)
            pf = pressure_of(bubble_cylinder(ps_n6, g))
            errs.append(interior_max(divergence_form_residual(pf), g))
            hs.append(g.log_step)
        assert errs[-1] < 1e-7
        assert fit_loglog(hs, errs) >= 3.8

    def test_radial_linear_both_sides_agree(self, ps_n6):
        # P = s: exact identity even off-solution; both sides are
        # ((n-1)/n) alpha^4 s^(-n-1), so normalize pointwise
        g = RadialGrid(1e-1, 1e1, 512)
        pf = radial_pressure_field(ps_n6, g, g.nodes.copy())
        res = divergence_form_residual(pf)
        n, alpha = ps_n6.n, ps_n6.alpha
        scale = (n - 1.0) / n * alpha**4 * g.nodes ** (-n - 1.0)
        assert np.max(np.abs(res[6:-6]) / scale[6:-6]) < 1e-5

    def test_cubic_pressure_nonzero_residual_closed_form(self, ps_n6):
        # P = s^3 is not a solution: residual = 9 a^4 (n-1)/n (2n-4) s^(5-3n)
        g = RadialGrid(1e-1, 1e1, 1024)
        pf = radial_pressure_field(ps_n6, g, g.nodes**3)
        res = divergence_form_residual(pf)
        n, alpha = ps_n6.n, ps_n6.alpha
        exact = 9.0 * alpha**4 * (n - 1.0) / n * (2.0 * n - 4.0) * g.nodes ** (5.0 - 3.0 * n)
        rel = np.abs(res[8:-8] / exact[8:-8] - 1.0)
        assert rel.max() < 1e-4

    def test_quadratic_any_amplitude_residual_vanishes(self, ps_n6):
        # both sides of the flux identity vanish identically for A (1+s^2),
        # whatever the amplitude: the non-solution diagnostic is still zero
        g = RadialGrid(1e-2, 1e2, 513)
        pf = radial_pressure_field(ps_n6, g, 7.0 * (1.0 + g.nodes**2))
        res = divergence_form_residual(pf)
        assert np.max(np.abs(res[4:-4])) < 1e-7


class TestRigidityDefect:
    def test_bubble_defect_small(self, ps_n6):
        g = RadialGrid(1e-3, 1e3, 8192)
        pf = pressure_of(bubble_cylinder(ps_n6, g))
        assert abs(rigidity_defect(pf)) < 1e-8

    def test_defect_additive_over_regions(self, ps_n6):
        g = RadialGrid(1e-1, 1e1, 512)
        pf = radial_pressure_field(ps_n6, g, g.nodes + 0.2 * g.nodes**2)
        density = pf.field(defect_density(pf))
        total = integrate_mu(density, 0.2, 8.0)
        left = integrate_mu(density, 0.2, 1.3)
        right = integrate_mu(density, 1.3, 8.0)
        assert abs(total - (left + right)) < 1e-10 * max(1.0, abs(total))

    def test_radial_linear_defect_quadrature_oracle(self, ps_n6):
        # P = s on (1, 2): int P^(1-n) k dmu = (n-1)/n a^4 |S^2| int_1^2 s^-2 ds
        g = RadialGrid(1e-1, 1e1, 2048)
        pf = radial_pressure_field(ps_n6, g, g.nodes.copy())
        got = integrate_mu(pf.field(defect_density(pf)), 1.0, 2.0)
        n, alpha = ps_n6.n, ps_n6.alpha
        oracle, _ = quad(lambda s: s ** (1.0 - n) * (n - 1.0) / n * alpha**4
                         / s**2 * s ** (n - 1.0), 1.0, 2.0)
        expected = sphere_area(3) * oracle
        assert abs(got / expected - 1.0) < 1e-8

    def test_perturbed_field_breakdown_diagnostic(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        s = grid_default.nodes
        pf = pressure_of(w.with_values(w.values * (1.0 + 0.05 * s**2 * np.exp(-s))))
        bd = rigidity_defect_breakdown(pf)
        assert bd["radial_hessian"] >= -1e-8
        assert bd["mixed"] == 0.0 and bd["sphere"] == 0.0
        assert bd["total_from_terms"] > 1e-7  # genuinely off the extremal
        assert abs(bd["total"] - bd["total_from_terms"]) < 1e-2 * bd["total_from_terms"]
