import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.bubble import bubble_cylinder
from cknlab.cylfield import (
    CylinderField,
    MeasureRegion,
    PeriodicGrid,
    Radial,
    apply_L,
    integrate_mu,
    theta_nodes,
)
from cknlab.errors import (
    BadExponent,
    NotFiniteEnergy,
    NotSuperharmonic,
    RangeViolation,
    RegimeViolation,
)
from cknlab.estimates import (
    finite_energy_chain,
    int_ineq_sides,
    low_dim_chain,
    make_cutoff,
    superharmonic_lower_bound,
    weak_energy,
)
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid
from cknlab.params import derive_params
from cknlab.pressure import pressure_of


class TestCutoff:
    def test_plateau_and_support(self):
        cut = make_cutoff(4.0)
        assert cut.eta(4.0) == 1.0
        assert cut.eta(8.0) == 0.0
        assert abs(cut.eta(6.0) - 0.5) < 1e-15
        assert cut.eta(1.0) == 1.0 and cut.eta(100.0) == 0.0

    def test_derivative_sup_norm(self):
        cut = make_cutoff(4.0)
        r = np.linspace(0.01, 10.0, 20001)
        sup = np.max(np.abs(cut.eta_prime(r)))
        assert abs(sup - cut.c_profile / cut.R) < 1e-6
        # attained at r = 1.5 R
        assert abs(abs(cut.eta_prime(6.0)) - 15.0 / 8.0 / 4.0) < 1e-15

    @settings(max_examples=50)
    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=2.0, max_value=8.0))
    def test_profile_bounds(self, R, s_power):
        cut = make_cutoff(R, s_power)
        r = np.linspace(0.0, 3 * R, 301)
        eta = cut.eta(r)
        assert np.all((0.0 <= eta) & (eta <= 1.0))
        assert np.all(cut.eta_prime(r) <= 0.0)
        assert np.max(np.abs(cut.eta_prime(r))) * R <= cut.c_profile + 1e-12

    def test_gradient_power_integral_linear_in_R(self, ps_d2):
        # int |eta'|^(n-1) eta^(s-n+1) dmu over (R, 2R) <= C R for 2 < n < 4
        ps = derive_params(-0.3, -0.3 + 1.0 / 3.0, 2)  # n = 3
        g = RadialGrid(1e-3, 1e3, 4096)
        vals = []
        R_list = [8.0, 16.0, 32.0, 64.0, 128.0]
        for R in R_list:
            cut = make_cutoff(R, s_power=4.0)
            s = g.nodes
            integrand = (np.abs(cut.eta_prime(s)) ** (ps.n - 1.0)
                         * cut.eta(s) ** (4.0 - ps.n + 1.0))
            f = CylinderField(g, Radial(), integrand, ps)
            vals.append(integrate_mu(f, MeasureRegion(R, 2 * R)))
        slope = fit_loglog(np.array(R_list), np.array(vals)).slope
        assert abs(slope - 1.0) < 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_cutoff(-1.0)
        with pytest.raises(ValueError):
            make_cutoff(1.0, s_power=1.0)


class TestIntIneqSides:
    def test_bubble_sign_and_positive_rhs(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        sides = int_ineq_sides(pf, make_cutoff(32.0))
        assert sides.lhs >= -1e-8
        assert abs(sides.lhs) < 1e-6
        assert sides.rhs_weighted > 0.0

    def test_rhs_annulus_scaling(self, ps_n6, grid_default):
        # bubble integrand s^(4-2n) * R^-2 * s^(n-1) over (R, 2R): R^(2-n)
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        R_list = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
        rhs = [int_ineq_sides(pf, make_cutoff(R)).rhs_weighted for R in R_list]
        slope = fit_loglog(R_list, rhs).slope
        assert abs(slope - (2.0 - ps_n6.n)) < 0.1

    def test_regime_gate(self, grid_default):
        ps = derive_params(-1.0, -1.0 / 3.0, 2)  # symmetry breaking
        pf = pressure_of(bubble_cylinder(ps, grid_default))
        with pytest.raises(RegimeViolation):
            int_ineq_sides(pf, make_cutoff(8.0))


class TestSuperharmonicBound:
    def test_bubble_constant_and_margin(self, ps_sobolev3):
        # odd count puts a node exactly at s = 1
        g = RadialGrid(1e-2, 1e2, 2049)
        w = bubble_cylinder(ps_sobolev3, g)
        bound = superharmonic_lower_bound(w, rho=1.0)
        assert abs(bound.rho - 1.0) < 1e-12
        assert abs(bound.A - 3.0**0.25 / math.sqrt(2.0)) < 1e-12
        assert bound.min_margin >= -1e-10

    def test_exact_harmonic_equality_case(self, ps_n6):
        g = RadialGrid(1e-2, 1e2, 2049)
        w = CylinderField(g, Radial(), g.nodes ** (2.0 - ps_n6.n), ps_n6)
        bound = superharmonic_lower_bound(w, rho=1.0)
        assert abs(bound.A - 1.0) < 1e-12
        assert abs(bound.min_margin) < 1e-10

    def test_harmonic_plus_bubble_still_superharmonic(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        vals = w.values + 0.1 * grid_default.nodes ** (2.0 - ps_n6.n)
        bound = superharmonic_lower_bound(w.with_values(vals), rho=1.0)
        assert bound.min_margin >= -1e-10

    def test_subharmonic_rejected(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), grid_small.nodes**2, ps_n6)
        with pytest.raises(NotSuperharmonic):
            superharmonic_lower_bound(w, rho=1.0)

    def test_angular_term_counts_in_the_gate(self, ps_d2):
        # w = r^(2-n) (1 + cos(theta)/2): radially harmonic, but
        # L w = -cos(theta) r^(-n) / 2 reaches 1/2 at r = 1
        g = RadialGrid(1e-2, 1e2, 1025)
        ang = PeriodicGrid(64)
        vals = g.nodes[:, None] ** (2.0 - ps_d2.n) * (1.0 + 0.5 * np.cos(theta_nodes(ang)))
        w = CylinderField(g, ang, vals, ps_d2)
        assert np.max(apply_L(w).values[g.nodes >= 1.0]) > 0.49
        with pytest.raises(NotSuperharmonic):
            superharmonic_lower_bound(w, rho=1.0)

    def test_periodic_bubble_matches_radial(self, ps_d2):
        g = RadialGrid(1e-2, 1e2, 1025)
        w = bubble_cylinder(ps_d2, g)
        vals = np.broadcast_to(w.values[:, None], (g.count, 64))
        radial = superharmonic_lower_bound(w, rho=1.0)
        periodic = superharmonic_lower_bound(CylinderField(g, PeriodicGrid(64), vals, ps_d2),
                                             rho=1.0)
        assert (periodic.A, periodic.min_margin) == (radial.A, radial.min_margin)


class TestWeakEnergy:
    def test_exponent_gate(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        with pytest.raises(BadExponent):
            weak_energy(w, t=-1.0)

    def test_log_growth_case(self, ps_n6, grid_default):
        # n = 6, t = -1.5: A-integrand exponent -(n+1)-(n-2)t = -1 (log growth)
        res = weak_energy(bubble_cylinder(ps_n6, grid_default), t=-1.5)
        assert res.beta == 3.0
        assert res.fitted_exponents[0] < 0.5
        assert res.fitted_exponents[1] <= res.beta + 0.1

    def test_power_growth_case(self, ps_n6, grid_default):
        # t = -2.5: A-integrand exponent 4 -> growth R^4; beta = 6
        res = weak_energy(bubble_cylinder(ps_n6, grid_default), t=-2.5)
        assert res.beta == 6.0
        assert abs(res.fitted_exponents[0] - 4.0) < 0.1
        assert res.fitted_exponents[1] <= res.beta + 0.1

    @pytest.mark.parametrize("triple,n", [((-0.25, 0.15, 3), 5.0),
                                          ((-0.5, 0.0, 3), 6.0),
                                          ((-0.7, -0.075, 3), 8.0)])
    @pytest.mark.parametrize("t", [-1.2, -1.5, -2.0, -2.5, -3.0])
    def test_exponents_never_exceed_beta(self, triple, n, t, grid_default):
        ps = derive_params(*triple)
        assert abs(ps.n - n) < 1e-10
        res = weak_energy(bubble_cylinder(ps, grid_default), t=t)
        assert res.fitted_exponents[0] <= res.beta + 0.1
        assert res.fitted_exponents[1] <= res.beta + 0.1


class TestLowDimChain:
    WIDE = None

    @classmethod
    def wide_grid(cls):
        if cls.WIDE is None:
            cls.WIDE = RadialGrid(1e-3, 1e4, 2561)
        return cls.WIDE

    @pytest.mark.parametrize("triple,n", [((-0.15, 0.05, 2), 2.5),
                                          ((-0.3, -0.3 + 1.0 / 3.0, 2), 3.0),
                                          ((-0.4, -0.4 + 3.0 / 7.0, 2), 3.5)])
    def test_growth_matches_prediction(self, triple, n):
        ps = derive_params(*triple)
        assert abs(ps.n - n) < 1e-12
        pf = pressure_of(bubble_cylinder(ps, self.wide_grid()))
        chain = low_dim_chain(pf, R_list=128.0 * 2.0 ** np.arange(6))
        assert abs(chain.grad_integral_growth - (4.0 - n)) <= 0.05
        assert chain.closes
        assert chain.defect_decay < 0.0

    def test_range_gate(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        with pytest.raises(RangeViolation):
            low_dim_chain(pf)


class TestFiniteEnergyChain:
    def test_bubble_n6_rates(self, ps_n6, grid_default):
        chain = finite_energy_chain(bubble_cylinder(ps_n6, grid_default))
        assert abs(chain.pressure_tail_exponent - (4.0 - ps_n6.n)) <= 0.05
        assert abs(chain.plain_tail_exponent - (2.0 - ps_n6.n)) <= 0.1
        assert abs(chain.defect) < 1e-6
        assert chain.total_energy > 0.0

    def test_n3_energy_uncertified(self, ps_sobolev3, grid_default):
        # the grid tail of int |Dw|^2 has not converged at r_max = 1e3
        with pytest.raises(NotFiniteEnergy):
            finite_energy_chain(bubble_cylinder(ps_sobolev3, grid_default))

    def test_compact_support_tail_vanishes(self, ps_n6, grid_default):
        s = grid_default.nodes
        cut = make_cutoff(1.0)
        vals = cut.eta(s) + 1e-30  # positive, vanishing beyond s = 2
        chain = finite_energy_chain(
            CylinderField(grid_default, Radial(), vals, ps_n6),
            R_list=np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
        )
        assert np.max(chain.plain_tail_values) < 1e-40
