import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import pressure
from cknlab.bubble import bubble_cylinder
from cknlab.cylfield import (
    CylinderField,
    L_of_values,
    PeriodicGrid,
    Radial,
    integrate_mu,
    theta_nodes,
)
from cknlab.errors import CknLabError, NotFiniteEnergy
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

C_PROFILE = 15.0 / 8.0  # sup |eta'| * R for the quintic smoothstep


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
        assert abs(sup - C_PROFILE / cut.R) < 1e-6
        # attained at r = 1.5 R
        assert abs(abs(cut.eta_prime(6.0)) - 15.0 / 8.0 / 4.0) < 1e-15

    @settings(max_examples=50)
    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_profile_bounds(self, R):
        cut = make_cutoff(R)
        r = np.linspace(0.0, 3 * R, 301)
        eta = cut.eta(r)
        assert np.all((0.0 <= eta) & (eta <= 1.0))
        assert np.all(cut.eta_prime(r) <= 0.0)
        assert np.max(np.abs(cut.eta_prime(r))) * R <= C_PROFILE + 1e-12

    def test_gradient_power_integral_linear_in_R(self, ps_d2):
        # int |eta'|^(n-1) eta^(s-n+1) dmu over (R, 2R) <= C R for 2 < n < 4, at s = 4
        ps = derive_params(-0.3, -0.3 + 1.0 / 3.0, 2)  # n = 3
        g = RadialGrid(1e-3, 1e3, 4096)
        vals = []
        R_list = [8.0, 16.0, 32.0, 64.0, 128.0]
        for R in R_list:
            cut = make_cutoff(R)
            s = g.nodes
            integrand = (np.abs(cut.eta_prime(s)) ** (ps.n - 1.0)
                         * cut.eta(s) ** (4.0 - ps.n + 1.0))
            f = CylinderField(g, Radial(), integrand, ps)
            vals.append(integrate_mu(f, R, 2 * R))
        slope = fit_loglog(np.array(R_list), np.array(vals))
        assert abs(slope - 1.0) < 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_cutoff(-1.0)


class TestIntIneqSides:
    def test_bubble_sign_and_positive_rhs(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        sides = int_ineq_sides(pf, [make_cutoff(32.0)])[0]
        assert sides.lhs >= -1e-8
        assert abs(sides.lhs) < 1e-6
        assert sides.rhs_weighted > 0.0

    def test_rhs_annulus_scaling(self, ps_n6, grid_default):
        # bubble integrand s^(4-2n) * R^-2 * s^(n-1) over (R, 2R): R^(2-n)
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        R_list = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
        rhs = [int_ineq_sides(pf, [make_cutoff(R)])[0].rhs_weighted for R in R_list]
        slope = fit_loglog(R_list, rhs)
        assert abs(slope - (2.0 - ps_n6.n)) < 0.1

    def test_regime_gate(self, grid_default):
        ps = derive_params(-1.0, -1.0 / 3.0, 2)  # symmetry breaking
        pf = pressure_of(bubble_cylinder(ps, grid_default))
        with pytest.raises(CknLabError, match="sign guarantee lost"):
            int_ineq_sides(pf, [make_cutoff(8.0)])

    def test_cutoff_support_past_the_grid_is_refused(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        int_ineq_sides(pf, [make_cutoff(grid_default.r_max / 2.0)])  # 2R is the grid end
        with pytest.raises(CknLabError, match="outside grid"):
            int_ineq_sides(pf, [make_cutoff(8.0), make_cutoff(0.6 * grid_default.r_max)])

    def test_bochner_k_once_for_all_cutoffs(self, ps_n6, grid_default, monkeypatch):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        cutoffs = [make_cutoff(R) for R in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0)]
        calls = []
        original = pressure.bochner_k

        def counted(field):
            calls.append(field)
            return original(field)

        monkeypatch.setattr(pressure, "bochner_k", counted)
        sides = int_ineq_sides(pf, cutoffs)
        assert len(calls) == 1 and len(sides) == 6
        monkeypatch.undo()
        for cut, side in zip(cutoffs, sides):
            assert int_ineq_sides(pf, [cut]) == [side]


class TestSuperharmonicBound:
    def test_bubble_constant_and_margin(self, ps_sobolev3):
        # odd count puts a node exactly at s = 1
        g = RadialGrid(1e-2, 1e2, 2049)
        w = bubble_cylinder(ps_sobolev3, g)
        bound = superharmonic_lower_bound(w)
        assert abs(bound.rho - 1.0) < 1e-12
        assert abs(bound.A - 3.0**0.25 / math.sqrt(2.0)) < 1e-12
        assert bound.min_margin >= -1e-10

    def test_exact_harmonic_equality_case(self, ps_n6):
        g = RadialGrid(1e-2, 1e2, 2049)
        w = CylinderField(g, Radial(), g.nodes ** (2.0 - ps_n6.n), ps_n6)
        bound = superharmonic_lower_bound(w)
        assert abs(bound.A - 1.0) < 1e-12
        assert abs(bound.min_margin) < 1e-10

    def test_harmonic_plus_bubble_still_superharmonic(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        vals = w.values + 0.1 * grid_default.nodes ** (2.0 - ps_n6.n)
        bound = superharmonic_lower_bound(w.with_values(vals))
        assert bound.min_margin >= -1e-10

    def test_subharmonic_rejected(self, ps_n6, grid_small):
        w = CylinderField(grid_small, Radial(), grid_small.nodes**2, ps_n6)
        with pytest.raises(CknLabError, match="max L w = .* exceeds"):
            superharmonic_lower_bound(w)

    def test_angular_term_counts_in_the_gate(self, ps_d2):
        # w = r^(2-n) (1 + cos(theta)/2): radially harmonic, but
        # L w = -cos(theta) r^(-n) / 2 reaches 1/2 at r = 1
        g = RadialGrid(1e-2, 1e2, 1025)
        ang = PeriodicGrid(64)
        vals = g.nodes[:, None] ** (2.0 - ps_d2.n) * (1.0 + 0.5 * np.cos(theta_nodes(ang)))
        w = CylinderField(g, ang, vals, ps_d2)
        assert np.max(L_of_values(vals, g, ang, ps_d2)[g.nodes >= 1.0]) > 0.49
        with pytest.raises(CknLabError, match="max L w = .* exceeds"):
            superharmonic_lower_bound(w)

    def test_periodic_bubble_matches_radial(self, ps_d2):
        g = RadialGrid(1e-2, 1e2, 1025)
        w = bubble_cylinder(ps_d2, g)
        vals = np.broadcast_to(w.values[:, None], (g.count, 64))
        radial = superharmonic_lower_bound(w)
        periodic = superharmonic_lower_bound(CylinderField(g, PeriodicGrid(64), vals, ps_d2))
        assert (periodic.A, periodic.min_margin) == (radial.A, radial.min_margin)


class TestWeakEnergy:
    def test_exponent_gate(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        with pytest.raises(CknLabError, match="needs t < -1"):
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
        chain = low_dim_chain(pf)
        assert abs(chain.grad_integral_growth - (4.0 - n)) <= 0.05
        assert chain.closes
        assert chain.defect_decay < 0.0

    def test_range_gate(self, ps_n6, grid_default):
        pf = pressure_of(bubble_cylinder(ps_n6, grid_default))
        with pytest.raises(CknLabError, match="chain requires 2 < n < 4"):
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
        cut = make_cutoff(3.5)
        vals = cut.eta(s) + 1e-30  # positive, vanishing beyond s = 7
        chain = finite_energy_chain(CylinderField(grid_default, Radial(), vals, ps_n6))
        assert chain.R_list[0] == 7.8125  # the first annulus starts just past the support
        assert np.max(chain.plain_tail_values) < 1e-40
