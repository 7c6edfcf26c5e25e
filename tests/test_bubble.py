import math
import warnings

import numpy as np
import pytest

from cknlab.bubble import (
    bubble_cylinder,
    bubble_cylinder_derivatives,
    bubble_cylinder_values,
    bubble_cylinder_via_transform,
    bubble_derivatives,
    cylinder_amplitude,
    eval_bubble,
    make_bubble,
    pressure_amplitude,
    residual_euclidean,
    residual_eq_w_closed_form,
    residual_scale,
)
from cknlab.errors import AmplitudeOverflow, SubcriticalRange
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid
from cknlab.params import derive_params

from conftest import FIVE_TRIPLES


class TestEvalBubble:
    def test_sobolev_center_value(self, ps_sobolev3):
        spec = make_bubble(ps_sobolev3)
        assert abs(spec.c0 - 3.0**0.25) < 1e-14
        assert abs(eval_bubble(spec, 1e-300) - 3.0**0.25) < 1e-13

    def test_sobolev_at_one(self, ps_sobolev3):
        spec = make_bubble(ps_sobolev3)
        assert abs(eval_bubble(spec, 1.0) - 3.0**0.25 / math.sqrt(2.0)) < 1e-14

    def test_weighted_case_hand_value(self, ps_n6):
        spec = make_bubble(ps_n6)
        assert abs(spec.c0 - 6.0) < 1e-13
        assert abs(eval_bubble(spec, 1.0) - 1.5) < 1e-13

    def test_strictly_decreasing(self, ps_n6):
        spec = make_bubble(ps_n6)
        r = np.logspace(-3, 3, 500)
        u = eval_bubble(spec, r)
        assert np.all(np.diff(u) < 0)

    def test_overflowing_power_keeps_the_closed_form(self):
        # n ~ 2.01, q ~ 199: (lam r)^q overflows past r ~ 35, where u ~ amp (lam r)^(-2 kappa)
        ps = derive_params(-0.5, -0.495, 2)
        spec = make_bubble(ps, lam=1.5)
        r = np.logspace(-3, 3, 61)
        q = (ps.p_exp - 2.0) * ps.kappa
        log_g = np.logaddexp(0.0, q * np.log(spec.lam * r))  # log(1 + (lam r)^q)
        expected = spec.lam**ps.kappa * spec.c0 * np.exp(-2.0 / (ps.p_exp - 2.0) * log_g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = eval_bubble(spec, r)
            u_far = eval_bubble(spec, r[-1])
        assert q * math.log(spec.lam * r[-1]) > math.log(np.finfo(float).max)
        assert np.max(np.abs(u / expected - 1.0)) < 1e-12
        assert u_far == u[-1]

    def test_prefactor_identity_two_routes(self):
        # paper-form prefactor equals (alpha^2 n (n-2))^(1/(p-2))
        for trip in FIVE_TRIPLES:
            ps = derive_params(*trip)
            assert abs(make_bubble(ps).c0 / cylinder_amplitude(ps) - 1.0) < 1e-13

    def test_p2_edge_rejected(self):
        with pytest.raises(SubcriticalRange):
            make_bubble(derive_params(-1.0, 0.0, 3))


class TestEuclideanResidual:
    @pytest.mark.parametrize("trip", FIVE_TRIPLES)
    def test_analytic_residual_vanishes(self, trip):
        ps = derive_params(*trip)
        spec = make_bubble(ps)
        r = np.logspace(-2, 2, 1000)
        rel = np.abs(residual_euclidean(spec, r) / residual_scale(spec, r))
        assert rel.max() < 1e-11

    def test_constant_field_residual(self, ps_n6):
        # residual of u = C is C^(p-1) |x|^(-bp), computed directly
        C, r = 2.0, 1.7
        ps = ps_n6
        expected = C ** (ps.p_exp - 1.0) * r ** (-ps.b * ps.p_exp)
        assert abs(expected - 2.0**2) < 1e-14  # b = 0 here

    def test_doubled_prefactor_positive_residual(self, ps_n6):
        spec = make_bubble(ps_n6)
        doubled = type(spec)(ps=spec.ps, lam=spec.lam, c0=2 * spec.c0)
        assert residual_euclidean(doubled, 1.0) > 0.0

    def test_scaled_family_still_solves(self, ps_n6):
        spec = make_bubble(ps_n6, lam=2.0)
        r = np.logspace(-1, 1, 64)
        rel = np.abs(residual_euclidean(spec, r) / residual_scale(spec, r))
        assert rel.max() < 1e-10


class TestNearTwoOverflow:
    # n = 2.01 (p = 400): rr^q overflows past rr ~ 30, and r^(-bp) past r ~ 35
    @pytest.fixture
    def spec(self):
        return make_bubble(derive_params(-0.5, -0.495, 2))

    def test_residual_is_finite_where_powers_overflow(self, spec):
        # runs under pyproject's error::RuntimeWarning filter: no overflow warning
        r = np.logspace(-2, 4, 61)
        res = residual_euclidean(spec, r)
        assert np.all(np.isfinite(res))
        assert np.all(np.isfinite(residual_scale(spec, r)))
        assert math.isfinite(residual_euclidean(spec, 1e3))

    def test_overflowed_derivatives_take_the_tail_form(self, spec):
        ps = spec.ps
        q = (ps.p_exp - 2.0) * ps.kappa
        r = np.logspace(-2, 4, 61)
        u, du, d2u = bubble_derivatives(spec, r)
        assert np.array_equal(u, eval_bubble(spec, r))
        # the tail amp r^(-2 kappa) and its two derivatives, checked where the
        # closed form still holds (r^q near 1e150) and where it overflowed
        tail = spec.c0 * r ** (-2.0 * ps.kappa)
        two_k = 2.0 * ps.kappa
        far = q * np.log10(r) > 150.0
        assert far.sum() > 10
        assert np.max(np.abs(du[far] / (-two_k * tail[far] / r[far]) - 1.0)) < 1e-12
        d2_tail = two_k * (two_k + 1.0) * tail[far] / r[far] ** 2
        assert np.max(np.abs(d2u[far] / d2_tail - 1.0)) < 1e-12

    def test_scaled_amplitude_overflow_is_refused(self):
        spec = make_bubble(derive_params(-5.0, -4.5, 3), lam=1e300)
        for fn in (eval_bubble, bubble_derivatives, residual_euclidean):
            with pytest.raises(AmplitudeOverflow, match="lambda\\^kappa c0"):
                fn(spec, 1.0)


class TestCylinderForm:
    def test_sobolev_profile(self, ps_sobolev3, grid_small):
        w = bubble_cylinder(ps_sobolev3, grid_small)
        s = grid_small.nodes
        expected = 3.0**0.25 * (1.0 + s**2) ** (-0.5)
        assert np.max(np.abs(w.values / expected - 1.0)) < 1e-14

    def test_weighted_exponent_form(self, ps_n6, grid_small):
        w = bubble_cylinder(ps_n6, grid_small)
        s = grid_small.nodes
        assert np.max(np.abs(w.values - 6.0 * (1 + s**2) ** (-2.0))) < 1e-12

    def test_transform_route_agrees_at_nodes(self, ps_n6):
        g = RadialGrid(1e-3, 1e3, 1000)
        direct = bubble_cylinder(ps_n6, g).values
        pulled = bubble_cylinder_via_transform(ps_n6, g).values
        assert np.max(np.abs(pulled / direct - 1.0)) < 1e-12

    def test_tail_slope(self, ps_n6, grid_default):
        w = bubble_cylinder(ps_n6, grid_default)
        tail = grid_default.nodes >= 1e2
        slope = fit_loglog(grid_default.nodes[tail], w.values[tail]).slope
        assert abs(slope - (2.0 - ps_n6.n)) < 1e-3
        # amplitude recovers c0
        amp = w.values[-1] * grid_default.nodes[-1] ** (ps_n6.n - 2.0)
        assert abs(amp / cylinder_amplitude(ps_n6) - 1.0) < 1e-5

    def test_closed_form_residual_all_triples(self, grid_default):
        for trip in FIVE_TRIPLES:
            ps = derive_params(*trip)
            res = residual_eq_w_closed_form(ps, grid_default.nodes)
            norm = np.max(bubble_cylinder_values(ps, grid_default.nodes)
                          ** (ps.p_exp - 1.0))
            assert np.max(np.abs(res)) / norm < 1e-12

    def test_derivatives_consistent_with_values(self, ps_n6):
        s = np.logspace(-2, 2, 41)
        w, dw, _ = bubble_cylinder_derivatives(ps_n6, s)
        assert np.max(np.abs(w - bubble_cylinder_values(ps_n6, s))) < 1e-14
        h = 1e-6
        fd = (bubble_cylinder_values(ps_n6, s + h)
              - bubble_cylinder_values(ps_n6, s - h)) / (2 * h)
        assert np.max(np.abs(fd - dw) / np.abs(dw)) < 1e-8


class TestScaling:
    def test_kappa_values(self, ps_sobolev3, ps_n6):
        assert ps_sobolev3.kappa == 0.5
        assert ps_n6.kappa == 1.0

    def test_scaled_residual_small(self, ps_n6):
        spec = make_bubble(ps_n6, lam=2.0)
        rel = abs(residual_euclidean(spec, 1.0) / residual_scale(spec, 1.0))
        assert rel < 1e-10

    def test_center_value_scales_by_lambda_kappa(self, ps_n6):
        spec = make_bubble(ps_n6, lam=3.0)
        expected = 3.0**ps_n6.kappa * cylinder_amplitude(ps_n6)
        assert abs(eval_bubble(spec, 1e-280) / expected - 1.0) < 1e-12

    def test_tail_past_double_range_goes_through_logs(self, ps_n6):
        # at lambda = 1e306, lambda r overflows past r ~ 180 and g^(-e)
        # underflows below it before amp = lambda c0 scales it back; u is the
        # tail c0 lambda^(-kappa) r^(-2 kappa) (kappa = 1), not 0
        spec = make_bubble(ps_n6, lam=1e306)
        r = np.logspace(-3, 2, 11)
        u = eval_bubble(spec, r)
        tail = spec.c0 * 1e-306 * r**-2.0
        assert np.max(np.abs(u / tail - 1.0)) < 1e-11
        assert abs(eval_bubble(spec, 1e3) / (spec.c0 * 1e-312) - 1.0) < 1e-9  # subnormal

    def test_pressure_amplitude_value(self, ps_sobolev3):
        # A = (n-1) c0^(-2/(n-2)) = 2 / sqrt(3) for the d = 3 Sobolev case
        assert abs(pressure_amplitude(ps_sobolev3) - 2.0 / math.sqrt(3.0)) < 1e-14
