import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from cknlab import radial_ode
from cknlab.bubble import bubble_cylinder_values, cylinder_amplitude
from cknlab.errors import NotDecaying, SubcriticalRange
from cknlab.fitting import fit_loglog
from cknlab.params import derive_params
from cknlab.radial_ode import (
    Classification,
    decay_horizon,
    match_bubble,
    radial_rigidity_sweep,
    series_start,
    shoot,
)

from conftest import SWEEP_TRIPLES


class TestShoot:
    def test_profile_matches_closed_form(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, c0)
        assert profile.classification is Classification.DECAYS_LIKE_BUBBLE
        exact = bubble_cylinder_values(ps_n6, profile.s)
        assert np.max(np.abs(profile.w / exact - 1.0)) < 1e-6

    def test_sobolev_long_range(self, ps_sobolev3):
        # n = 3 decays slowly; the horizon reaches s = 1e3
        c0 = cylinder_amplitude(ps_sobolev3)
        profile = shoot(ps_sobolev3, c0, s_max=1e3)
        exact = bubble_cylinder_values(ps_sobolev3, profile.s)
        assert profile.s[-1] > 990.0
        assert np.max(np.abs(profile.w / exact - 1.0)) < 1e-6

    def test_derivative_consistency(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, c0)
        s = profile.s
        exact_dw = -c0 * (ps_n6.n - 2.0) * s * (1.0 + s**2) ** (-ps_n6.n / 2.0)
        mask = np.abs(exact_dw) > 1e-8 * c0
        rel = np.abs(profile.w_prime[mask] / exact_dw[mask] - 1.0)
        assert rel.max() < 1e-4

    def test_series_start_consistency_order(self, ps_n6):
        # |numeric - two-term series| = O(s^4), measured where the s^4 term
        # is resolvable above the integrator tolerance
        c0 = cylinder_amplitude(ps_n6)
        s_eval = np.logspace(-2.3, -1.3, 10)
        profile = shoot(ps_n6, c0, rtol=1e-13, s_eval=s_eval)
        series = np.array([series_start(ps_n6, c0, s)[0] for s in profile.s])
        diff = np.abs(profile.w - series)
        slope = fit_loglog(profile.s, diff).slope
        assert slope >= 3.8

    def test_energy_monotone_along_profile(self, ps_n6):
        # E = alpha^2 w'^2 / 2 + w^p / p satisfies E' = -alpha^2 (n-1) w'^2 / s
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, 1.7 * c0)
        E = (0.5 * ps_n6.alpha**2 * profile.w_prime**2
             + profile.w**ps_n6.p_exp / ps_n6.p_exp)
        assert np.all(np.diff(E) <= 1e-12 * E[0])

    def test_horizon_at_or_below_series_start_is_refused(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        for s_max in (1e-9, radial_ode.SERIES_START, float("nan")):
            with pytest.raises(ValueError, match="s_max"):
                shoot(ps_n6, c0, s_max=s_max)

    def test_horizon_scales_with_amplitude(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        assert decay_horizon(ps_n6, c0) > decay_horizon(ps_n6, 4.0 * c0)

    def test_touch_guard_ends_integration_at_numeric_floor(self, ps_n6):
        # forcing the horizon past the decay range trips the TouchesZero rail
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, c0, s_max=5e3)
        assert profile.classification is Classification.TOUCHES_ZERO
        assert profile.w[-1] <= 1.01e-12 * c0

    def test_rejects_nonpositive_amplitude(self, ps_n6):
        with pytest.raises(ValueError):
            shoot(ps_n6, -1.0)

    def test_rejects_p2_edge(self):
        with pytest.raises(SubcriticalRange):
            shoot(derive_params(-1.0, 0.0, 3), 1.0)


class TestMatchBubble:
    def test_identity_fit_at_c0(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        m = match_bubble(shoot(ps_n6, c0))
        assert abs(m.lambda_fit - 1.0) < 1e-8
        assert m.sup_rel_error < 1e-6

    def test_doubled_amplitude_lambda(self, ps_n6):
        # w0 = 2 c0 corresponds to lambda = 2^(1/kappa)
        m = match_bubble(shoot(ps_n6, 2.0 * cylinder_amplitude(ps_n6)))
        assert abs(m.lambda_fit - 2.0 ** (1.0 / ps_n6.kappa)) < 1e-6
        assert m.sup_rel_error < 1e-6

    def test_amplitude_family(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        for factor in (0.3, 0.5, 2.0, 5.0):
            m = match_bubble(shoot(ps_n6, factor * c0))
            assert m.sup_rel_error < 1e-6

    def test_not_decaying_raises(self, ps_n6):
        profile = shoot(ps_n6, cylinder_amplitude(ps_n6))
        broken = type(profile)(
            ps=profile.ps, w0=profile.w0, s=profile.s, w=profile.w,
            w_prime=profile.w_prime, classification=Classification.BLOWS_UP,
        )
        with pytest.raises(NotDecaying):
            match_bubble(broken)


class TestSweep:
    @pytest.mark.parametrize("triple", SWEEP_TRIPLES)
    def test_all_amplitudes_match(self, triple):
        ps = derive_params(*triple)
        report = radial_rigidity_sweep(ps)
        assert report.all_matched
        assert len(report.entries) == 10
        assert all(e.classification == "DecaysLikeBubble" for e in report.entries)

    def test_symmetry_breaking_regime_still_matches(self):
        # radial rigidity is blind to the angular regime; the report keeps
        # the flag for context
        ps = derive_params(-1.0, -1.0 / 3.0, 2)  # alpha above threshold
        report = radial_rigidity_sweep(ps, w0_grid=cylinder_amplitude(ps)
                                       * np.array([0.5, 1.0, 2.0]))
        assert report.regime == "SymmetryBreaking"
        assert report.all_matched

    def test_report_dict_shape(self, ps_n6):
        report = radial_rigidity_sweep(ps_n6, w0_grid=[cylinder_amplitude(ps_n6)])
        d = report.to_dict()
        assert d["matched"] == "1/1"
        assert d["entries"][0]["classification"] == "DecaysLikeBubble"
        assert d["all_matched"] is True


class TestScipyForwarders:
    def test_solve_ivp_matches_scipy(self):
        args = (lambda t, y: -y, (0.0, 2.0), [1.0])
        ours = radial_ode.solve_ivp(*args, method="DOP853", rtol=1e-10, atol=1e-12)
        ref = scipy.integrate.solve_ivp(*args, method="DOP853", rtol=1e-10, atol=1e-12)
        assert type(ours) is type(ref) and ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
        assert abs(ours.y[0, -1] - np.exp(-2.0)) < 1e-9

    def test_minimize_scalar_matches_scipy(self):
        kwargs = dict(bracket=(0.0, 1.0, 3.0), method="brent", options={"xtol": 1e-14})
        ours = radial_ode.minimize_scalar(lambda x: (x - 1.5) ** 2, **kwargs)
        ref = scipy.optimize.minimize_scalar(lambda x: (x - 1.5) ** 2, **kwargs)
        assert ours.x == ref.x and ours.nfev == ref.nfev
