import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cknlab import radial_ode
from cknlab.bubble import bubble_cylinder_values, cylinder_amplitude
from cknlab.errors import AdmissibilityError, CknLabError
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
        # |numeric - two-term series| = O(s^4), measured on the solver's own
        # nodes where the s^4 term is resolvable above the integrator tolerance
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, c0, rtol=1e-13)
        window = (profile.s >= 10**-2.3) & (profile.s <= 10**-1.3)
        s = profile.s[window]
        assert s.size >= 10
        series = np.array([series_start(ps_n6, c0, si)[0] for si in s])
        diff = np.abs(profile.w[window] - series)
        slope = fit_loglog(s, diff)
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
        # 1.0000000000000002e-06 is above the start, but its log rounds to the start's
        for s_max in (1e-9, radial_ode.SERIES_START, 1.0000000000000002e-06, float("nan")):
            with pytest.raises(ValueError, match="s_max"):
                shoot(ps_n6, c0, s_max=s_max)

    def test_horizon_scales_with_amplitude(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        assert decay_horizon(ps_n6, c0) > decay_horizon(ps_n6, 4.0 * c0)

    def test_horizon_refused_where_the_scale_underflows(self):
        # n = 2.017, w0 = 1e-3 c0: mu = (w0/c0)^(2/(n-2)) rounds to 0, so the
        # horizon 10^(5/(n-2))/mu is past double precision
        ps = derive_params(-0.5, -0.5 + 1.0 - 2.0 / 2.017, 2)
        w0 = 1e-3 * cylinder_amplitude(ps)
        assert radial_ode.family_scale(ps, w0) == 0.0
        with pytest.raises(CknLabError, match="decay horizon"):
            decay_horizon(ps, w0)
        with pytest.raises(CknLabError, match="decay horizon"):
            shoot(ps, w0)

    def test_touch_guard_ends_integration_at_numeric_floor(self, ps_n6):
        # forcing the horizon past the decay range trips the TouchesZero rail
        c0 = cylinder_amplitude(ps_n6)
        profile = shoot(ps_n6, c0, s_max=5e3)
        assert profile.classification is Classification.TOUCHES_ZERO
        assert profile.w[-1] <= 1.01e-12 * c0

    def test_rejects_nonpositive_amplitude(self, ps_n6):
        with pytest.raises(ValueError):
            shoot(ps_n6, -1.0)

    def test_rejects_an_amplitude_whose_absolute_tolerance_underflows(self, ps_n6):
        # the stepper divides by its absolute tolerance 1e-20 w0, which is 0 here
        with pytest.raises(ValueError, match=r"with 1e-20 w0 above 0: got 1e-305"):
            shoot(ps_n6, 1e-305)

    def test_step_ceiling_is_a_named_failure(self, ps_n6, monkeypatch):
        c0 = cylinder_amplitude(ps_n6)
        steps = len(shoot(ps_n6, c0).s) - 1
        monkeypatch.setattr(radial_ode, "MAX_SHOT_STEPS", steps - 1)
        with pytest.raises(CknLabError, match=rf"w0 = 6 reached its ceiling of {steps - 1} "
                                              r"steps at s = .*\(alpha = 0\.5\)"):
            shoot(ps_n6, c0)
        monkeypatch.setattr(radial_ode, "MAX_SHOT_STEPS", steps)
        assert len(shoot(ps_n6, c0).s) == steps + 1   # a shot of exactly the ceiling ends

    def test_rejects_p2_edge(self):
        with pytest.raises(AdmissibilityError, match="shooting needs p > 2"):
            shoot(derive_params(-1.0, 0.0, 3), 1.0)

    def test_sweep_rejects_p2_edge(self):
        # b - a = 1: the sweep's amplitude grid reads c0, which has no value at p = 2
        with pytest.raises(AdmissibilityError, match="the bubble amplitude c0 needs p > 2"):
            radial_rigidity_sweep(derive_params(0.0, 1.0, 3))


def _solve_ivp_shot(ps, w0, s_max, rtol):
    """The shot as `solve_ivp` takes it: the oracle for `shoot`'s own step loop.

    Same RHS, DOP853, tolerances and TouchesZero rail, plus the BlowsUp rail
    that `shoot` dropped because w never exceeds w0.
    """
    if s_max is None:
        s_max = decay_horizon(ps, w0)
    n, alpha, p = ps.n, ps.alpha, ps.p_exp

    def rhs(t, y):
        w, v = y
        wp = max(w, 0.0) ** (p - 1.0)
        return (v, -(n - 2.0) * v - math.exp(2.0 * t) * wp / alpha**2)

    def blow_up(t, y):
        return y[0] - 1e6 * w0

    def touch_zero(t, y):
        return y[0] - radial_ode.TOUCH_FACTOR * w0

    blow_up.terminal = True
    blow_up.direction = 1.0
    touch_zero.terminal = True
    touch_zero.direction = -1.0
    s0 = radial_ode.SERIES_START
    w_start, wp_start = series_start(ps, w0, s0)
    sol = radial_ode.solve_ivp(
        rhs, (math.log(s0), math.log(s_max)), [w_start, s0 * wp_start],
        method="DOP853", rtol=rtol, atol=1e-20 * w0, events=(blow_up, touch_zero),
    )
    assert sol.status in (0, 1) and not len(sol.t_events[0])
    cls = Classification.TOUCHES_ZERO if sol.status == 1 else Classification.DECAYS_LIKE_BUBBLE
    return sol.t, sol.y[0], sol.y[1], cls


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def _admissible_p_above_2(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    a_c = (d - 2) / 2.0
    a = draw(st.floats(min_value=a_c - 2.0, max_value=a_c - 0.05))
    gap = draw(st.floats(min_value=0.1 if d == 2 else 0.0, max_value=0.9))
    return derive_params(a, a + gap, d)


def _assert_same_shot(ps, w0, s_max, rtol):
    """Returns the shared classification, or None where `shoot` refuses a series start
    at or below the touch floor, from which the TouchesZero crossing cannot fire.

    Every sample has `solve_ivp`'s bits except a TouchesZero shot's last one:
    `shoot` bisects its own step's length to the floor, where `solve_ivp` runs
    `brentq` on its dense output.  That sample agrees with the terminal event to
    10 max(rtol, 1e-10) in t (relative to max(1, |t|)) and in dw/dt.  Its w is at
    or below the floor, by at most 1e-13 of the floor or 16 eps of the w before
    it, whichever is larger: the step from that w resolves no finer.
    """
    s0 = radial_ode.SERIES_START
    w_start = series_start(ps, w0, s0)[0]
    if not w_start > radial_ode.TOUCH_FACTOR * w0:
        with pytest.raises(CknLabError,
                           match=re.escape(f"series start w({s0:g}) = {w_start:.6g} ")):
            shoot(ps, w0, s_max=s_max, rtol=rtol)
        return None
    t, w, v, cls = _solve_ivp_shot(ps, w0, s_max, rtol)
    s = np.exp(t)
    profile = shoot(ps, w0, s_max=s_max, rtol=rtol)
    assert profile.classification is cls
    assert profile.s.size == s.size
    touches = cls is Classification.TOUCHES_ZERO
    stepped = slice(-1 if touches else None)
    for ours, ref in ((profile.s, s), (profile.w, w), (profile.w_prime, v / s)):
        assert np.array_equal(_bits(ours[stepped]), _bits(ref[stepped]))
    if touches:
        tol = 10 * max(rtol, 1e-10)
        assert abs(math.log(profile.s[-1]) - t[-1]) <= tol * max(1.0, abs(t[-1]))
        assert abs(profile.w_prime[-1] * profile.s[-1] - v[-1]) <= tol * abs(v[-1])
        floor = radial_ode.TOUCH_FACTOR * w0
        assert profile.w[-1] <= floor
        assert floor - profile.w[-1] <= max(1e-13 * floor, 16 * radial_ode.EPS * profile.w[-2])
    return cls


class TestShootBitwise:
    @settings(max_examples=20, deadline=None)
    @given(ps=_admissible_p_above_2(),
           u=st.floats(min_value=-3.0, max_value=3.0),
           s_max=st.sampled_from([None, 5.0, 1e2, 1e3, 5e3]),
           rtol=st.sampled_from([1e-8, 1e-10, 1e-13]))
    # p = 16: the two-term series is already negative at s0 (w = -170)
    @example(ps=derive_params(-1.0, -0.875, 2), u=1.0, s_max=None, rtol=1e-10)
    # p = 9.47: one step falls from w = 4.3 to the floor 3.8e-11, so the last w
    # is resolved to about eps * 4.3 (here 1.8e-5 of the floor), not to 1e-13 of it
    @example(ps=derive_params(-0.12909426613971053, 0.08220666107746624, 2), u=1.65,
             s_max=None, rtol=1e-10)
    def test_same_bits_as_solve_ivp(self, ps, u, s_max, rtol):
        _assert_same_shot(ps, cylinder_amplitude(ps) * 10.0**u, s_max, rtol)

    def test_pinned_touches_zero(self, ps_n6):
        # the shot of `ckn-lab shoot --a -0.5 --b 0 --d 3 --w0 100`: the rail trips
        assert _assert_same_shot(ps_n6, 100.0, 1e3, 1e-10) is Classification.TOUCHES_ZERO


class TestDop853Tableau:
    def test_copied_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        from scipy.integrate._ivp import rk

        n = ref.N_STAGES
        A = np.zeros((n, n))
        for s, row in enumerate(radial_ode.DOP853_A):
            A[s, :s] = row
        assert all(len(row) == s for s, row in enumerate(radial_ode.DOP853_A))
        assert np.array_equal(A, ref.A[:n, :n])
        assert np.array_equal(radial_ode.DOP853_B, ref.B)
        assert np.array_equal(radial_ode.DOP853_C, ref.C[:n])
        assert np.array_equal(radial_ode.DOP853_E3, ref.E3)
        assert np.array_equal(radial_ode.DOP853_E5, ref.E5)
        assert (radial_ode.SAFETY, radial_ode.MIN_FACTOR, radial_ode.MAX_FACTOR) == (
            rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
        assert radial_ode.ERROR_EXPONENT == -1 / (scipy.integrate.DOP853.error_estimator_order + 1)


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
            w_prime=profile.w_prime, classification=Classification.TOUCHES_ZERO,
        )
        with pytest.raises(CknLabError, match="profile classified TouchesZero"):
            match_bubble(broken)

    def test_bracket_without_a_low_middle_is_a_named_failure(self, ps_n6):
        # the profile is the c0 extremal (mu = 1), but w0 claims mu0 = 100, so
        # the bracket log mu0 +- log 4 is lowest at its left end
        c0 = cylinder_amplitude(ps_n6)
        profile = dataclasses.replace(shoot(ps_n6, c0), w0=1e4 * c0)
        with pytest.raises(CknLabError, match=r"w0 = 60000 .*\(3\.21888, 4\.60517, "
                                              r"5\.99146\).*f\(xb\) < f\(xa\)"):
            match_bubble(profile)

    def test_scale_outside_double_range_is_a_named_failure(self, ps_n6):
        # at alpha = 1e-7 the scale exp(log mu / alpha) overflows over the whole
        # bracket; math.exp would raise OverflowError, not a named failure
        profile = shoot(ps_n6, cylinder_amplitude(ps_n6))
        tiny = dataclasses.replace(profile, ps=dataclasses.replace(ps_n6, alpha=1e-7))
        with pytest.raises(CknLabError, match=r"w0 = 6 leaves double range: its scale lambda = "
                                              r"exp\(log mu / alpha\) spans exp\(1\.40387e\+08\) "
                                              r"to exp\(1\.68112e\+08\) at alpha = 1e-07"):
            match_bubble(tiny)


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

    def test_unfittable_scale_refused_before_any_shot(self, monkeypatch):
        # alpha = 9.2e-16: at every amplitude the scale exp(log mu / alpha) leaves
        # double range, and the first shot alone took 850k steps before the fit said so
        def no_shot(*args, **kwargs):
            raise AssertionError("the sweep shot before it checked the scales")

        monkeypatch.setattr(radial_ode, "shoot", no_shot)
        ps = derive_params(0.9999999999999805, 1.9102589678976916, 4)
        with pytest.raises(CknLabError, match=r"its scale lambda = exp\(log mu / alpha\) spans"):
            radial_rigidity_sweep(ps)

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

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_minimize_scalar_matches_scipy(self, data):
        name = data.draw(st.sampled_from(sorted(_OBJECTIVES)))
        c = data.draw(st.floats(min_value=-5.0, max_value=5.0))
        fun = _OBJECTIVES[name](c)
        bracket = data.draw(st.one_of(_low_middle_bracket(c), _low_middle_bracket(c),
                                      _any_bracket(c)))
        xtol = data.draw(st.sampled_from([1e-14, 1.48e-8, 1e-3, 0.0]))
        try:
            ref = scipy.optimize.minimize_scalar(fun, bracket=bracket, method="brent",
                                                 options={"xtol": xtol})
        except ValueError as exc:
            with pytest.raises(ValueError) as ours:
                radial_ode.minimize_scalar(fun, bracket, xtol=xtol)
            assert str(ours.value) == str(exc)
            event("scipy raises")
            return
        ours = radial_ode.minimize_scalar(fun, bracket, xtol=xtol)
        assert float(ours.x).hex() == float(ref.x).hex()
        assert float(ours.fun).hex() == float(ref.fun).hex()
        assert (ours.nit, ours.nfev) == (ref.nit, ref.nfev)
        event(f"converges ({name})")

    def test_minimize_scalar_refuses_a_negative_tolerance_as_scipy(self):
        kwargs = dict(bracket=(0.0, 1.0, 3.0), method="brent", options={"xtol": -1.0})
        with pytest.raises(ValueError) as ref:
            scipy.optimize.minimize_scalar(lambda x: (x - 1.5) ** 2, **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            radial_ode.minimize_scalar(lambda x: (x - 1.5) ** 2, (0.0, 1.0, 3.0), xtol=-1.0)


# Objectives of the Brent differential test, by minimizer c: smooth, flat,
# kinked, wavy (several local minima), flat-bottomed (ties) and numpy-valued.
_OBJECTIVES = {
    "quadratic": lambda c: lambda x: (x - c) ** 2,
    "quartic": lambda c: lambda x: (x - c) ** 4,
    "kink": lambda c: lambda x: abs(x - c),
    "wavy": lambda c: lambda x: (x - c) ** 2 + 0.3 * math.sin(7.0 * x),
    "plateau": lambda c: lambda x: max(abs(x - c), 0.5),
    "numpy": lambda c: lambda x: float(np.mean(np.log1p((x - c + np.arange(3.0)) ** 2))),
}


def _any_bracket(c):
    offset = st.floats(min_value=-6.0, max_value=6.0)
    return st.tuples(offset, offset, offset).map(lambda o: tuple(c + t for t in o))


@st.composite
def _low_middle_bracket(draw, c):
    """(xa, xb, xc) around c with xb nearest c, in either orientation."""
    left = draw(st.floats(min_value=1e-3, max_value=6.0))
    right = draw(st.floats(min_value=1e-3, max_value=6.0))
    middle = draw(st.floats(min_value=-0.99, max_value=0.99)) * min(left, right)
    bracket = (c - left, c + middle, c + right)
    return bracket[::-1] if draw(st.booleans()) else bracket
