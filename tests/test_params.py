import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.bubble import cylinder_amplitude
from cknlab.errors import AmplitudeOverflow, ConstraintAB, ConstraintAC, SubcriticalRange
from cknlab.params import (
    Regime,
    applicable_results,
    decay_thresholds,
    derive_params,
)
from cknlab.reporting import json_text


def admissible_triples():
    """Admissible (a, b, d) away from the p = 2 edge, where the two exponent
    routes lose digits to the cancellation in n - 2."""
    return st.tuples(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=-3.0, max_value=0.4),      # a_c - a offset below
        st.floats(min_value=0.05, max_value=0.9),      # b - a
    ).map(lambda t: ((t[0] - 2) / 2 - 0.05 - abs(t[1]), t[2], t[0])).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    )


class TestDeriveParams:
    def test_sobolev_d4(self):
        ps = derive_params(0.0, 0.0, 4)
        assert ps.a_c == 1.0
        assert ps.p_exp == 4.0
        assert ps.alpha == 1.0
        assert ps.n == 4.0
        assert ps.fs_threshold == 1.0
        assert ps.regime is Regime.SYMMETRIC  # boundary equality

    def test_hand_computed_case(self):
        ps = derive_params(-0.5, 0.0, 3)
        assert ps.a_c == 0.5
        assert abs(ps.p_exp - 3.0) < 1e-14
        assert abs(ps.alpha - 0.5) < 1e-14
        assert abs(ps.n - 6.0) < 1e-13
        assert abs(ps.fs_threshold - math.sqrt(0.4)) < 1e-14
        assert ps.regime is Regime.SYMMETRIC
        assert ps.kappa == 1.0

    def test_a_equal_ac_rejected(self):
        with pytest.raises(ConstraintAC):
            derive_params(0.5, 0.6, 3)

    def test_d2_requires_strict_ab(self):
        with pytest.raises(ConstraintAB):
            derive_params(0.0, 0.0, 2)

    def test_b_out_of_range(self):
        with pytest.raises(ConstraintAB):
            derive_params(0.0, 1.5, 4)
        with pytest.raises(ConstraintAB):
            derive_params(0.0, -0.1, 4)

    def test_d_below_two(self):
        with pytest.raises(ValueError):
            derive_params(-1.0, 0.0, 1)

    def test_non_integral_d_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            derive_params(-0.5, 0.0, 3.5)
        assert derive_params(-0.5, 0.0, 3.0) == derive_params(-0.5, 0.0, 3)

    def test_numpy_scalars_derive_python_floats(self):
        # a numpy scalar would carry into p, n and alpha, where an overflow
        # becomes inf with a RuntimeWarning instead of AmplitudeOverflow
        ps = derive_params(np.float64(0.2719), np.float64(0.2719 + 0.99496), np.int64(6))
        assert ps == derive_params(0.2719, 0.2719 + 0.99496, 6)
        assert all(type(x) is float for x in (ps.a, ps.b, ps.p_exp, ps.alpha, ps.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AmplitudeOverflow):
                cylinder_amplitude(derive_params(np.float64(0.2719), 0.2719 + 0.99496, 6))

    def test_hardy_edge_p2(self):
        ps = derive_params(-1.0, 0.0, 3)  # b = a + 1
        assert ps.p_exp == 2.0
        assert math.isinf(ps.n)
        assert ps.alpha == 0.0
        with pytest.raises(SubcriticalRange):
            derive_params(-1.0, 0.0, 3, strict_subcritical=True)

    def test_critical_edge_p2star(self):
        ps = derive_params(0.0, 0.0, 3)
        assert ps.p_exp == 6.0
        with pytest.raises(SubcriticalRange):
            derive_params(0.0, 0.0, 3, strict_subcritical=True)

    def test_d2_has_no_upper_endpoint(self):
        ps = derive_params(-0.3, 0.2, 2, strict_subcritical=True)
        assert ps.p_exp == 4.0

    def test_d2_near_the_p_infinity_edge(self):
        # b - a -> 0 with d = 2 sends p and n/(n-2) to infinity: 2n/(n-2) then
        # carries the rounding of n amplified by 2/(n-2), which is no inconsistency
        for gap in (1e-5, 1e-7, 1e-9, 1e-11):
            ps = derive_params(-0.1, -0.1 + gap, 2, strict_subcritical=True)
            assert abs(ps.p_exp * (ps.b - ps.a) - 2.0) < 1e-12

    @settings(max_examples=200)
    @given(admissible_triples())
    def test_invariants_on_admissible_triples(self, triple):
        a, b, d = triple
        ps = derive_params(a, b, d)
        # both exponent routes agree
        assert abs(ps.p_exp - 2 * ps.n / (ps.n - 2)) <= 1e-14 * ps.p_exp
        assert ps.n >= ps.d - 1e-12
        if b == a:
            assert abs(ps.n - ps.d) < 1e-12
        assert 2.0 < ps.p_exp
        if d >= 3:
            assert ps.p_exp <= 2.0 * d / (d - 2) + 1e-12
        # regime stable under re-derivation
        again = derive_params(ps.a, ps.b, ps.d)
        assert again.regime is ps.regime
        assert again == ps

    def test_alpha_affine_in_a_with_fixed_gap(self, rng):
        # with d and b-a fixed, n is constant and alpha is affine in a
        for _ in range(100):
            d = int(rng.integers(2, 7))
            gap = float(rng.uniform(0.05, 0.9))
            a_c = (d - 2) / 2
            a_vals = a_c - 0.1 - np.sort(rng.uniform(0.0, 2.0, size=3))[::-1]
            trip = [derive_params(float(a), float(a) + gap, d) for a in a_vals]
            assert max(abs(t.n - trip[0].n) for t in trip) < 1e-12 * trip[0].n
            slopes = np.diff([t.alpha for t in trip]) / np.diff(a_vals)
            assert abs(slopes[0] - slopes[1]) < 1e-9 * abs(slopes[0])

    def test_sobolev_limit_alpha(self):
        # a = b: alpha = (a_c - a)/a_c, continuous to 1 as a -> 0
        for a in (-1e-6, -1e-9):
            ps = derive_params(a, a, 4)
            assert abs(ps.alpha - 1.0) < 1e-5


class TestSerialization:
    def test_flat_json_field_names(self):
        ps = derive_params(-0.5, 0.0, 3)
        obj = json.loads(json_text(ps.to_dict()))
        assert set(obj) == {
            "a", "b", "d", "a_c", "p_exp", "alpha", "n",
            "fs_threshold", "regime", "kappa",
        }
        assert obj["regime"] == "Symmetric"
        assert obj["n"] == 6.0

    def test_infinite_n_serializes(self):
        obj = json.loads(json_text(derive_params(-1.0, 0.0, 3).to_dict()))
        assert obj["n"] == "inf"


class TestDecayThresholds:
    def test_n6_bounded_suffices(self):
        thr = decay_thresholds(derive_params(-0.5, 0.0, 3))
        assert thr.sigma_star == 0.0
        assert thr.finite_energy_sigma == -2.0

    def test_n8_hand_value(self):
        ps = derive_params(-0.7, -0.075, 3)  # n = 8
        thr = decay_thresholds(ps)
        assert abs(thr.sigma_star - (-1.5)) < 1e-12
        assert abs(thr.finite_energy_sigma - (-3.0)) < 1e-12
        assert thr.sigma_star > thr.finite_energy_sigma

    def test_low_n_needs_no_decay(self):
        thr = decay_thresholds(derive_params(0.0, 0.0, 3))  # n = 3
        assert math.isinf(thr.sigma_star)

    def test_blowup_toward_four(self):
        ps = derive_params(-0.3, -0.3 + 1 - 4 / 4.001, 4)  # n just above 4
        assert decay_thresholds(ps).sigma_star > 100.0

    @settings(max_examples=100)
    @given(st.floats(min_value=4.01, max_value=50.0))
    def test_strictly_above_finite_energy_rate(self, n):
        sigma_star = -(n - 2) * (n - 6) / (2 * (n - 4))
        assert sigma_star > -(n - 2) / 2


class TestApplicableResults:
    def test_low_dim_only(self):
        ps = derive_params(-0.3, -0.3 + 1.0 / 3.0, 2)  # n = 3, d = 2
        assert applicable_results(ps, observed_sigma=None) == ["low_dim"]

    def test_decay_only_at_n6(self, ps_n6):
        assert applicable_results(ps_n6, observed_sigma=-0.1) == ["decay"]

    def test_symmetry_breaking_empty(self):
        ps = derive_params(-1.0, -1.0 / 3.0, 2)  # n = 6, alpha = 0.5 > threshold
        assert ps.regime is Regime.SYMMETRY_BREAKING
        assert applicable_results(ps, observed_sigma=0.0, finite_energy=True) == []

    def test_bounded_fires_at_sigma_zero(self, ps_n6):
        assert applicable_results(ps_n6, observed_sigma=0.0) == ["bounded"]

    def test_strong_decay_stacks_results(self):
        ps = derive_params(-0.7, -0.075, 3)  # n = 8
        tags = applicable_results(ps, observed_sigma=-3.5, finite_energy=True)
        assert tags == ["decay", "finite_energy", "natural_decay"]

    def test_critical_exponent_edge_excluded(self):
        ps = derive_params(0.0, 0.0, 3)  # p = 2*, theorems need the open range
        assert applicable_results(ps, observed_sigma=0.0, finite_energy=True) == []
