import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.bubble import cylinder_amplitude
from cknlab.errors import AdmissibilityError, CknLabError
from cknlab.params import Regime, derive_params
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
        with pytest.raises(AdmissibilityError, match="requires a < a_c"):
            derive_params(0.5, 0.6, 3)

    def test_d2_requires_strict_ab(self):
        with pytest.raises(AdmissibilityError, match="requires a < b <= a\\+1 for d = 2"):
            derive_params(0.0, 0.0, 2)

    def test_b_out_of_range(self):
        with pytest.raises(AdmissibilityError, match="requires a <= b <= a\\+1 for d >= 3"):
            derive_params(0.0, 1.5, 4)
        with pytest.raises(AdmissibilityError, match="requires a <= b <= a\\+1 for d >= 3"):
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
        # becomes inf with a RuntimeWarning instead of the named overflow
        ps = derive_params(np.float64(0.2719), np.float64(0.2719 + 0.99496), np.int64(6))
        assert ps == derive_params(0.2719, 0.2719 + 0.99496, 6)
        assert all(type(x) is float for x in (ps.a, ps.b, ps.p_exp, ps.alpha, ps.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CknLabError, match="the bubble amplitude c0 = .* overflows"):
                cylinder_amplitude(derive_params(np.float64(0.2719), 0.2719 + 0.99496, 6))

    def test_hardy_edge_p2(self):
        ps = derive_params(-1.0, 0.0, 3)  # b = a + 1
        assert ps.p_exp == 2.0
        assert math.isinf(ps.n)
        assert ps.alpha == 0.0
        with pytest.raises(AdmissibilityError, match="requires p strictly inside"):
            derive_params(-1.0, 0.0, 3, strict_subcritical=True)

    def test_critical_edge_p2star(self):
        ps = derive_params(0.0, 0.0, 3)
        assert ps.p_exp == 6.0
        with pytest.raises(AdmissibilityError, match="requires p strictly inside"):
            derive_params(0.0, 0.0, 3, strict_subcritical=True)

    def test_d2_has_no_upper_endpoint(self):
        ps = derive_params(-0.3, 0.2, 2, strict_subcritical=True)
        assert ps.p_exp == 4.0

    # alpha = kappa (1+a-b)/(kappa+b) with kappa = -a at d = 2: alpha^2 is 0 or subnormal
    @pytest.mark.parametrize("a, b", [(-5e-324, 0.6957103159070795), (-1e-200, 0.5),
                                      (-1e-154, 0.5)])
    def test_alpha_whose_square_is_not_normal_refused(self, a, b):
        with pytest.raises(AdmissibilityError, match="has a square below the smallest normal"):
            derive_params(a, b, 2)

    def test_alpha_whose_square_is_normal_admitted(self):
        assert derive_params(-1e-153, 0.5, 2).alpha ** 2 >= sys.float_info.min

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
