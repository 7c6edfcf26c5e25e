import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import spectral
from cknlab.bubble import cylinder_amplitude
from cknlab.errors import AdmissibilityError, CknLabError
from cknlab.fitting import fit_loglog
from cknlab.params import alpha_bracket, derive_params, felli_schneider_threshold
from cknlab.spectral import (
    BISECT_TOL,
    build_sector_operator,
    converged_lowest_eigenvalue,
    default_domain,
    fs_crossing,
    lowest_eigenvalue,
    lowest_tridiagonal_eigenvalue,
    path_params,
    sector_potential,
    soliton_profile,
    tridiagonal_is_positive,
    zero_mode_eigenvalue,
)
from cknlab.verify import SPECTRUM_CROSSING_PAIRS, run_spectrum_suite


class TestSolitonProfile:
    def test_center_value(self, ps_n6):
        c0 = cylinder_amplitude(ps_n6)
        expected = c0 * 2.0 ** (-(ps_n6.n - 2.0) / 2.0)
        assert abs(soliton_profile(ps_n6, 0.0) - expected) < 1e-13

    def test_even_symmetry(self, ps_n6):
        t = np.linspace(0.1, 8.0, 50)
        assert np.max(np.abs(soliton_profile(ps_n6, t)
                             - soliton_profile(ps_n6, -t))) == 0.0

    def test_tail_rate_and_amplitude(self, ps_n6):
        t = np.linspace(6.0, 14.0, 60)
        v = soliton_profile(ps_n6, t)
        slope = fit_loglog(np.exp(t), v)
        assert abs(slope + (ps_n6.n - 2.0) / 2.0) < 1e-3
        # v* e^(Lambda |t|) -> c0
        amp = v[-1] * math.exp((ps_n6.n - 2.0) / 2.0 * t[-1])
        assert abs(amp / cylinder_amplitude(ps_n6) - 1.0) < 1e-10

    def test_overflowing_cosh_keeps_the_closed_form(self):
        # n = 2.05: the domain reaches |t| = 800, past cosh's overflow at |t| ~ 710
        ps = path_params(2, 2.05, 0.9)
        T = default_domain(ps)
        t = np.concatenate([np.linspace(-T, T, 81), [710.0, -710.0]])  # cosh finite, 2 cosh not
        Lambda = (ps.n - 2.0) / 2.0
        expected = cylinder_amplitude(ps) * np.exp(-Lambda * np.logaddexp(t, -t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = soliton_profile(ps, t)
            v_end = soliton_profile(ps, T)
        assert T > 800.0
        assert np.max(np.abs(v / expected - 1.0)) < 1e-12
        assert v_end == v[80] > 0.0

    def test_transforms_back_to_cylinder_bubble(self, ps_n6):
        # w(s) = s^(-Lambda) v*(ln s) is exactly c0 (1+s^2)^(-(n-2)/2)
        from cknlab.bubble import bubble_cylinder_values
        s = np.logspace(-3, 3, 500)
        Lambda = (ps_n6.n - 2.0) / 2.0
        w = s ** (-Lambda) * soliton_profile(ps_n6, np.log(s))
        assert np.max(np.abs(w / bubble_cylinder_values(ps_n6, s) - 1.0)) < 1e-12

    def test_potential_tends_to_plateau(self, ps_n6):
        Lambda = (ps_n6.n - 2.0) / 2.0
        plateau = ps_n6.alpha**2 * Lambda**2
        V = sector_potential(ps_n6, 0, np.array([default_domain(ps_n6)]))
        assert abs(V[0] - plateau) < 1e-7


class TestEigenvalues:
    def test_zero_mode_every_tested_set(self):
        for trip in [(-0.5, 0.0, 3), (-0.4, 0.1, 2), (-0.25, 0.15, 3)]:
            est = zero_mode_eigenvalue(derive_params(*trip))
            assert abs(est.value) < 1e-6

    def test_k0_ground_state_closed_form(self, ps_n6):
        # sech^2 well with S = n/2: ground level -alpha^2 (n-1)
        est = converged_lowest_eigenvalue(ps_n6, k=0)
        expected = -ps_n6.alpha**2 * (ps_n6.n - 1.0)
        assert abs(est.value - expected) < 1e-7 * abs(expected)

    def test_k1_bottom_closed_form(self, ps_n6):
        est = converged_lowest_eigenvalue(ps_n6, k=1)
        expected = (ps_n6.d - 1.0) - ps_n6.alpha**2 * (ps_n6.n - 1.0)
        assert abs(est.value - expected) < 1e-6

    def test_sector_monotonicity(self, ps_n6):
        vals = [lowest_eigenvalue(build_sector_operator(ps_n6, k)) for k in range(4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_below_threshold_stable_above_unstable(self):
        below = path_params(3, 6.0, 0.45)
        above = path_params(3, 6.0, 0.85)
        assert lowest_eigenvalue(build_sector_operator(below, 1)) > 0.0
        assert lowest_eigenvalue(build_sector_operator(above, 1)) < 0.0


class TestPathParams:
    def test_d3_n6_path_algebra(self):
        ps = path_params(3, 6.0, math.sqrt(0.4))
        assert abs(ps.a - (-0.7649110640673518)) < 1e-10
        assert abs(ps.b - (ps.a + 0.5)) < 1e-14
        assert abs(ps.n - 6.0) < 1e-12
        assert abs(ps.alpha - math.sqrt(0.4)) < 1e-12

    def test_d2_n4_path_is_alpha_equals_minus_a(self):
        ps = path_params(2, 4.0, 0.5)
        assert abs(ps.a + 0.5) < 1e-13
        assert abs(ps.b - (ps.a + 0.5)) < 1e-14


class TestFsCrossing:
    def test_d3_n6_within_one_percent(self):
        crossing = fs_crossing(3, 6.0)
        assert abs(crossing.alpha_star_formula - math.sqrt(0.4)) < 1e-14
        assert crossing.relative_gap < 0.01
        assert abs(crossing.a_at_crossing - (-0.7649110640673518)) < 1e-3

    def test_d2_n4_within_one_percent(self):
        crossing = fs_crossing(2, 4.0)
        assert abs(crossing.alpha_star_formula - math.sqrt(1.0 / 3.0)) < 1e-14
        assert crossing.relative_gap < 0.01

    @pytest.mark.parametrize("d, n", [(3, 6.0), (2, 4.0), (2, 2.2)])
    def test_solve_count_is_what_the_crossing_makes(self, monkeypatch, d, n):
        # the spectrum work caps count the crossing by fs_crossing_solves: one
        # O(N) inertia pass per sign, and no eigenvalue solve
        rows = []
        passes = spectral.tridiagonal_is_positive
        monkeypatch.setattr(spectral, "tridiagonal_is_positive",
                            lambda diag, off: rows.append(len(diag)) or passes(diag, off))
        monkeypatch.setattr(spectral, "lowest_eigenvalue", _never)
        fs_crossing(d, n, N=400)
        assert len(rows) == spectral.fs_crossing_solves(*spectral.alpha_bracket(d, n))
        assert rows == [399] * len(rows)

    def test_crossing_stable_under_refinement(self):
        a = fs_crossing(3, 6.0, N=1000).alpha_star_numeric
        b = fs_crossing(3, 6.0, N=2000).alpha_star_numeric
        assert abs(a - b) < 1e-3

    def test_critical_boundary_path_has_no_crossing(self):
        # n = d forces a = b, the p = 2* edge: path inadmissible
        with pytest.raises(CknLabError, match="is not strictly admissible"):
            fs_crossing(3, 3.0)

    def test_bracket_without_crossing(self):
        # the text reports both end eigenvalues, solved on this failure path only
        with pytest.raises(CknLabError) as exc:
            fs_crossing(3, 6.0, alpha_range=(0.3, 0.5))
        assert str(exc.value) == ("no stable-to-unstable crossing in alpha bracket (0.3, 0.5): "
                                  "eigenvalues (1.550e+00, 7.500e-01)")


def _eigenvalue_bisection(d, n, N=2000):
    """The crossing as bisection on converged eigenvalue signs: the oracle of the inertia test."""
    lo, hi = alpha_bracket(d, n)

    def eig(alpha):
        return lowest_eigenvalue(build_sector_operator(path_params(d, n, alpha), k=1, N=N))

    assert eig(lo) > 0.0 > eig(hi)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if eig(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _never(*args):
    raise AssertionError("an eigenvalue was solved where an inertia pass answers")


#: (d, n, alpha_star_numeric) of the parent's eigenvalue bisection at N = 2000
_CROSSINGS = [(3, 6.0, float.fromhex("0x1.43d0d4ff5ab92p-1")),
              (2, 4.0, float.fromhex("0x1.27996a4e00e1ap-1")),
              (2, 2.05, float.fromhex("0x1.eb540d4eb23c8p-1")),
              (2, 2.2, float.fromhex("0x1.d301c6ade77dcp-1"))]


def _assert_inertia_is_the_eigenvalue_sign(d, n, alpha, k, N):
    op = build_sector_operator(path_params(d, n, alpha), k, N=N)
    assert tridiagonal_is_positive(*op.tridiagonal()) == (lowest_eigenvalue(op) > 0.0)


class TestInertiaSign:
    """`tridiagonal_is_positive` against the sign of the dstebz eigenvalue it replaces."""

    @pytest.mark.parametrize("d, n", [*SPECTRUM_CROSSING_PAIRS, (2, 2.05), (2, 2.2)])
    def test_crossing_is_the_eigenvalue_bisection_bit_for_bit(self, d, n):
        alpha_star = fs_crossing(d, n).alpha_star_numeric
        assert alpha_star.hex() == _eigenvalue_bisection(d, n).hex()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k=st.integers(min_value=0, max_value=3),
           N=st.sampled_from([64, 400, 2000]))
    def test_inertia_is_the_eigenvalue_sign(self, data, k, N):
        d = data.draw(st.integers(min_value=2, max_value=6))
        # within ~1e-13 of d the path's b rounds onto the p = 2* edge
        # (TestPathParamsProperties), so n starts 1e-9 above d
        n = data.draw(st.floats(min_value=d + 1e-9, max_value=80.0))
        _assert_inertia_is_the_eigenvalue_sign(d, n, data.draw(st.floats(*alpha_bracket(d, n))),
                                               k, N)

    @pytest.mark.parametrize("rel", [-1e-6, -1e-7, 1e-7, 1e-6])
    @pytest.mark.parametrize("d, n, crossing", _CROSSINGS)
    def test_inertia_is_the_eigenvalue_sign_at_the_crossing(self, d, n, crossing, rel):
        _assert_inertia_is_the_eigenvalue_sign(d, n, crossing * (1.0 + rel), 1, 2000)

    def test_stops_at_the_first_pivot_not_above_zero(self):
        # pivots 1, 0: a division by the zero pivot would raise ZeroDivisionError
        assert tridiagonal_is_positive([1.0, 1.0, 5.0], [1.0, 1.0]) is False
        assert tridiagonal_is_positive([0.0, 5.0], [0.0]) is False
        assert tridiagonal_is_positive([2.0, 2.0, 2.0], [-1.0, -1.0]) is True
        assert tridiagonal_is_positive([1e-300, 1.0], [1e10]) is False   # b^2/d is inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["diag", "off"])
    def test_refuses_non_finite_as_the_eigensolver(self, bad, where):
        diag, off = np.array([2.0, 3.0, 1.0, 4.0]), np.array([-1.0, 0.5, -0.25])
        (diag if where == "diag" else off)[1] = bad
        with pytest.raises(ValueError) as ours:
            tridiagonal_is_positive(diag, off)
        with pytest.raises(ValueError) as ref:
            lowest_tridiagonal_eigenvalue(diag, off)
        assert str(ours.value) == str(ref.value)


class TestPathParamsProperties:
    """The fixed-(d, n) weight path against the closed forms (no eigenvalue solves)."""

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_above_d_every_alpha_is_admissible(self, data):
        d = data.draw(st.integers(min_value=2, max_value=6))
        # within ~1e-13 of d, b - a = 1 - d/n is below the rounding of b and p
        # lands on the excluded 2* edge in floating point
        n = data.draw(st.floats(min_value=d + 1e-9, max_value=d + 20.0, exclude_max=True))
        alpha = data.draw(st.floats(min_value=0.01, max_value=5.0))
        ps = path_params(d, n, alpha)
        # b = a + 1 - d/n rounds at the size of 1, so alpha = (1+a-b) kappa / (kappa+b)
        # comes back with that rounding amplified by 1/(n-2) as n -> 2 (d = 2 only)
        tol = 1e-12 * max(1.0, 1.0 / (n - 2.0))
        assert ps.d == d
        assert abs(ps.n / n - 1.0) <= 1e-12
        assert abs(ps.alpha / alpha - 1.0) <= tol
        assert abs(ps.fs_threshold / felli_schneider_threshold(d, n) - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_at_or_below_d_no_alpha_is_admissible(self, data):
        d = data.draw(st.integers(min_value=2, max_value=6))
        n = data.draw(st.floats(min_value=1.0, max_value=float(d), exclude_min=True))
        alpha = data.draw(st.floats(min_value=0.01, max_value=5.0))
        with pytest.raises(AdmissibilityError):
            path_params(d, n, alpha)

    def test_n_equal_d_is_refused_before_rounding_decides(self):
        # here b = a + 1 - d/n rounds a hair above a, so p lands just below 2*
        with pytest.raises(AdmissibilityError, match="n > d"):
            path_params(5, 5.0, 0.010000000000000002)


def _scipy_lowest(diag, off):
    return scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))


def test_eigvalsh_tridiagonal_matches_scipy(monkeypatch):
    # every matrix the spectrum suite solves or tests the inertia of, and
    # random ones of all sizes
    matrices = []

    def recording(solve):
        def record(diag, off):
            matrices.append((np.array(diag), np.array(off)))
            return solve(diag, off)
        return record

    with monkeypatch.context() as m:
        for name in ("lowest_tridiagonal_eigenvalue", "tridiagonal_is_positive"):
            m.setattr(spectral, name, recording(getattr(spectral, name)))
        assert run_spectrum_suite()["pass"]
    # 9 zero-mode solves and 36 crossing inertia passes at the default configuration
    assert len(matrices) >= 40
    rng = np.random.default_rng(20261018)
    for size in (2, 3, 5, 64, 1999):   # sector operators have at least 63 rows
        for scale in (1e-300, 1e-3, 1.0, 1e6, 1e150):
            matrices.append((scale * rng.normal(size=size), scale * rng.normal(size=size - 1)))
    matrices.append((np.full(7, 2.0), np.zeros(6)))   # a repeated eigenvalue
    for diag, off in matrices:
        ref = _scipy_lowest(diag, off)
        assert ref.shape == (1,)
        assert np.float64(lowest_tridiagonal_eigenvalue(diag, off)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diag", "off"])
def test_lowest_tridiagonal_eigenvalue_refuses_non_finite_as_scipy(bad, where):
    diag, off = np.array([2.0, 3.0, 1.0, 4.0]), np.array([-1.0, 0.5, -0.25])
    (diag if where == "diag" else off)[1] = bad
    with pytest.raises(ValueError) as ours:
        lowest_tridiagonal_eigenvalue(diag, off)
    with pytest.raises(ValueError) as ref:
        _scipy_lowest(diag, off)
    assert str(ours.value) == str(ref.value)


def test_lowest_tridiagonal_eigenvalue_names_the_path_it_searched(without_lapack):
    # no fallback: without numpy's scipy-openblas64 there is no eigenvalue, and the
    # error is the OSError ctypes raises for a library it cannot load
    with pytest.raises(OSError, match=re.escape(
            f"no LAPACK dstebz: searched {without_lapack} for scipy_dstebz_64_")) as exc:
        lowest_tridiagonal_eigenvalue([2.0, 2.0], [-1.0])
    assert exc.type is OSError


@pytest.mark.parametrize("diag, off", [
    (np.ones(5), np.ones(3)), (np.ones(5), np.ones(5)), (np.ones(1), np.ones(0)),
    (np.ones((2, 3)), np.ones(2)),
])
def test_lowest_tridiagonal_eigenvalue_refuses_mismatched_shapes(diag, off):
    # LAPACK reads as many entries as n says, so a short off-diagonal must not reach it
    with pytest.raises(ValueError, match=r"need shapes \(n >= 2,\) and \(n - 1,\)"):
        lowest_tridiagonal_eigenvalue(diag, off)
