import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import GridTooCoarse, RegionOutsideGrid
from cknlab.fitting import halving_factors
from cknlab.grids import (
    RadialGrid,
    _CELL_FIRST,
    _CELL_INTERIOR,
    _lagrange_basis_antiderivatives,
    _lagrange_cell_weights,
    d2_dx2,
    d_dx,
    d_ds,
    default_grid,
    fd_weights,
    integrate_measure_radial,
    integrate_uniform,
    radial_derivs,
    sphere_area,
)


def test_sphere_areas():
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-13
    assert abs(sphere_area(4) - 2 * math.pi**2) < 1e-13


def test_fd_weights_reproduce_central_stencils():
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 1), [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 2),
        [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12], atol=1e-14,
    )


def test_cell_weights_closed_forms():
    np.testing.assert_allclose(_CELL_INTERIOR, np.array([-1, 13, 13, -1]) / 24.0, atol=1e-15)
    np.testing.assert_allclose(_CELL_FIRST, np.array([9, 19, -5, 1]) / 24.0, atol=1e-15)


class TestRadialGrid:
    def test_log_uniform(self):
        g = default_grid()
        assert g.count == 2048 and g.r_min == 1e-3 and g.r_max == 1e3
        # log coordinates match the affine formula to 1e-14 of their scale
        x = g.x_nodes
        ideal = x[0] + g.log_step * np.arange(g.count)
        scale = np.max(np.abs(x))
        assert np.max(np.abs(x - ideal)) < 1e-14 * scale
        assert np.max(np.abs(np.log(g.nodes) - ideal)) < 1e-14 * scale
        assert np.all(np.diff(g.nodes) > 0)

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            RadialGrid(1e-2, 1e2, 8)

    def test_refined_halves_step(self):
        g = RadialGrid(1e-2, 1e2, 65)
        refined = RadialGrid(g.r_min, g.r_max, (g.count - 1) * 2 + 1)
        assert abs(refined.log_step - g.log_step / 2) < 1e-16


class TestDerivatives:
    def test_exact_on_cubics_in_x(self):
        g = RadialGrid(1e-2, 1e2, 128)
        x = g.x_nodes
        f = 2.0 + 0.5 * x - 0.25 * x**2 + 0.125 * x**3
        df = 0.5 - 0.5 * x + 0.375 * x**2
        d2f = -0.5 + 0.75 * x
        assert np.max(np.abs(d_dx(f, g.log_step) - df)) < 1e-11
        assert np.max(np.abs(d2_dx2(f, g.log_step) - d2f)) < 1e-9

    def test_fourth_order_on_powers(self):
        errs1, errs2 = [], []
        for count in (257, 513, 1025):
            g = RadialGrid(1e-2, 1e2, count)
            s = g.nodes
            w = s**2
            errs1.append(np.max(np.abs(d_ds(w, g) - 2 * s) / (2 * s)))
            errs2.append(np.max(np.abs(radial_derivs(w, g)[1] - 2.0) / 2.0))
        for f in halving_factors(errs1) + halving_factors(errs2):
            assert 8.0 <= f <= 32.0

    @pytest.mark.parametrize("shape", [(300,), (300, 7)])
    def test_radial_derivs_bitwise_equal_to_separate_passes(self, shape):
        g = RadialGrid(1e-2, 1e2, 300)
        vals = np.random.default_rng(3).standard_normal(shape)
        d1, d2 = radial_derivs(vals, g)
        s = g.column(vals)
        assert np.array_equal(d1, d_ds(vals, g))
        assert np.array_equal(d2, (d2_dx2(vals, g.log_step) - d_dx(vals, g.log_step)) / s**2)

    def test_2d_arrays_differentiate_along_axis0(self):
        g = RadialGrid(1e-1, 1e1, 64)
        prof = g.nodes**1.5
        vals = prof[:, None] * np.array([1.0, 2.0])[None, :]
        d = d_ds(vals, g)
        expected = 1.5 * g.nodes**0.5
        for j, fac in enumerate((1.0, 2.0)):
            rel = np.abs(d[4:-4, j] - fac * expected[4:-4]) / (fac * expected[4:-4])
            assert rel.max() < 1e-4


class TestQuadrature:
    def test_exact_for_cubics_with_offgrid_endpoints(self):
        g = RadialGrid(1e-2, 1e2, 64)
        x = g.x_nodes
        F = 1.0 + x - 0.5 * x**2 + 0.2 * x**3

        def exact(a, b):
            anti = lambda t: t + t**2 / 2 - 0.5 * t**3 / 3 + 0.05 * t**4
            return anti(b) - anti(a)

        for a, b in [(x[0], x[-1]), (-1.234, 2.345), (x[0] + 0.3 * g.log_step, 0.77)]:
            got = integrate_uniform(F, g.log_step, x[0], a, b)
            assert abs(got - exact(a, b)) < 1e-12 * max(1.0, abs(exact(a, b)))

    def test_measure_full_ball(self):
        # int_0^R s^(n-1) ds = R^n / n, origin truncation negligible
        g = default_grid()
        n = 6.0
        got = integrate_measure_radial(np.ones(g.count), g, n, g.r_min, 10.0)
        assert abs(got - 10.0**n / n) < 1e-6 * 10.0**n / n

    def test_power_law_closed_forms(self):
        # f = s^(1-n) cancels the measure weight exactly; f = s^-n leaves 1/s
        g = default_grid()
        n = 6.0
        got_flat = integrate_measure_radial(g.nodes ** (1.0 - n), g, n, 1.0, 2.0)
        assert abs(got_flat - 1.0) < 1e-10
        got_log = integrate_measure_radial(g.nodes ** (-n), g, n, 1.0, 2.0)
        assert abs(got_log - math.log(2.0)) < 1e-10

    def test_region_outside_grid(self):
        g = RadialGrid(1e-2, 1e2, 64)
        with pytest.raises(RegionOutsideGrid):
            integrate_uniform(np.ones(64), g.log_step, g.x_nodes[0],
                              g.x_nodes[0] - 1.0, 0.0)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=64, max_size=64),
           st.floats(min_value=0.01, max_value=4.0))
    def test_linear_and_monotone(self, samples, shift):
        g = RadialGrid(1e-1, 1e1, 64)
        f = np.asarray(samples)
        gf = f + shift  # g >= f pointwise
        i_f = integrate_measure_radial(f, g, 3.0, g.r_min, g.r_max)
        i_g = integrate_measure_radial(gf, g, 3.0, g.r_min, g.r_max)
        i_shift = integrate_measure_radial(np.full(64, shift), g, 3.0, g.r_min, g.r_max)
        assert i_g >= i_f
        assert abs(i_g - (i_f + i_shift)) < 1e-9 * max(1.0, abs(i_g))


# The per-cell loop the vectorised quadrature replaced, kept verbatim as the
# reference: integrate_uniform must return its bits and raise its exceptions.
def _loop_cell_weights(offsets, lo: float, hi: float) -> np.ndarray:
    """Integrals over [lo, hi] (grid units) of the Lagrange basis on offsets."""
    offsets = np.asarray(offsets, dtype=float)
    ws = np.empty(len(offsets))
    for j, oj in enumerate(offsets):
        others = np.delete(offsets, j)
        poly = np.polynomial.Polynomial.fromroots(others)
        denom = np.prod(oj - others)
        integ = poly.integ()
        ws[j] = (integ(hi) - integ(lo)) / denom
    return ws


_LOOP_INTERIOR = _loop_cell_weights([-1.0, 0.0, 1.0, 2.0], 0.0, 1.0)
_LOOP_FIRST = _loop_cell_weights([0.0, 1.0, 2.0, 3.0], 0.0, 1.0)
_LOOP_LAST = _LOOP_FIRST[::-1].copy()


def _loop_cell_stencil(k: int, ncell: int) -> np.ndarray:
    """Node indices of the cubic used for cell k (of ncell cells)."""
    if k == 0:
        return np.arange(0, 4)
    if k == ncell - 1:
        return np.arange(ncell - 3, ncell + 1)
    return np.arange(k - 1, k + 3)


def _loop_integrate_uniform(F, h, x0, x_lo, x_hi):
    F = np.asarray(F, dtype=float)
    npts = F.shape[0]
    ncell = npts - 1
    x_end = x0 + ncell * h
    eps = 1e-12 * max(abs(x0), abs(x_end), 1.0)
    if x_lo < x0 - eps or x_hi > x_end + eps:
        raise RegionOutsideGrid(
            f"region [{x_lo}, {x_hi}] outside grid [{x0}, {x_end}] (log coords)"
        )
    if x_hi <= x_lo:
        return 0.0
    t_lo = min(max((x_lo - x0) / h, 0.0), ncell)
    t_hi = min(max((x_hi - x0) / h, 0.0), ncell)
    k_lo = min(int(math.floor(t_lo)), ncell - 1)
    k_hi = min(int(math.floor(t_hi)), ncell - 1)

    def partial(k: int, a: float, b: float) -> float:
        idx = _loop_cell_stencil(k, ncell)
        w = _loop_cell_weights(idx - k, a - k, b - k)
        return h * float(np.dot(w, F[idx]))

    if k_lo == k_hi:
        return partial(k_lo, t_lo, t_hi)

    total = 0.0
    if t_lo > k_lo:
        total += partial(k_lo, t_lo, k_lo + 1.0)
        first_full = k_lo + 1
    else:
        first_full = k_lo
    if t_hi > k_hi:
        tail = partial(k_hi, float(k_hi), t_hi)
        last_full = k_hi  # cells [first_full, last_full) are complete
    else:
        tail = 0.0
        last_full = k_hi

    for k in range(first_full, last_full):
        if k == 0:
            total += h * float(np.dot(_LOOP_FIRST, F[:4]))
        elif k == ncell - 1:
            total += h * float(np.dot(_LOOP_LAST, F[-4:]))
        else:
            total += h * float(
                np.dot(_LOOP_INTERIOR, F[k - 1:k + 3])
            )
    return total + tail


def _outcome(fn, *args):
    """(result type, float64 bit pattern), or the exception type raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # parity of failures is part of the contract
        return type(exc)
    return type(value), int(np.float64(value).view(np.int64))


_MAGNITUDE = st.builds(lambda m, e: m * 10.0**e,
                       st.floats(min_value=-10.0, max_value=10.0),
                       st.integers(min_value=-30, max_value=30))


@st.composite
def _samples_and_region(draw):
    npts = draw(st.integers(min_value=1, max_value=40))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        F = np.full(npts, -0.0)
    else:
        F = np.array(draw(st.lists(
            st.one_of(_MAGNITUDE, st.sampled_from([0.0, -0.0]),
                      st.floats(min_value=-1e30, max_value=1e30)),
            min_size=npts, max_size=npts)))
    h = np.float64(draw(st.floats(min_value=1e-3, max_value=1.0)))  # as RadialGrid.log_step
    x0 = draw(st.floats(min_value=-10.0, max_value=10.0))
    ncell = npts - 1
    kind = draw(st.sampled_from(["nodes", "off-grid", "one cell", "reversed", "whole",
                                 "outside"]))
    if kind == "nodes":
        t_lo, t_hi = sorted(draw(st.lists(st.integers(0, max(ncell, 0)), min_size=2,
                                          max_size=2)))
    elif kind == "one cell":
        k = draw(st.integers(0, max(ncell - 1, 0)))
        t_lo, t_hi = sorted(k + draw(st.floats(0.0, 1.0)) for _ in range(2))
    elif kind == "whole":
        t_lo, t_hi = 0.0, float(ncell)
    elif kind == "outside":
        # just past either end: inside the 1e-12 tolerance (clamped) or beyond it
        step = draw(st.sampled_from([1e-15, 1e-13, 1e-11, 1e-9, 0.5]))
        t_lo, t_hi = (-step, float(ncell)) if draw(st.booleans()) else (0.0, ncell + step)
    else:
        t_lo, t_hi = sorted(draw(st.floats(0.0, max(ncell, 0))) for _ in range(2))
        if kind == "reversed":
            t_lo, t_hi = t_hi, t_lo
    return F, h, x0, x0 + t_lo * h, x0 + t_hi * h


class TestQuadratureBitwise:
    @settings(max_examples=150, deadline=None)
    @given(_samples_and_region())
    def test_bitwise_equal_to_the_per_cell_loop(self, case):
        if len(case[0]) < 4:  # no cubic cell fits; the loop read a wrapped index here
            assert _outcome(integrate_uniform, *case) is GridTooCoarse
        else:
            assert _outcome(integrate_uniform, *case) == _outcome(_loop_integrate_uniform, *case)

    @pytest.mark.parametrize("x_lo, x_hi", [(1.2, 1.8), (0.2, 0.8), (0.0, 2.0)])
    def test_fewer_than_four_nodes_is_too_coarse(self, x_lo, x_hi):
        # on F = [0, 1, 2] the loop returned 0.999 for [1.2, 1.8] (exact: 0.9)
        # and raised a bare IndexError for [0.2, 0.8]
        with pytest.raises(GridTooCoarse, match="needs >= 4 nodes"):
            integrate_uniform(np.array([0.0, 1.0, 2.0]), 1.0, 0.0, x_lo, x_hi)

    def test_bitwise_equal_on_grid_scale_fields(self):
        g = default_grid()
        F = np.random.default_rng(5).standard_normal(g.count) * np.exp(3.0 * g.x_nodes)
        x = g.x_nodes
        for x_lo, x_hi in [(x[0], x[-1]), (x[0] + 0.3 * g.log_step, 1.1), (x[5], x[2000]),
                           (-2.0, -2.0 + 0.5 * g.log_step)]:
            args = (F, g.log_step, x[0], x_lo, x_hi)
            assert _outcome(integrate_uniform, *args) == _outcome(_loop_integrate_uniform, *args)

    def test_partial_cell_basis_is_built_once_and_returned_fresh(self, monkeypatch):
        built = []
        init = np.polynomial.Polynomial.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(np.polynomial.Polynomial, "__init__", counting_init)
        _lagrange_basis_antiderivatives.cache_clear()
        offsets = [-2.0, -1.0, 0.0, 1.0]
        first = _lagrange_cell_weights(offsets, 0.25, 0.75)
        assert built
        built.clear()
        again = _lagrange_cell_weights(offsets, 0.25, 0.75)
        assert not built
        assert np.array_equal(first, again) and again is not first
        again[:] = 99.0  # the caller owns the array: the cache keeps no reference to it
        assert np.array_equal(_lagrange_cell_weights(offsets, 0.25, 0.75), first)
        assert np.array_equal(first, _loop_cell_weights(offsets, 0.25, 0.75))
