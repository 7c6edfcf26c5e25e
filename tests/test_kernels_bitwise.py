"""The in-place 2-D kernels against their allocating forms, bit for bit.

Each ``ref_*`` function below is the plain allocating form of a kernel that
now works through scratch buffers and ufunc ``out=``.  They are the oracles:
every float operation of the rewrite must happen in the same order, so the
outputs agree in ``tobytes()``, signed zeros included.  The file also pins
the field ownership rule, the radial caches of PressureField and the nested
refinement grids that `run_identities_suite` slices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import grids, pressure
from cknlab.cylfield import (
    CylinderField,
    L_of_values,
    PeriodicGrid,
    Radial,
    SingleHarmonic,
    theta_derivative,
)
from cknlab.grids import RadialGrid
from cknlab.params import derive_params
from cknlab.pressure import (
    bochner_decomposition,
    bochner_k,
    pressure_of,
    sphere_bochner,
    sphere_bochner_density,
)
from cknlab.verify import (
    _identity_sizes,
    evaluate_log_field,
    pressure_field_from_target,
    random_circle_profile,
    random_log_field_coeffs,
    source_of_pressure,
)

PS2 = derive_params(-0.3, 0.2, 2)     # n = 4: the identities suite's triple
PS3 = derive_params(-0.5, 0.0, 3)     # n = 6


# ---------------------------------------------------------------------------
# oracles: the allocating forms
# ---------------------------------------------------------------------------

def ref_stencil(values, interior, edge0, edge1, h, m):
    v = np.asarray(values, dtype=float)
    npts = v.shape[0]
    out = np.zeros_like(v)
    c = interior
    center = v[2:-2]
    for off, cj in ((-2, c[0]), (-1, c[1]), (1, c[3]), (2, c[4])):
        out[2:-2] += cj * (v[2 + off:npts - 2 + off] - center)

    def edge_value(weights, window, eval_idx):
        acc = np.zeros_like(window[0])
        for j, wj in enumerate(weights):
            if j != eval_idx:
                acc = acc + wj * (window[j] - window[eval_idx])
        return acc

    ne = len(edge0)
    out[0] = edge_value(edge0, v[:ne], 0)
    out[1] = edge_value(edge1, v[:ne], 1)
    sign = -1.0 if m % 2 else 1.0
    rev = v[::-1]
    out[-1] = sign * edge_value(edge0, rev[:ne], 0)
    out[-2] = sign * edge_value(edge1, rev[:ne], 1)
    out /= h**m
    return out


def ref_d_dx(values, h):
    return ref_stencil(values, grids._D1_INT, grids._D1_EDGE0, grids._D1_EDGE1, h, 1)


def ref_d2_dx2(values, h):
    return ref_stencil(values, grids._D2_INT, grids._D2_EDGE0, grids._D2_EDGE1, h, 2)


def ref_d_ds(values, grid):
    return ref_d_dx(values, grid.log_step) / grid.column(values)


def ref_radial_derivs(values, grid):
    s = grid.column(values)
    dx = ref_d_dx(values, grid.log_step)
    return dx / s, (ref_d2_dx2(values, grid.log_step) - dx) / s**2


def ref_theta_from_spectrum(spec, m, order):
    k = np.arange(spec.shape[1], dtype=float)
    mult = (1j * k) ** order
    if order % 2 == 1 and m % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(spec * mult[None, :], n=m, axis=1)


def ref_theta_derivative(values, order):
    return ref_theta_from_spectrum(np.fft.rfft(values, axis=1), values.shape[1], order)


def ref_theta_pair(angular, values):
    if not isinstance(angular, PeriodicGrid):
        return None, None
    spec, m = np.fft.rfft(values, axis=1), values.shape[1]
    return ref_theta_from_spectrum(spec, m, 1), ref_theta_from_spectrum(spec, m, 2)


def ref_grad_theta(angular, values):
    return ref_theta_derivative(values, 1) if isinstance(angular, PeriodicGrid) else None


def ref_lap_theta(angular, values, d):
    if isinstance(angular, PeriodicGrid):
        return ref_theta_derivative(values, 2)
    if isinstance(angular, SingleHarmonic) and angular.k > 0:
        return -angular.eigenvalue(d) * values
    return None


def ref_L_kernel(d1, d2, lap_theta, s, ps):
    out = ps.alpha**2 * (d2 + (ps.n - 1.0) * d1 / s)
    return out if lap_theta is None else out + lap_theta / s**2


def ref_L_of_values(values, grid, angular, ps):
    d1, d2 = ref_radial_derivs(values, grid)
    return ref_L_kernel(d1, d2, ref_lap_theta(angular, values, ps.d), grid.column(values), ps)


def ref_pressure_of(w):
    ps, grid = w.params, w.grid
    n = ps.n
    vals = (n - 1.0) * w.values ** (-2.0 / (n - 2.0))
    s = grid.column(vals)
    dP, d2P = ref_radial_derivs(vals, grid)
    thetaP, lap_thetaP = ref_theta_pair(w.angular, vals)
    LP = ref_L_kernel(dP, d2P, lap_thetaP, s, ps)
    DP2 = ps.alpha**2 * dP**2
    if thetaP is not None:
        DP2 = DP2 + thetaP**2 / s**2
    return dict(P=vals, dP=dP, d2P=d2P, thetaP=thetaP, lap_thetaP=lap_thetaP, LP=LP,
                DP2=DP2, s=s, grid=grid, angular=w.angular, ps=ps)


def ref_bochner_k(pf):
    ps, grid, angular = pf["ps"], pf["grid"], pf["angular"]
    half_LG = 0.5 * ref_L_of_values(pf["DP2"], grid, angular, ps)
    inner = ps.alpha**2 * pf["dP"] * ref_d_ds(pf["LP"], grid)
    grad_LP = ref_grad_theta(angular, pf["LP"])
    if grad_LP is not None:
        inner = inner + pf["thetaP"] * grad_LP / pf["s"]**2
    return half_LG - inner - pf["LP"]**2 / ps.n


def ref_sphere_k(g1, g2, n, alpha):
    term = 0.5 * ref_theta_derivative(g1**2, 2) - g1 * ref_theta_derivative(g2, 1)
    return term - g2**2 / (n - 1.0) - (n - 2.0) * alpha**2 * g1**2


def ref_bochner_decomposition(pf):
    ps, s = pf["ps"], pf["s"]
    n = ps.n
    radial_deficit = pf["d2P"] - pf["dP"] / s
    if pf["lap_thetaP"] is not None:
        radial_deficit = radial_deficit - pf["lap_thetaP"] / (ps.alpha**2 * (n - 1.0) * s**2)
    t1 = (n - 1.0) / n * ps.alpha**4 * radial_deficit**2
    if pf["thetaP"] is None:
        t2 = t3 = np.zeros_like(t1)
    else:
        mixed = ref_d_ds(pf["thetaP"], pf["grid"])
        t2 = 2.0 * ps.alpha**2 / s**2 * (mixed - pf["thetaP"] / s) ** 2
        t3 = ref_sphere_k(pf["thetaP"], pf["lap_thetaP"], n, ps.alpha) / s**4
    return t1, t2, t3


def ref_evaluate_log_field(coeffs, grid, angular):
    x = grid.x_nodes
    xi = (2.0 * x - (x[0] + x[-1])) / (x[-1] - x[0])
    th = np.linspace(0.0, 2.0 * np.pi, angular.size, endpoint=False)
    ccos, csin = coeffs["cos"], coeffs["sin"]
    g = np.zeros((grid.count, angular.size))
    for i in range(ccos.shape[0]):
        radial = xi**i
        for k in range(ccos.shape[1]):
            ang = ccos[i, k] * np.cos(k * th) + csin[i, k] * np.sin(k * th)
            g += radial[:, None] * ang[None, :]
    return np.exp(g)


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# drawn fields
# ---------------------------------------------------------------------------

ANGULAR_REPS = [Radial(), PeriodicGrid(9), PeriodicGrid(16), SingleHarmonic(0),
                SingleHarmonic(1), SingleHarmonic(2), SingleHarmonic(3)]
PRESSURE_REPS = [Radial(), PeriodicGrid(9), PeriodicGrid(16), SingleHarmonic(0)]


@st.composite
def fields(draw, reps, positive=False):
    """(grid, angular, params, samples), with flat runs and signed zeros."""
    angular = draw(st.sampled_from(reps))
    ps = PS2 if isinstance(angular, PeriodicGrid) else draw(st.sampled_from([PS2, PS3]))
    count = draw(st.integers(16, 40))
    r_min = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    grid = RadialGrid(r_min, r_min * draw(st.sampled_from([10.0, 1e3, 1e6])), count)
    shape = angular.sample_shape(grid, ps.d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(shape)
    if positive:
        v = np.exp(draw(st.sampled_from([1e-6, 0.3, 2.0])) * v)
    else:
        v *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):   # a flat run along the radius, or a constant field
        lo = draw(st.integers(0, count - 1))
        hi = draw(st.integers(lo + 1, count))
        v[lo:hi] = v[lo]
    if not positive and draw(st.booleans()):
        v[rng.random(shape) < 0.3] = 0.0
        v[rng.random(shape) < 0.3] = -0.0
    return grid, angular, ps, v


class TestStencilsBitwise:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fields(ANGULAR_REPS), st.sampled_from([1e-3, 0.0123, 1.0]))
    def test_axis0_derivatives(self, drawn, h):
        grid, _, _, v = drawn
        assert same_bits(grids.d_dx(v, h), ref_d_dx(v, h))
        assert same_bits(grids.d2_dx2(v, h), ref_d2_dx2(v, h))
        assert same_bits(grids.d_ds(v, grid), ref_d_ds(v, grid))
        for got, want in zip(grids.radial_derivs(v, grid), ref_radial_derivs(v, grid)):
            assert same_bits(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fields(ANGULAR_REPS))
    def test_L_kernel(self, drawn):
        grid, angular, ps, v = drawn
        assert same_bits(L_of_values(v, grid, angular, ps), ref_L_of_values(v, grid, angular, ps))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fields([PeriodicGrid(9), PeriodicGrid(16)]))
    def test_theta_spectrum(self, drawn):
        _, angular, _, v = drawn
        for order in (1, 2):
            assert same_bits(theta_derivative(v, order), ref_theta_derivative(v, order))
        for got, want in zip(angular.theta_pair(v), ref_theta_pair(angular, v)):
            assert same_bits(got, want)

    def test_signed_zero_edges(self):
        # -0.0 - (+0.0) rows: the edge sums start from +0.0 in both forms
        v = np.zeros((16, 3))
        v[::2] = -0.0
        v[:, 1] = 1.0
        for fn, ref in ((grids.d_dx, ref_d_dx), (grids.d2_dx2, ref_d2_dx2)):
            assert same_bits(fn(v, 0.5), ref(v, 0.5))


class TestPressureBitwise:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fields(PRESSURE_REPS, positive=True))
    def test_pressure_caches_and_bochner(self, drawn):
        grid, angular, ps, v = drawn
        w = CylinderField(grid, angular, v, ps)
        pf, ref = pressure_of(w), ref_pressure_of(w)
        assert same_bits(pf.P.values, ref["P"])
        for name in ("thetaP", "lap_thetaP", "dP", "d2P", "LP", "DP2"):
            assert same_bits(getattr(pf, name), ref[name]), name
        assert same_bits(bochner_k(pf).values, ref_bochner_k(ref))
        dec = bochner_decomposition(pf)
        t1, t2, t3 = ref_bochner_decomposition(ref)
        assert same_bits(dec.term_radial_hessian.values, t1)
        assert same_bits(dec.term_mixed.values, t2)
        assert same_bits(dec.term_sphere.values, t3)
        assert same_bits(dec.total().values, t1 + t2 + t3)
        if isinstance(angular, PeriodicGrid):
            g1, g2 = ref["thetaP"], ref["lap_thetaP"]
            assert same_bits(sphere_bochner_density(pf), ref_sphere_k(g1, g2, ps.n, ps.alpha))
            i = grid.count // 2
            ks = ref_sphere_k(g1[i][None], g2[i][None], ps.n, ps.alpha)[0]
            weight = ref["P"][i] ** (1.0 - ps.n)
            assert sphere_bochner(pf, i).k_sphere_integral == float(np.mean(weight * ks)) * 2 * np.pi

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([64, 128, 256]))
    def test_sphere_margin_on_one_circle(self, seed, size):
        # the identities suite builds each sphere-margin pressure on the circle
        # it reads; the field that carries the profile at all 64 radii gives the
        # same bits at its middle radius
        profile = random_circle_profile(np.random.default_rng(seed), size)
        P = pressure.pressure_values(source_of_pressure(profile[None, :], PS2.n), PS2.n)
        g1, g2 = PeriodicGrid(size).theta_pair(P)
        sides = pressure.circle_bochner(P[0], g1[0], g2[0], PS2)
        target = np.broadcast_to(profile[None, :], (64, size)).copy()
        pf = pressure_field_from_target(target, RadialGrid(1e-1, 1e1, 64), PeriodicGrid(size), PS2)
        assert sides == sphere_bochner(pf, 32)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(16, 40), st.sampled_from([9, 16, 31]))
    def test_log_field(self, seed, count, size):
        coeffs = random_log_field_coeffs(np.random.default_rng(seed))
        grid, angular = RadialGrid(1e-3, 1e3, count), PeriodicGrid(size)
        got = evaluate_log_field(coeffs, grid, angular, PS2).values
        assert same_bits(got, ref_evaluate_log_field(coeffs, grid, angular))


class TestFieldOwnership:
    def test_owned_array_is_frozen_in_place(self, grid_small):
        values = np.ones(grid_small.count)
        field = CylinderField(grid_small, Radial(), values, PS3)
        assert field.values is values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2.0

    def test_view_is_copied(self, grid_small):
        base = np.ones(2 * grid_small.count)
        view = base[::2]
        field = CylinderField(grid_small, Radial(), view, PS3)
        assert field.values is not view and field.values.base is None
        base[0] = 5.0                      # the view's owner may still write
        assert view.flags.writeable and field.values[0] == 1.0

    def test_checks_hold_on_both_paths(self, grid_small):
        for values in (np.ones(grid_small.count + 1), np.ones(2 * grid_small.count + 2)[::2]):
            with pytest.raises(ValueError, match="shape"):
                CylinderField(grid_small, Radial(), values, PS3)
        bad = np.ones(grid_small.count)
        bad[3] = np.inf
        for values in (bad, np.repeat(bad, 2)[::2]):
            with pytest.raises(ValueError, match="finite"):
                CylinderField(grid_small, Radial(), values, PS3)


class TestRadialCaches:
    @pytest.fixture
    def derivs_calls(self, monkeypatch):
        calls = []
        original = pressure.radial_derivs

        def counting(values, grid):
            calls.append(values.shape)
            return original(values, grid)

        monkeypatch.setattr(pressure, "radial_derivs", counting)
        return calls

    def periodic_field(self):
        grid = RadialGrid(1e-1, 1e1, 64)
        coeffs = random_log_field_coeffs(np.random.default_rng(7))
        target = evaluate_log_field(coeffs, grid, PeriodicGrid(16), PS2).values
        w = ((PS2.n - 1.0) / target) ** ((PS2.n - 2.0) / 2.0)
        return CylinderField(grid, PeriodicGrid(16), w, PS2)

    def test_sphere_check_computes_no_radial_cache(self, derivs_calls):
        pf = pressure_of(self.periodic_field())
        sphere_bochner(pf, 32)
        sphere_bochner_density(pf)
        assert derivs_calls == []

    def test_each_cache_is_computed_once(self, derivs_calls):
        pf = pressure_of(self.periodic_field())
        first = [pf.dP, pf.d2P, pf.LP, pf.DP2]
        bochner_k(pf)
        bochner_decomposition(pf)
        assert len(derivs_calls) == 1     # bochner_k's L |DP|^2 goes through cylfield
        assert all(a is b for a, b in zip(first, [pf.dP, pf.d2P, pf.LP, pf.DP2]))
        assert not any(a.flags.writeable for a in first)


@pytest.mark.parametrize("levels", range(2, 8))
def test_refinement_grids_are_nested_bitwise(levels):
    # run_identities_suite evaluates each field on its finest grid and slices it
    sizes = _identity_sizes(levels)
    nested = [RadialGrid(1e-3, 1e3, n) for n in sizes]
    finest = nested[-1]
    coeffs = random_log_field_coeffs(np.random.default_rng(levels))
    angular = PeriodicGrid(9)
    fine_values = evaluate_log_field(coeffs, finest, angular, PS2).values
    for j, g in enumerate(nested):
        step = 2 ** (levels - 1 - j)
        assert same_bits(finest.x_nodes[::step], g.x_nodes)
        assert same_bits(finest.nodes[::step], g.nodes)
        assert same_bits(fine_values[::step], evaluate_log_field(coeffs, g, angular, PS2).values)
