"""The in-place 2-D kernels against their allocating forms, bit for bit.

Each ``ref_*`` function below is the plain allocating form of a kernel that
now works through scratch buffers and ufunc ``out=``, or, for the sphere
inequality, the form that checked one circle at a time.  They are the oracles:
every float operation of the rewrite must happen in the same order, so the
outputs agree in ``tobytes()``, signed zeros included.  The file also pins
the field ownership rule, the read-only arrays a PressureField is built with
and shares, the nested refinement grids of `run_identities_suite`, and the row
slabs it evaluates and computes each refinement level in.  Every kernel that
takes a workspace gives, in its buffers, the bits of its allocating call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import grids, pressure, verify
from cknlab.cylfield import (
    CylinderField,
    L_kernel,
    L_of_values,
    PeriodicGrid,
    Radial,
    theta_derivative,
)
from cknlab.grids import RadialGrid, Workspace
from cknlab.params import derive_params
from cknlab.pressure import (
    PressureDerivatives,
    bochner_decomposition,
    bochner_k,
    pressure_of,
    sphere_margins,
)
from cknlab.verify import (
    IDENTITY_BASE,
    _refinement_sizes,
    bochner_residual,
    evaluate_log_field,
    log_field_table,
    random_circle_profile,
    random_log_field_coeffs,
    run_identities_suite,
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


def ref_lap_theta(angular, values):
    return ref_theta_derivative(values, 2) if isinstance(angular, PeriodicGrid) else None


def ref_L_kernel(d1, d2, lap_theta, s, ps):
    out = ps.alpha**2 * (d2 + (ps.n - 1.0) * d1 / s)
    return out if lap_theta is None else out + lap_theta / s**2


def ref_L_of_values(values, grid, angular, ps):
    d1, d2 = ref_radial_derivs(values, grid)
    return ref_L_kernel(d1, d2, ref_lap_theta(angular, values), grid.column(values), ps)


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


def ref_circle_margin(P, g1, g2, ps):
    """The sphere inequality's margin on one circle of P, grad_theta P, Lap_theta P."""
    n = ps.n
    weight = P ** (1.0 - n)
    ks = ref_sphere_k(g1[None], g2[None], n, ps.alpha)[0]
    dtheta = 2.0 * np.pi
    lhs = float(np.mean(weight * ks)) * dtheta
    coeff = (n - 2.0) * ((ps.d - 1.0) / (n - 1.0) - ps.alpha**2)
    return lhs - coeff * float(np.mean(weight * g1**2)) * dtheta


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


def ref_interior_max(values, grid, frac):
    x = grid.x_nodes
    span = x[-1] - x[0]
    mask = (x >= x[0] + frac * span) & (x <= x[-1] - frac * span)
    mask[:4] = False
    mask[len(x) - 4:] = False
    return float(np.max(np.abs(values[mask])))


def pressure_field_from_target(target, grid, angular, ps):
    """PressureField whose P equals `target` exactly (w inverted pointwise)."""
    return pressure_of(CylinderField(grid, angular, source_of_pressure(target, ps.n), ps))


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# drawn fields
# ---------------------------------------------------------------------------

ANGULAR_REPS = [Radial(), PeriodicGrid(9), PeriodicGrid(16)]


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
    @settings(max_examples=60, deadline=None)
    @given(fields(ANGULAR_REPS), st.sampled_from([1e-3, 0.0123, 1.0]))
    def test_axis0_derivatives(self, drawn, h):
        grid, _, _, v = drawn
        assert same_bits(grids.d_dx(v, h), ref_d_dx(v, h))
        assert same_bits(grids.d2_dx2(v, h), ref_d2_dx2(v, h))
        assert same_bits(grids.d_ds(v, grid), ref_d_ds(v, grid))
        for got, want in zip(grids.radial_derivs(v, grid), ref_radial_derivs(v, grid)):
            assert same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(fields(ANGULAR_REPS))
    def test_L_kernel(self, drawn):
        grid, angular, ps, v = drawn
        assert same_bits(L_of_values(v, grid, angular, ps), ref_L_of_values(v, grid, angular, ps))

    @settings(max_examples=40, deadline=None)
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
    @settings(max_examples=60, deadline=None)
    @given(fields(ANGULAR_REPS, positive=True))
    def test_pressure_caches_and_bochner(self, drawn):
        grid, angular, ps, v = drawn
        w = CylinderField(grid, angular, v, ps)
        pf, ref = pressure_of(w), ref_pressure_of(w)
        assert same_bits(pf.P, ref["P"])
        for name in ("thetaP", "lap_thetaP", "dP", "d2P", "LP", "DP2"):
            assert same_bits(getattr(pf, name), ref[name]), name
        assert same_bits(bochner_k(pf), ref_bochner_k(ref))
        t1, t2, t3 = bochner_decomposition(pf)
        r1, r2, r3 = ref_bochner_decomposition(ref)
        assert same_bits(t1, r1)
        assert same_bits(t2, r2)
        assert same_bits(t3, r3)
        assert same_bits(t1 + t2 + t3, r1 + r2 + r3)
        if isinstance(angular, PeriodicGrid):
            P, g1, g2 = ref["P"], ref["thetaP"], ref["lap_thetaP"]
            rows = [ref_circle_margin(P[i], g1[i], g2[i], ps) for i in range(grid.count)]
            assert same_bits(sphere_margins(pf.P, pf.thetaP, pf.lap_thetaP, ps), rows)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sphere_margin_on_one_circle(self, seed):
        # the identities suite stacks its circle profiles and checks them in one
        # batch; each margin has the bits of its circle checked alone, at the
        # fewest angular nodes the suite takes, an even size and its default
        for size in (9, 16, 256):
            rng = np.random.default_rng(seed)
            profiles = np.stack([random_circle_profile(rng, size) for _ in range(20)])
            P = pressure.pressure_values(source_of_pressure(profiles, PS2.n), PS2.n)
            batch = sphere_margins(P, *PeriodicGrid(size).theta_pair(P), PS2)
            alone = []
            for profile in profiles:
                P1 = pressure.pressure_values(source_of_pressure(profile[None, :], PS2.n), PS2.n)
                g1, g2 = ref_theta_pair(PeriodicGrid(size), P1)
                alone.append(ref_circle_margin(P1[0], g1[0], g2[0], PS2))
            assert same_bits(batch, alone)
            # and the bits of a field that carries the first profile at every radius
            target = np.broadcast_to(profiles[0], (16, size)).copy()
            pf = pressure_field_from_target(target, RadialGrid(1e-1, 1e1, 16),
                                            PeriodicGrid(size), PS2)
            rows = sphere_margins(pf.P, pf.thetaP, pf.lap_thetaP, PS2)
            assert same_bits(rows, np.full(16, batch[0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(16, 40), st.sampled_from([9, 16, 31]))
    def test_log_field(self, seed, count, size):
        coeffs = random_log_field_coeffs(np.random.default_rng(seed))
        grid, angular = RadialGrid(1e-3, 1e3, count), PeriodicGrid(size)
        got = evaluate_log_field(coeffs, grid, angular, PS2).values
        assert same_bits(got, ref_evaluate_log_field(coeffs, grid, angular))


def nan_workspace(nbytes: int) -> Workspace:
    """A workspace whose buffers of ``nbytes`` are NaN from an earlier use, so a
    kernel that reads a sample it did not write shows it."""
    ws = Workspace(nbytes)
    held = [ws.empty((nbytes // 8,)) for _ in range(16)]
    for a in held:
        a.fill(np.nan)
    return ws


def same_results(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(same_results, got, want))
    return same_bits(got, want)


def arrays_of(results):
    if isinstance(results, tuple):
        return [a for r in results for a in arrays_of(r)]
    return [] if results is None else [results]


def derivative_arrays(pd):
    return pd.thetaP, pd.lap_thetaP, pd.dP, pd.d2P, pd.LP, pd.DP2


def check_in_workspace(call, nbytes):
    """call() inside ``with ws:`` has the bits of call() outside any workspace, in
    leading views of NaN-filled buffers twice the size it needs, and again in the
    same buffers reused."""
    want = call()
    ws = nan_workspace(2 * nbytes)
    for _ in range(2):
        with ws:
            got = call()
        assert same_results(got, want)
        # a workspace array views one of its byte buffers; an allocated one owns its data
        assert all(a.base is not None and a.base.dtype == np.uint8 for a in arrays_of(got))
        del got                 # its buffers serve the next call


class TestWorkspaceBitwise:
    """1-D and 2-D samples at odd and even heights (16..40) and angular sizes (9, 16):
    a spectrum row of m angles takes 16 (m // 2 + 1) <= 2 * 8 m bytes."""

    @settings(max_examples=40, deadline=None)
    @given(fields(ANGULAR_REPS), st.sampled_from([1e-3, 0.0123, 1.0]))
    def test_radial_and_angular_derivatives(self, drawn, h):
        grid, angular, ps, v = drawn
        nbytes = 2 * v.nbytes
        check_in_workspace(lambda: grids.d_dx(v, h), nbytes)
        check_in_workspace(lambda: grids.d2_dx2(v, h), nbytes)
        check_in_workspace(lambda: grids.d_ds(v, grid), nbytes)
        check_in_workspace(lambda: grids.radial_derivs(v, grid), nbytes)
        check_in_workspace(lambda: angular.theta_pair(v), nbytes)
        check_in_workspace(lambda: angular.grad_theta(v), nbytes)
        check_in_workspace(lambda: angular.lap_theta(v), nbytes)
        check_in_workspace(lambda: L_of_values(v, grid, angular, ps), nbytes)
        if v.ndim == 2:
            for order in (1, 2):
                check_in_workspace(lambda: theta_derivative(v, order), nbytes)

    @settings(max_examples=40, deadline=None)
    @given(fields(ANGULAR_REPS))
    def test_L_kernel_into_its_first_derivative(self, drawn):
        grid, angular, ps, v = drawn
        d1, d2 = grids.radial_derivs(v, grid)
        lap, s = angular.lap_theta(v), grid.column(v)
        want = L_kernel(d1, d2, lap, s, ps)
        check_in_workspace(lambda: L_kernel(d1, d2, lap, s, ps, out=grids.scratch(d1.shape)),
                           2 * v.nbytes)
        d1_out = d1.copy()
        assert L_kernel(d1_out, d2, lap, s, ps, out=d1_out) is d1_out
        assert same_bits(d1_out, want)

    @settings(max_examples=40, deadline=None)
    @given(fields(ANGULAR_REPS, positive=True))
    def test_pressure_and_bochner(self, drawn):
        grid, angular, ps, v = drawn
        nbytes = 2 * v.nbytes
        pf = pressure_of(CylinderField(grid, angular, v, ps))
        check_in_workspace(lambda: derivative_arrays(PressureDerivatives(pf.P, grid, angular, ps)),
                           nbytes)
        check_in_workspace(lambda: bochner_k(pf), nbytes)
        check_in_workspace(lambda: bochner_decomposition(pf), nbytes)
        if pf.thetaP is not None:
            check_in_workspace(lambda: pressure._sphere_k(pf.thetaP, pf.lap_thetaP, ps.n,
                                                          ps.alpha), nbytes)

        def slab():   # derivatives alone, all from the workspace, as a slab has them
            derived = PressureDerivatives(pf.P, grid, angular, ps)
            return bochner_decomposition(derived) + (bochner_k(derived),)

        check_in_workspace(slab, nbytes)
        assert same_results(slab(), bochner_decomposition(pf) + (bochner_k(pf),))

    @settings(max_examples=40, deadline=None)
    @given(fields(ANGULAR_REPS, positive=True))
    def test_pressure_round_trip_in_place(self, drawn):
        _, _, ps, v = drawn
        w = source_of_pressure(v, ps.n)
        in_place = v.copy()
        assert source_of_pressure(in_place, ps.n, out=in_place) is in_place
        assert same_bits(in_place, w)
        P = pressure.pressure_values(w, ps.n)
        assert pressure.pressure_values(in_place, ps.n, out=in_place) is in_place
        assert same_bits(in_place, P)
        assert same_bits(P, (ps.n - 1.0) * w ** (-2.0 / (ps.n - 2.0)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(16, 41), st.sampled_from([9, 16]),
           st.data())
    def test_log_field_rows(self, seed, count, size, data):
        table = log_field_table(random_log_field_coeffs(np.random.default_rng(seed)),
                                PeriodicGrid(size))
        grid = RadialGrid(1e-3, 1e3, count)
        lo = data.draw(st.integers(0, count - 1))
        hi = data.draw(st.integers(lo + 1, count))
        check_in_workspace(lambda: verify.log_field_rows(table, grid, lo, hi), 8 * size * count)


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


class TestPressureFieldArrays:
    @staticmethod
    def spy(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    def periodic_field(self):
        grid = RadialGrid(1e-1, 1e1, 64)
        coeffs = random_log_field_coeffs(np.random.default_rng(7))
        target = evaluate_log_field(coeffs, grid, PeriodicGrid(16), PS2).values
        w = ((PS2.n - 1.0) / target) ** ((PS2.n - 2.0) / 2.0)
        return CylinderField(grid, PeriodicGrid(16), w, PS2)

    def radial_field(self):
        grid = RadialGrid(1e-1, 1e1, 64)
        return CylinderField(grid, Radial(), 1.0 / (1.0 + grid.nodes**2) ** 2, PS3)

    def test_pressure_of_takes_one_radial_pass(self, monkeypatch):
        calls = []
        self.spy(monkeypatch, pressure, "radial_derivs", calls)
        for w in (self.periodic_field(), self.radial_field()):
            calls.clear()
            pf = pressure_of(w)
            assert len(calls) == 1 and calls[0][1][0] is pf.P

    def test_bochner_reads_the_field_arrays(self, monkeypatch):
        # k[P] and its decomposition differentiate |DP|^2, L P and grad_theta P
        # as the field holds them, and take no derivative of P again
        pf = pressure_of(self.periodic_field())
        calls = []
        for name in ("radial_derivs", "L_of_values", "d_ds", "_sphere_k"):
            self.spy(monkeypatch, pressure, name, calls)
        bochner_k(pf)
        bochner_decomposition(pf)
        assert [name for name, _ in calls] == ["L_of_values", "d_ds", "d_ds", "_sphere_k"]
        expected = [(pf.DP2,), (pf.LP,), (pf.thetaP,), (pf.thetaP, pf.lap_thetaP)]
        for (_, args), arrays in zip(calls, expected):
            assert all(a is b for a, b in zip(args, arrays))

    def test_every_array_is_read_only(self):
        for w in (self.periodic_field(), self.radial_field()):
            pf = pressure_of(w)
            arrays = [getattr(pf, name) for name in
                      ("thetaP", "lap_thetaP", "dP", "d2P", "LP", "DP2")] + [pf.P]
            held = [a for a in arrays if a is not None]
            assert len(held) == (7 if isinstance(w.angular, PeriodicGrid) else 5)
            for a in held:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a *= 2.0

    def test_the_derivatives_keep_no_pressure(self):
        # what lets a slab's P buffer serve its Bochner terms: once P is dropped,
        # the next array of P's size views P's buffer (told by id, since a
        # reference would keep it busy)
        for w in (self.periodic_field(), self.radial_field()):
            with Workspace(2 * w.values.nbytes):   # room for a row spectrum
                P = grids.scratch(w.values.shape)
                P[...] = pressure.pressure_values(w.values, w.params.n)
                buffer = id(P.base)
                derived = PressureDerivatives(P, w.grid, w.angular, w.params)
                del P           # derived stays alive: its arrays hold the other buffers
                assert id(grids.scratch(w.values.shape).base) == buffer
                del derived

    def test_identities_sphere_check_takes_no_radial_derivative(self, monkeypatch):
        # the suite's radial stencil passes all come before the sphere check,
        # whose batch of circle profiles takes none
        events = []
        for name in ("d_dx", "d2_dx2"):
            original = getattr(grids, name)

            def recording(values, h, original=original, name=name, **kwargs):
                events.append(name)
                return original(values, h, **kwargs)

            monkeypatch.setattr(grids, name, recording)
        profile = verify.random_circle_profile

        def sphere_phase(rng, size):
            events.append("random_circle_profile")
            return profile(rng, size)

        monkeypatch.setattr(verify, "random_circle_profile", sphere_phase)
        report = run_identities_suite(n_fields=1)
        assert report["checks"][-1]["identity"] == "sphere_inequality_margin"
        start = events.index("random_circle_profile")
        assert {"d_dx", "d2_dx2"} <= set(events[:start])
        assert set(events[start:]) == {"random_circle_profile"}


class TestSlabsBitwise:
    """`bochner_residual` computes a refinement level slab by slab, each slab
    evaluating the field on its own rows; each level's value is the whole
    grid's interior_max of the Bochner difference, bit for bit."""

    @pytest.mark.parametrize("angular_size", [9, 16])
    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_slab_max_is_the_whole_level(self, levels, angular_size, monkeypatch):
        sizes = _refinement_sizes(levels, IDENTITY_BASE)
        nested = [RadialGrid(1e-3, 1e3, n) for n in sizes]
        angular = PeriodicGrid(angular_size)
        coeffs = random_log_field_coeffs(np.random.default_rng(10 * levels + angular_size))
        table = log_field_table(coeffs, angular)
        finest = evaluate_log_field(coeffs, nested[-1], angular, PS2).values
        default_budget = verify.SLAB_BYTES
        for j, g in enumerate(nested):
            target = finest[::2 ** (levels - 1 - j)]
            pf = pressure_field_from_target(target, g, angular, PS2)
            t1, t2, t3 = bochner_decomposition(pf)
            diff = t1 + t2 + t3 - bochner_k(pf)
            whole = ref_interior_max(diff, g, frac=0.1)
            # one window row per slab on the coarsest level, ragged slabs of
            # at most 37 rows above it, then the default budget
            height = 1 if j == 0 else 37
            for budget in (8 * angular_size * height, default_budget):
                monkeypatch.setattr(verify, "SLAB_BYTES", budget)
                with verify.slab_workspace([g], angular):
                    slab_max = bochner_residual(table, g, angular, PS2)
                assert np.float64(slab_max).tobytes() == np.float64(whole).tobytes()

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_each_slab_evaluates_the_levels_rows(self, levels, monkeypatch):
        sizes = _refinement_sizes(levels, IDENTITY_BASE)
        angular = PeriodicGrid(16)
        coeffs = random_log_field_coeffs(np.random.default_rng(levels))
        table = log_field_table(coeffs, angular)
        windows = []
        rows_of = verify.log_field_rows

        def recording(table, grid, lo, hi):
            rows = rows_of(table, grid, lo, hi)
            windows.append((lo, hi, rows.copy()))
            return rows

        monkeypatch.setattr(verify, "log_field_rows", recording)
        monkeypatch.setattr(verify, "SLAB_BYTES", 8 * 16 * 37)
        for n in sizes:
            g = RadialGrid(1e-3, 1e3, n)
            whole = evaluate_log_field(coeffs, g, angular, PS2).values
            windows.clear()
            with verify.slab_workspace([g], angular):
                bochner_residual(table, g, angular, PS2)
            slabs = verify._slabs(verify.interior_rows(g), angular.size)
            assert len(windows) == len(slabs) > 1
            for (lo, hi, rows), slab in zip(windows, slabs):
                assert (lo, hi) == (slab.start - verify.SLAB_HALO, slab.stop + verify.SLAB_HALO)
                assert same_bits(rows, whole[lo:hi])

    def test_slabs_split_the_window_evenly(self, monkeypatch):
        window = range(26, 231)                    # 205 rows
        monkeypatch.setattr(verify, "SLAB_BYTES", 8 * 16 * 64)
        slabs = verify._slabs(window, 16)          # 4 slabs of at most 64 rows
        assert [len(s) for s in slabs] == [51, 51, 51, 52]
        assert slabs[0].start == 26 and slabs[-1].stop == 231
        assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
        monkeypatch.setattr(verify, "SLAB_BYTES", 8)
        assert [len(s) for s in verify._slabs(window, 16)] == [1] * 205
        monkeypatch.undo()     # at most 128 rows at 256 angles: the 1025-node window
        assert [len(s) for s in verify._slabs(range(103, 922), 256)] == [117] * 7

    def test_rows_keep_the_parent_node_bits(self):
        parent = RadialGrid(1e-3, 1e3, 1025)
        for lo, hi in ((0, 9), (98, 926), (1016, 1025)):
            sub = parent.rows(lo, hi)
            assert sub.count == hi - lo
            assert same_bits(sub.nodes, parent.nodes[lo:hi])
            assert same_bits(sub.x_nodes, parent.x_nodes[lo:hi])
            assert same_bits(np.float64(sub.log_step), np.float64(parent.log_step))
            assert not sub.nodes.flags.writeable and not sub.x_nodes.flags.writeable

    @pytest.mark.parametrize("count", [16, 257, 1025])
    def test_interior_rows_are_the_mask(self, count):
        frac = verify.INTERIOR_FRAC
        grid = RadialGrid(1e-3, 1e3, count)
        values = np.random.default_rng(count).standard_normal(count)
        rows = verify.interior_rows(grid)
        mask = np.zeros(count, dtype=bool)
        mask[rows.start:rows.stop] = True
        x = grid.x_nodes
        span = x[-1] - x[0]
        expected = (x >= x[0] + frac * span) & (x <= x[-1] - frac * span)
        expected[:4] = expected[count - 4:] = False
        assert np.array_equal(mask, expected)
        if rows:
            assert verify.interior_max(values, grid) == ref_interior_max(values, grid, frac)


@pytest.mark.parametrize("levels", range(2, 8))
def test_refinement_grids_are_nested_bitwise(levels):
    # bochner_residual evaluates each level on that level's own grid; its rows
    # are the finest grid's rows sliced, so every level samples one function
    sizes = _refinement_sizes(levels, IDENTITY_BASE)
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
