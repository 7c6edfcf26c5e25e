"""Acceptance suite: one test per top-level numerical contract.

Each test prints a single PASS/FAIL line (run with -s to see them inline);
tolerances are pinned here and nowhere else.  Grid choices per criterion are
documented next to the assertion that needs them.
"""

import time

import numpy as np

from cknlab.bubble import (
    bubble_cylinder,
    bubble_cylinder_values,
    cylinder_amplitude,
    make_bubble,
)
from cknlab.estimates import (
    finite_energy_chain,
    low_dim_chain,
    superharmonic_lower_bound,
    weak_energy,
)
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid
from cknlab.params import derive_params
from cknlab.pressure import pressure_of, rigidity_defect, rigidity_defect_breakdown
from cknlab.radial_ode import radial_rigidity_sweep
from cknlab.reporting import json_text
from cknlab.spectral import fs_crossing, zero_mode_eigenvalue
from cknlab.verify import (
    LOW_DIM_PARAMS,
    SWEEP_PARAMS_3,
    WEAK_ENERGY_PARAMS,
    run_identities_suite,
)

from test_oracles import (
    pressure_amplitude,
    residual_euclidean,
    residual_eq_w_closed_form,
    residual_scale,
)

FIVE_TRIPLES = [
    (0.0, 0.0, 3),
    (-0.5, 0.0, 3),
    (0.0, 0.0, 4),
    (-0.3, 0.2, 2),
    (0.1, 0.3, 5),
]


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_sobolev_reduction():
    t0 = time.perf_counter()
    reps = 1000
    for _ in range(reps):
        for d in (3, 4, 5):
            ps = derive_params(0.0, 0.0, d)
    per_call = (time.perf_counter() - t0) / (3 * reps)
    worst = 0.0
    for d in (3, 4, 5):
        ps = derive_params(0.0, 0.0, d)
        for got, expected in ((ps.p_exp, 2.0 * d / (d - 2.0)), (ps.alpha, 1.0),
                              (ps.n, float(d)), (ps.fs_threshold, 1.0)):
            worst = max(worst, abs(got - expected) / abs(expected))
    ok = worst <= 1e-14 and per_call < 1e-3
    report(1, ok, f"Sobolev reduction exact to {worst:.2e} (<= 1e-14), "
                  f"{per_call * 1e6:.1f} us/call (< 1 ms)")


def test_criterion_2_bubble_residuals():
    t0 = time.perf_counter()
    grid = RadialGrid(1e-3, 1e3, 2048)  # default grid
    radii = np.logspace(-2, 2, 1000)
    worst_euclid = 0.0
    worst_cyl = 0.0
    for trip in FIVE_TRIPLES:
        ps = derive_params(*trip)
        spec = make_bubble(ps)
        rel = np.abs(residual_euclidean(spec, radii) / residual_scale(spec, radii))
        worst_euclid = max(worst_euclid, float(rel.max()))
        # cylinder residual via the closed-form derivatives of the profile
        # (the FD route hits the float64 sample-rounding floor in the flat
        # region; see the op's documentation)
        res = residual_eq_w_closed_form(ps, grid.nodes)
        norm = np.max(bubble_cylinder_values(ps, grid.nodes) ** (ps.p_exp - 1.0))
        worst_cyl = max(worst_cyl, float(np.max(np.abs(res)) / norm))
    elapsed = time.perf_counter() - t0
    ok = worst_euclid < 1e-11 and worst_cyl < 1e-8 and elapsed < 1.0
    report(2, ok, f"euclidean residual {worst_euclid:.2e} (< 1e-11), cylinder "
                  f"residual {worst_cyl:.2e} (< 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_3_pressure_quadratic():
    # |P - A(1+s^2)|/A amplifies pow() rounding by (1+s^2); grids capped at
    # r_max = 10 keep the literal normalizer meaningful, and the scale-free
    # pointwise-relative deviation is asserted on the full default domain
    worst_A = 0.0
    worst_rel = 0.0
    for trip in FIVE_TRIPLES:
        ps = derive_params(*trip)
        if not ps.is_symmetric:
            continue
        g10 = RadialGrid(1e-3, 10.0, 2048)
        A = pressure_amplitude(ps)
        P = pressure_of(bubble_cylinder(ps, g10)).P
        quad = A * (1.0 + g10.nodes**2)
        worst_A = max(worst_A, float(np.max(np.abs(P - quad)) / A))
        g_full = RadialGrid(1e-3, 1e3, 2048)
        P_full = pressure_of(bubble_cylinder(ps, g_full)).P
        quad_full = A * (1.0 + g_full.nodes**2)
        worst_rel = max(worst_rel, float(np.max(np.abs(P_full / quad_full - 1.0))))
    ok = worst_A < 1e-10 and worst_rel < 1e-10
    report(3, ok, f"max |P - A(1+s^2)|/A = {worst_A:.2e} (< 1e-10, r <= 10); "
                  f"pointwise relative {worst_rel:.2e} (< 1e-10, full domain)")


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    rep = run_identities_suite(n_fields=50)
    elapsed = time.perf_counter() - t0
    by_name = {}
    for c in rep["checks"]:
        by_name.setdefault(c.get("name") or c.get("identity"), []).append(c)
    dec = by_name["bochner_decomposition_vs_definition"][0]
    div_orders = [c["fitted_order"] for c in by_name["divergence_identity_bubble"]]
    margin = by_name["sphere_inequality_margin"][0]["min_margin"]
    ok = (rep["pass"] and dec["min_fitted_order"] >= 3.8
          and min(div_orders) >= 3.8 and margin >= -1e-8 and elapsed < 60.0
          and by_name["sphere_inequality_margin"][0]["fields"] == 100)
    report(4, ok, f"eq-decomposition order >= {dec['min_fitted_order']:.2f} on 50 fields, "
                  f"divergence identity orders {['%.2f' % o for o in div_orders]}, "
                  f"sphere margin min {margin:.2e} (>= -1e-8) on 100 circles, "
                  f"{elapsed:.1f} s (< 60 s)")


def test_criterion_5_rigidity_defect():
    # grid unpinned by the criterion: N = 8192 puts the h^4 discretization
    # bias of the defect integrand well below the 1e-8 target
    grid = RadialGrid(1e-3, 1e3, 8192)
    worst_defect = 0.0
    worst_term = 0.0
    for trip in FIVE_TRIPLES:
        ps = derive_params(*trip)
        if not ps.is_symmetric:
            continue
        pf = pressure_of(bubble_cylinder(ps, grid))
        worst_defect = max(worst_defect, abs(rigidity_defect(pf)))
        bd = rigidity_defect_breakdown(pf)
        worst_term = min(bd["radial_hessian"], bd["mixed"], bd["sphere"])
    ok = worst_defect < 1e-8 and worst_term >= -1e-8
    report(5, ok, f"bubble defect max |.| = {worst_defect:.2e} (< 1e-8), "
                  f"decomposition terms >= {worst_term:.2e} (>= -1e-8)")


def test_criterion_6_estimates():
    grid = RadialGrid(1e-3, 1e3, 2048)
    fails = []

    # comparison bound and bubble tail rate
    worst_margin, worst_slope_err = 0.0, 0.0
    for trip in SWEEP_PARAMS_3:
        ps = derive_params(*trip)
        w = bubble_cylinder(ps, grid)
        bound = superharmonic_lower_bound(w)
        worst_margin = min(worst_margin, bound.min_margin)
        tail = grid.nodes >= 1e2
        slope = fit_loglog(grid.nodes[tail], w.values[tail])
        worst_slope_err = max(worst_slope_err, abs(slope - (2.0 - ps.n)))
    if worst_margin < -1e-10 or worst_slope_err > 1e-3:
        fails.append("superharmonic bound")

    # weak energy growth exponents
    for n_t, trip in WEAK_ENERGY_PARAMS.items():
        ps = derive_params(*trip)
        w = bubble_cylinder(ps, grid)
        for t in (-1.5, -2.5):
            res = weak_energy(w, t)
            if max(res.fitted_exponents) > res.beta + 0.1:
                fails.append(f"weak energy n={n_t} t={t}")

    # low intrinsic dimension chain
    wide = RadialGrid(1e-3, 1e4, 2561)
    growth = {}
    for n_t, trip in LOW_DIM_PARAMS.items():
        ps = derive_params(*trip)
        chain = low_dim_chain(pressure_of(bubble_cylinder(ps, wide)))
        growth[n_t] = chain.grad_integral_growth
        if abs(chain.grad_integral_growth - (4.0 - n_t)) > 0.05 or not chain.closes:
            fails.append(f"low-dim chain n={n_t}")

    # finite energy chain at n = 6
    chain6 = finite_energy_chain(bubble_cylinder(derive_params(-0.5, 0.0, 3), grid))
    if abs(chain6.pressure_tail_exponent - (-2.0)) > 0.05:
        fails.append("finite-energy tail rate")

    ok = not fails
    report(6, ok, f"lb margin >= {worst_margin:.1e}, tail slope err "
                  f"{worst_slope_err:.1e}; weak-energy exponents within beta+0.1; "
                  f"low-dim growth {({k: round(v, 3) for k, v in growth.items()})}; "
                  f"finite-energy tail {chain6.pressure_tail_exponent:.3f} "
                  + (f"FAILED: {fails}" if fails else ""))


def test_criterion_7_radial_rigidity():
    t0 = time.perf_counter()
    results, grids_ok = [], True
    for trip in SWEEP_PARAMS_3:
        ps = derive_params(*trip)
        rep = radial_rigidity_sweep(ps)  # its default: 10 amplitudes c0 * 10^[-0.5, 0.5]
        grids_ok &= np.array_equal([e.w0 for e in rep.entries],
                                   cylinder_amplitude(ps) * np.logspace(-0.5, 0.5, 10))
        results.append(rep)
    elapsed = time.perf_counter() - t0
    worst = max(e.sup_rel_error for rep in results for e in rep.entries)
    ok = (grids_ok and all(rep.all_matched for rep in results) and worst < 1e-6
          and elapsed < 30.0)
    report(7, ok, f"3 parameter sets x 10 amplitudes all matched, worst sup "
                  f"relative error {worst:.2e} (< 1e-6), {elapsed:.1f} s (< 30 s)")


def test_criterion_8_symmetry_breaking_threshold():
    t0 = time.perf_counter()
    gaps = {}
    for d, n in ((3, 6.0), (2, 4.0)):
        crossing = fs_crossing(d, n)
        gaps[(d, n)] = crossing.relative_gap
    zero_worst = 0.0
    for trip in ((-0.5, 0.0, 3), (-0.4, 0.1, 2), (-0.25, 0.15, 3)):
        est = zero_mode_eigenvalue(derive_params(*trip))
        zero_worst = max(zero_worst, abs(est.value))
    elapsed = time.perf_counter() - t0
    ok = max(gaps.values()) < 0.01 and zero_worst < 1e-6 and elapsed < 120.0
    report(8, ok, f"crossing gaps {({k: '%.4f%%' % (100 * v) for k, v in gaps.items()})} "
                  f"(< 1%), zero modes <= {zero_worst:.2e} (< 1e-6), "
                  f"{elapsed:.1f} s (< 120 s)")


def test_criterion_9_determinism():
    texts = [json_text(run_identities_suite(seed=20240601, n_fields=3)) for _ in range(2)]
    ok = texts[0] == texts[1] and len(texts[0]) > 100
    report(9, ok, f"repeated verify reports byte-identical "
                  f"({len(texts[0])} bytes)")
