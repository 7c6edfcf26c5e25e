"""Verification suites: identities, estimates, rigidity, spectrum.

Each suite runs a battery of numerical contracts (identity consistency at
4th order under refinement, sign and growth laws at their predicted rates,
radial rigidity sweeps, threshold location) and returns a JSON-ready report
with an overall pass flag and the first failing contract named.  Suites are
deterministic: a fixed seed fixes every random field, and pooled work items
are emitted in input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubble import bubble_cylinder, cylinder_amplitude
from .cylfield import CylinderField, PeriodicGrid, theta_nodes
from .errors import NotFiniteEnergy
from .estimates import (
    finite_energy_chain,
    int_ineq_sides,
    low_dim_chain,
    make_cutoff,
    superharmonic_lower_bound,
    weak_energy,
)
from .fitting import fit_loglog, fitted_order
from .grids import RadialGrid
from .params import ParamSet, derive_params
from .pressure import (
    bochner_decomposition,
    bochner_k,
    circle_bochner,
    divergence_form_residual,
    pressure_of,
    pressure_values,
    residual_eq_P,
)
from .radial_ode import radial_rigidity_sweep
from .reporting import ordered_map
from .spectral import fs_crossing, zero_mode_eigenvalue

DEFAULT_SEED = 20240601

# Admissible triples used across suites, chosen once so reports are stable.
D2_IDENTITY_PARAMS = (-0.3, 0.2, 2)            # n = 4, alpha = 0.3, symmetric
SWEEP_PARAMS_3 = ((0.0, 0.0, 3), (-0.5, 0.0, 3), (-0.3, 0.2, 2))
WEAK_ENERGY_PARAMS = {                          # intrinsic dimension -> triple
    5: (-0.25, 0.15, 3),
    6: (-0.5, 0.0, 3),
    8: (-0.7, -0.075, 3),
}
LOW_DIM_PARAMS = {                              # n in (2, 4) needs d = 2
    2.5: (-0.15, 0.05, 2),
    3.0: (-0.3, -0.3 + 1.0 / 3.0, 2),
    3.5: (-0.4, -0.4 + 3.0 / 7.0, 2),
}
SPECTRUM_ZERO_MODE_PARAMS = ((-0.5, 0.0, 3), (-0.4, 0.1, 2), (-0.25, 0.15, 3))
SPECTRUM_CROSSING_PAIRS = ((3, 6.0), (2, 4.0))

# Contract tolerances that no caller varies.
SPHERE_MARGIN_TOL = 1e-8        # identities: sphere inequality margin
ZERO_MODE_TOL = 1e-6            # spectrum: |translation zero-mode eigenvalue|
CROSSING_GAP_TOL = 0.01         # spectrum: relative gap to the closed-form threshold

# Highest harmonic of the sphere check's circle profiles, and the fewest angular
# nodes that represent it: degree K needs 2K + 1 equispaced samples and aliases on
# fewer (on one node every theta-derivative vanishes and the identities hold vacuously).
CIRCLE_MAX_HARMONIC = 4
MIN_ANGULAR_SIZE = 2 * CIRCLE_MAX_HARMONIC + 1


def interior_max(values: np.ndarray, grid: RadialGrid, frac: float = 0.06) -> float:
    """Max |values| over a fixed physical window, four nodes clear of each end.

    Refinement studies compare this across grids, so the window is tied to
    the domain, not the node count.
    """
    x = grid.x_nodes
    span = x[-1] - x[0]
    lo, hi = x[0] + frac * span, x[-1] - frac * span
    mask = (x >= lo) & (x <= hi)
    mask[:4] = False
    mask[len(x) - 4:] = False
    return float(np.max(np.abs(values[mask])))


# ---------------------------------------------------------------------------
# Random smooth positive fields (seeded; resampled exactly on any grid)
# ---------------------------------------------------------------------------

def random_log_field_coeffs(rng: np.random.Generator) -> dict:
    """Coefficients of xi^i cos/sin(k theta) for radial degree i <= 4 and harmonic k <= 3."""
    shape = (5, 4)
    return {
        "cos": rng.uniform(-0.25, 0.25, size=shape),
        "sin": rng.uniform(-0.25, 0.25, size=shape),
    }


def evaluate_log_field(coeffs: dict, grid: RadialGrid, angular: PeriodicGrid,
                       ps: ParamSet) -> CylinderField:
    """P(s, theta) = exp(sum_ik xi^i (c_ik cos k theta + s_ik sin k theta)).

    xi is the log-radius normalized to [-1, 1]; the same coefficients define
    the same analytic function on every grid, which is what refinement
    studies require.
    """
    x = grid.x_nodes
    xi = (2.0 * x - (x[0] + x[-1])) / (x[-1] - x[0])
    th = theta_nodes(angular)
    ccos, csin = coeffs["cos"], coeffs["sin"]
    harmonics = range(ccos.shape[1])
    cos_k = [np.cos(k * th) for k in harmonics]
    sin_k = [np.sin(k * th) for k in harmonics]
    g = np.zeros((grid.count, angular.size))
    term = np.empty_like(g)
    for i in range(ccos.shape[0]):
        radial = (xi**i)[:, None]
        for k in harmonics:
            ang = ccos[i, k] * cos_k[k] + csin[i, k] * sin_k[k]
            np.multiply(radial, ang, out=term)
            g += term
    return CylinderField(grid, angular, np.exp(g, out=g), ps)


def random_circle_profile(rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive trigonometric polynomial of degree CIRCLE_MAX_HARMONIC on S^1 (min >= 0.15)."""
    th = theta_nodes(PeriodicGrid(size))
    a = rng.uniform(-1.0, 1.0, size=CIRCLE_MAX_HARMONIC)
    b = rng.uniform(-1.0, 1.0, size=CIRCLE_MAX_HARMONIC)
    total = np.sum(np.abs(a)) + np.sum(np.abs(b))
    target = rng.uniform(0.2, 0.85)
    a, b = a * target / total, b * target / total
    prof = np.ones_like(th)
    for k in range(1, CIRCLE_MAX_HARMONIC + 1):
        prof += a[k - 1] * np.cos(k * th) + b[k - 1] * np.sin(k * th)
    return prof


def pressure_field_from_target(target: np.ndarray, grid: RadialGrid,
                               angular: PeriodicGrid, ps: ParamSet):
    """PressureField whose P equals `target` exactly (w inverted pointwise)."""
    return pressure_of(CylinderField(grid, angular, source_of_pressure(target, ps.n), ps))


def source_of_pressure(target: np.ndarray, n: float) -> np.ndarray:
    """The w whose pressure is `target`: ((n-1)/P)^((n-2)/2), sample by sample."""
    return ((n - 1.0) / target) ** ((n - 2.0) / 2.0)


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    def add(self, check: dict) -> None:
        self.checks.append(check)

    def to_dict(self) -> dict:
        ok = all(c.get("pass", False) for c in self.checks)
        first = next((c.get("name") or c.get("identity")
                      for c in self.checks if not c.get("pass", False)), None)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "pass": ok,
            "first_failure": first,
            "checks": self.checks,
        }


def _refinement_sizes(levels: int = 3, base: int = 513) -> list[int]:
    return [(base - 1) * 2**i + 1 for i in range(levels)]


IDENTITY_LEVELS = 3      # refinement levels of run_identities_suite
IDENTITY_ANGULAR = 256   # angular nodes of run_identities_suite


def _identity_sizes(levels: int) -> list[int]:
    return _refinement_sizes(levels, base=257)


def identities_field_samples(levels: int, angular_size: int) -> int:
    """Samples of the largest array `run_identities_suite` builds: a field on its finest grid."""
    return _identity_sizes(levels)[-1] * angular_size


def run_identities_suite(
    seed: int = DEFAULT_SEED,
    n_fields: int = 8,
    n_sphere_fields: int = 100,
    levels: int = IDENTITY_LEVELS,
    angular_size: int = IDENTITY_ANGULAR,
    order_floor: float = 3.8,
) -> dict:
    """Pointwise identity battery on seeded random fields and bubbles.

    * Bochner decomposition sum == definition of k[P] at 4th order (d = 2).
    * Divergence (Obata) identity residual -> 0 at 4th order on bubbles.
    * Pressure equation residual -> 0 at 4th order on bubbles.
    * Sphere inequality margin >= -tol on random positive circle profiles.
    """
    rng = np.random.default_rng(seed)
    report = SuiteReport(suite="identities", seed=seed)
    ps2 = derive_params(*D2_IDENTITY_PARAMS)
    sizes = _identity_sizes(levels)
    grids = [RadialGrid(1e-3, 1e3, n) for n in sizes]
    h_values = [g.log_step for g in grids]
    angular = PeriodicGrid(angular_size)

    all_coeffs = [random_log_field_coeffs(rng) for _ in range(n_fields)]

    def decomposition_orders(coeffs):
        # Each coarser grid's nodes are every 2^j-th node of the finest grid,
        # bit for bit, so one evaluation on the finest grid serves every level.
        finest = evaluate_log_field(coeffs, grids[-1], angular, ps2).values
        errs = []
        for j, g in enumerate(grids):
            target = finest[::2 ** (len(grids) - 1 - j)]
            pf = pressure_field_from_target(target, g, angular, ps2)
            diff = bochner_decomposition(pf).total().values - bochner_k(pf).values
            errs.append(interior_max(diff, g, frac=0.1))
        return errs, fitted_order(h_values, errs)

    field_results = ordered_map(decomposition_orders, all_coeffs)
    orders = [o for _, o in field_results]
    report.add({
        "identity": "bochner_decomposition_vs_definition",
        "param_set": ps2.to_dict(),
        "grid_sizes": sizes,
        "fields": n_fields,
        "fitted_orders": orders,
        "min_fitted_order": min(orders),
        "max_residual_worst": max(max(errs) for errs, _ in field_results),
        "pass": min(orders) >= order_floor,
    })

    # Bubble pressure is exactly quadratic, so the h^4 truncation signal of
    # the solution identities has a small prefactor; the refinement triple
    # stays coarse enough to sit in the truncation-dominated regime (the
    # float64 sample-rounding floor grows like eps/h^2 under refinement).
    bubble_sizes = _refinement_sizes(levels, base=97)
    bubble_grids = [RadialGrid(1e-3, 1e3, nn) for nn in bubble_sizes]
    bubble_h = [g.log_step for g in bubble_grids]
    for triple in ((-0.5, 0.0, 3), D2_IDENTITY_PARAMS):
        ps = derive_params(*triple)
        div_errs, prs_errs = [], []
        for g in bubble_grids:
            pf = pressure_of(bubble_cylinder(ps, g))
            div_errs.append(interior_max(divergence_form_residual(pf).values, g, frac=0.1))
            prs_errs.append(interior_max(residual_eq_P(pf).values, g, frac=0.1))
        o_div = fitted_order(bubble_h, div_errs)
        o_prs = fitted_order(bubble_h, prs_errs)
        report.add({
            "identity": "divergence_identity_bubble",
            "param_set": ps.to_dict(),
            "grid_sizes": bubble_sizes,
            "max_residual": div_errs,
            "fitted_order": o_div,
            "pass": o_div >= order_floor,
        })
        report.add({
            "identity": "pressure_equation_bubble",
            "param_set": ps.to_dict(),
            "grid_sizes": bubble_sizes,
            "max_residual": prs_errs,
            "fitted_order": o_prs,
            "pass": o_prs >= order_floor,
        })

    profiles = [random_circle_profile(rng, angular_size) for _ in range(n_sphere_fields)]

    def sphere_margin(profile):
        # A field with this circle profile at every radius is read at one
        # radius, so its pressure is built on that one circle.
        P = pressure_values(source_of_pressure(profile[None, :], ps2.n), ps2.n)
        g1, g2 = angular.theta_pair(P)
        return circle_bochner(P[0], g1[0], g2[0], ps2).margin

    margins = ordered_map(sphere_margin, profiles)
    report.add({
        "identity": "sphere_inequality_margin",
        "param_set": ps2.to_dict(),
        "fields": n_sphere_fields,
        "min_margin": min(margins),
        "pass": min(margins) >= -SPHERE_MARGIN_TOL,
    })
    return report.to_dict()


# ---------------------------------------------------------------------------
# estimates suite
# ---------------------------------------------------------------------------

def _param_label(ps: ParamSet) -> str:
    return f"a={ps.a};b={ps.b};d={ps.d}"


def run_estimates_suite(seed: int = DEFAULT_SEED, grid_count: int = 2048) -> tuple[dict, list]:
    """Growth-law battery on bubble inputs; returns (report, CSV rows).

    CSV columns: lemma, params, R, lhs, rhs, fitted_exponent, bound, pass.
    """
    report = SuiteReport(suite="estimates", seed=seed)
    rows = []
    grid = RadialGrid(1e-3, 1e3, grid_count)

    # comparison lower bound + extremal tail rate
    for triple in SWEEP_PARAMS_3:
        ps = derive_params(*triple)
        w = bubble_cylinder(ps, grid)
        bound = superharmonic_lower_bound(w, rho=1.0)
        tail = (grid.nodes >= 1e2)
        slope = fit_loglog(grid.nodes[tail], w.values[tail]).slope
        ok = bound.min_margin >= -1e-10 and abs(slope - (2.0 - ps.n)) <= 1e-3
        report.add({
            "name": "superharmonic_lower_bound",
            "param_set": ps.to_dict(),
            "A": bound.A,
            "min_margin": bound.min_margin,
            "tail_slope": slope,
            "expected_tail_slope": 2.0 - ps.n,
            "pass": ok,
        })
        rows.append(("superharmonic_bound", _param_label(ps), bound.rho,
                     bound.min_margin, bound.A, slope, 2.0 - ps.n, ok))

    # weak energy growth law
    for n_target, triple in WEAK_ENERGY_PARAMS.items():
        ps = derive_params(*triple)
        w = bubble_cylinder(ps, grid)
        for t in (-1.5, -2.5):
            res = weak_energy(w, t)
            ea, eb = res.fitted_exponents
            ok = ea <= res.beta + 0.1 and eb <= res.beta + 0.1
            report.add({
                "name": "weak_energy",
                "param_set": ps.to_dict(),
                "t": t,
                "beta": res.beta,
                "fitted_exponents": [ea, eb],
                "pass": ok,
            })
            for R, va, vb in zip(res.R_list, res.values_A, res.values_B):
                rows.append(("weak_energy", _param_label(ps) + f";t={t}",
                             float(R), float(va), float(vb), max(ea, eb),
                             res.beta + 0.1, ok))

    # low intrinsic dimension chain (wide grid so the fit window is asymptotic)
    wide = RadialGrid(1e-3, 1e4, 2561)
    R_list = 128.0 * 2.0 ** np.arange(6)
    for n_target, triple in LOW_DIM_PARAMS.items():
        ps = derive_params(*triple)
        pf = pressure_of(bubble_cylinder(ps, wide))
        chain = low_dim_chain(pf, R_list=R_list)
        expected = 4.0 - ps.n
        ok = abs(chain.grad_integral_growth - expected) <= 0.05 and chain.closes
        report.add({
            "name": "low_dim_chain",
            "param_set": ps.to_dict(),
            "grad_integral_growth": chain.grad_integral_growth,
            "expected_growth": expected,
            "defect_decay": chain.defect_decay,
            "closes": chain.closes,
            "pass": ok,
        })
        for R, gv, bv in zip(chain.R_list, chain.grad_values, chain.bound_values):
            rows.append(("defect_vs_gradient", _param_label(ps), float(R),
                         float(gv), float(bv), chain.grad_integral_growth,
                         expected, ok))

    # finite energy chain at n = 6 plus the not-finite-energy pathway at n = 3
    ps6 = derive_params(-0.5, 0.0, 3)
    chain6 = finite_energy_chain(bubble_cylinder(ps6, grid))
    ok6 = (abs(chain6.pressure_tail_exponent - (4.0 - ps6.n)) <= 0.05
           and abs(chain6.defect) < 1e-6)
    report.add({
        "name": "finite_energy_chain",
        "param_set": ps6.to_dict(),
        "pressure_tail_exponent": chain6.pressure_tail_exponent,
        "expected_exponent": 4.0 - ps6.n,
        "plain_tail_exponent": chain6.plain_tail_exponent,
        "total_energy": chain6.total_energy,
        "defect": chain6.defect,
        "pass": ok6,
    })
    for R, pv, ev in zip(chain6.R_list, chain6.pressure_tail_values,
                         chain6.plain_tail_values):
        rows.append(("finite_energy_tail", _param_label(ps6), float(R),
                     float(pv), float(ev), chain6.pressure_tail_exponent,
                     4.0 - ps6.n, ok6))

    ps3 = derive_params(0.0, 0.0, 3)
    try:
        finite_energy_chain(bubble_cylinder(ps3, grid))
        uncertified = False
    except NotFiniteEnergy:
        uncertified = True
    report.add({
        "name": "finite_energy_gate_n3",
        "param_set": ps3.to_dict(),
        "uncertified_as_expected": uncertified,
        "pass": uncertified,
    })

    # localized defect inequality on the bubble
    psh = derive_params(-0.5, 0.0, 3)
    pfh = pressure_of(bubble_cylinder(psh, grid))
    R_cut = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    sides = int_ineq_sides(pfh, [make_cutoff(R, s_power=2.0) for R in R_cut])
    lhs_vals = [side.lhs for side in sides]
    rhs_vals = [side.rhs_weighted for side in sides]
    rhs_slope = fit_loglog(R_cut, rhs_vals).slope
    lhs_ok = min(lhs_vals) >= -1e-8 and max(abs(v) for v in lhs_vals) < 1e-6
    rhs_ok = abs(rhs_slope - (2.0 - psh.n)) <= 0.1 and min(rhs_vals) > 0
    report.add({
        "name": "localized_defect_inequality",
        "param_set": psh.to_dict(),
        "lhs_values": lhs_vals,
        "rhs_values": rhs_vals,
        "rhs_fitted_exponent": rhs_slope,
        "expected_rhs_exponent": 2.0 - psh.n,
        "empirical_C": max(l / r for l, r in zip(lhs_vals, rhs_vals)),
        "pass": lhs_ok and rhs_ok,
    })
    for R, l, r in zip(R_cut, lhs_vals, rhs_vals):
        rows.append(("localized_defect", _param_label(psh), float(R), float(l),
                     float(r), rhs_slope, 2.0 - psh.n, lhs_ok and rhs_ok))

    return report.to_dict(), rows


# ---------------------------------------------------------------------------
# rigidity suite
# ---------------------------------------------------------------------------

def run_rigidity_suite(
    seed: int = DEFAULT_SEED,
    param_triples=SWEEP_PARAMS_3,
    amplitudes: int = 10,
) -> dict:
    """Radial rigidity sweeps: every decaying shot matches a scaled extremal."""
    report = SuiteReport(suite="rigidity", seed=seed)

    def one(triple):
        ps = derive_params(*triple)
        c0 = cylinder_amplitude(ps)
        w0_grid = c0 * np.logspace(-0.5, 0.5, amplitudes)
        return radial_rigidity_sweep(ps, w0_grid)

    # Serial: the sweeps are Python-bound ODE right-hand sides, so a thread
    # pool measured slower than this loop.
    for sweep in map(one, param_triples):
        d = sweep.to_dict()
        d["name"] = "radial_rigidity_sweep"
        d["pass"] = sweep.all_matched
        report.add(d)
    return report.to_dict()


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------

def run_spectrum_suite(seed: int = DEFAULT_SEED, N: int = 2000) -> dict:
    """Zero-mode oracle plus threshold crossings against the closed form."""
    report = SuiteReport(suite="spectrum", seed=seed)
    for triple in SPECTRUM_ZERO_MODE_PARAMS:
        ps = derive_params(*triple)
        est = zero_mode_eigenvalue(ps, N=N)
        report.add({
            "name": "zero_mode",
            "param_set": ps.to_dict(),
            "eigenvalue": est.value,
            "uncertainty": est.uncertainty,
            "pass": abs(est.value) < ZERO_MODE_TOL,
        })
    for d, n in SPECTRUM_CROSSING_PAIRS:
        crossing = fs_crossing(d, n, N=N)
        report.add({
            "name": "threshold_crossing",
            **crossing.to_dict(),
            "pass": crossing.relative_gap < CROSSING_GAP_TOL,
        })
    return report.to_dict()
