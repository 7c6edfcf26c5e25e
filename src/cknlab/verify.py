"""Verification suites: identities, estimates, rigidity, spectrum.

Each suite runs a battery of numerical contracts (identity consistency at
4th order under refinement, sign and growth laws at their predicted rates,
radial rigidity sweeps, threshold location) and returns a JSON-ready report
with an overall pass flag and the first failing contract named.  Suites are
deterministic: a fixed seed fixes every random field, and pooled work items
are emitted in input order.  The identities suite's pool threads share one
slab workspace, each taking buffers of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubble import bubble_cylinder
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
from .fitting import fit_loglog
from .grids import RadialGrid, Workspace, scratch
from .params import ParamSet, derive_params
from .pressure import (
    PressureDerivatives,
    bochner_k,
    bochner_terms,
    divergence_form_residual,
    pressure_of,
    pressure_values,
    residual_eq_P,
    sphere_margins,
)
from .radial_ode import radial_rigidity_sweep
# Imported above is every module the pooled items touch, so each is loaded before
# ordered_map starts a thread: a first read of a lazy module is not thread-safe.
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
IDENTITY_ORDER_FLOOR = 3.8      # identities: least fitted convergence order
INTERIOR_FRAC = 0.1             # identities: log span dropped at each end of the residual window
SPHERE_FIELDS = 100             # identities: random circle profiles of the sphere check
SPHERE_MARGIN_TOL = 1e-8        # identities: sphere inequality margin
ZERO_MODE_TOL = 1e-6            # spectrum: |translation zero-mode eigenvalue|
CROSSING_GAP_TOL = 0.01         # spectrum: relative gap to the closed-form threshold

# Highest harmonic of the sphere check's circle profiles: degree K needs 2K + 1
# equispaced angular nodes and aliases on fewer.
CIRCLE_MAX_HARMONIC = 4


def interior_rows(grid: RadialGrid) -> range:
    """Rows whose log-radius lies in a fixed physical window, four nodes clear of each end.

    The window drops ``INTERIOR_FRAC`` of the log span at each end.  Refinement studies
    compare residuals across grids, so it is tied to the domain, not the node
    count.  The nodes increase, so the rows are contiguous.
    """
    x = grid.x_nodes
    span = x[-1] - x[0]
    lo = int(np.searchsorted(x, x[0] + INTERIOR_FRAC * span, side="left"))
    hi = int(np.searchsorted(x, x[-1] - INTERIOR_FRAC * span, side="right"))
    return range(max(lo, 4), min(hi, len(x) - 4))


def interior_max(values: np.ndarray, grid: RadialGrid) -> float:
    """Max |values| over the rows of ``interior_rows(grid)``.

    Only these rows are read, so a caller may compute just them and their
    stencils' reach (see `bochner_residual`).
    """
    rows = interior_rows(grid)
    return float(np.max(np.abs(values[rows.start:rows.stop])))


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


def log_field_table(coeffs: dict, angular: PeriodicGrid) -> np.ndarray:
    """The angular factors c_ik cos k theta + s_ik sin k theta of a log field,
    one row per (radial degree i, harmonic k), in the order they are summed."""
    th = theta_nodes(angular)
    ccos, csin = coeffs["cos"], coeffs["sin"]
    harmonics = range(ccos.shape[1])
    cos_k = [np.cos(k * th) for k in harmonics]
    sin_k = [np.sin(k * th) for k in harmonics]
    return np.array([[ccos[i, k] * cos_k[k] + csin[i, k] * sin_k[k] for k in harmonics]
                     for i in range(ccos.shape[0])])


def log_field_rows(table: np.ndarray, grid: RadialGrid, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the log field with angular factors ``table`` on ``grid``.

    Every sample is computed on its own, the same way on any window, so the
    rows are bit for bit those of the whole grid's evaluation.  The degree-0
    factors multiply xi^0 = 1, which moves no bit, so their sum is taken once
    on one row and copied to every row.
    """
    x = grid.x_nodes
    xi = (2.0 * x[lo:hi] - (x[0] + x[-1])) / (x[-1] - x[0])
    constant = np.zeros(table.shape[-1])
    for ang in table[0]:
        constant += ang
    g = scratch((hi - lo, table.shape[-1]))
    g[:] = constant
    term = scratch(g.shape)
    for i in range(1, len(table)):
        radial = xi**i
        for ang in table[i]:
            np.einsum("i,j->ij", radial, ang, out=term)
            g += term
    return np.exp(g, out=g)


def evaluate_log_field(coeffs: dict, grid: RadialGrid, angular: PeriodicGrid,
                       ps: ParamSet) -> CylinderField:
    """P(s, theta) = exp(sum_ik xi^i (c_ik cos k theta + s_ik sin k theta)).

    xi is the log-radius normalized to [-1, 1]; the same coefficients define
    the same analytic function on every grid, which is what refinement
    studies require.
    """
    rows = log_field_rows(log_field_table(coeffs, angular), grid, 0, grid.count)
    return CylinderField(grid, angular, rows, ps)


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


def source_of_pressure(target: np.ndarray, n: float, *,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The w whose pressure is `target`: ((n-1)/P)^((n-2)/2), sample by sample,
    into ``out`` (``target`` itself may be it)."""
    w = np.divide(n - 1.0, target, out=out)
    w **= (n - 2.0) / 2.0
    return w


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


def _refinement_sizes(levels: int, base: int) -> list[int]:
    return [(base - 1) * 2**i + 1 for i in range(levels)]


IDENTITY_FIELDS = 8      # random fields of run_identities_suite
IDENTITY_LEVELS = 3      # refinement levels of run_identities_suite
IDENTITY_ANGULAR = 256   # angular nodes of run_identities_suite
IDENTITY_BASE = 257      # radial nodes of the coarsest random-field grid

# Rows a slab carries beyond the rows it reports on: k[P] nests two 5-point
# radial stencils (d/dr of L P, L of |DP|^2), each reaching 2 rows, so a
# one-sided edge closure at a slab cut reaches no further than 4 rows in.
SLAB_HALO = 4
# Bytes of one float array over the reported rows of a slab: 256 rows at 256
# angles.  A slab's numpy calls must outlast the pool's turns on the GIL: at
# 128 rows a subtract/multiply/add run took about 22 us and ran 0.70-0.82x as
# fast on two threads as on one (an rfft+irfft pair, about 270 us, ran 1.8x).
# Twice the rows halve the calls a field makes.
SLAB_BYTES = 512 * 1024


def _slabs(rows: range, angular_size: int) -> list[range]:
    """``rows`` cut into near-equal contiguous slabs of at most SLAB_BYTES per float array."""
    height = max(1, SLAB_BYTES // (8 * angular_size))
    count = -(-len(rows) // height)
    edges = [rows.start + len(rows) * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _window(slab: range, grid: RadialGrid) -> tuple[int, int]:
    """The rows lo..hi-1 a slab evaluates: SLAB_HALO more on each side, clipped at
    the grid's ends."""
    return max(slab.start - SLAB_HALO, 0), min(slab.stop + SLAB_HALO, grid.count)


def slab_workspace(grids: list[RadialGrid], angular: PeriodicGrid) -> Workspace:
    """A workspace for `bochner_residual` on each of ``grids``: each buffer holds the
    tallest slab window's rows of samples, or of their angular spectra."""
    rows = max(hi - lo for g in grids
               for lo, hi in (_window(slab, g) for slab in _slabs(interior_rows(g), angular.size)))
    return Workspace(rows * np.dtype(complex).itemsize * (angular.size // 2 + 1))


def bochner_residual(table: np.ndarray, grid: RadialGrid, angular: PeriodicGrid,
                     ps: ParamSet) -> float:
    """interior_max(radial_hessian + mixed + sphere - bochner_k(pf), grid),
    with the three terms of bochner_terms(pf), for the pressure field pf
    whose samples are the log field with angular factors ``table`` on ``grid``,
    bit for bit, a slab at a time.

    Each slab evaluates the field on its window of the grid, which reaches
    SLAB_HALO rows further on each side (clipped at the grid's ends), so the
    rows it reports are the whole grid's; the rows outside ``interior_rows``
    are never computed, and no array spans the level.  A slab's arrays come
    from `scratch` and are gone when it ends, so within the scope of a
    `slab_workspace` of grids holding ``grid`` each slab reuses its predecessor's buffers.
    """
    return float(np.max([_slab_residual(table, grid, angular, ps, slab)
                         for slab in _slabs(interior_rows(grid), angular.size)]))


def _slab_residual(table: np.ndarray, grid: RadialGrid, angular: PeriodicGrid,
                   ps: ParamSet, slab: range) -> np.float64:
    """max |radial_hessian + mixed + sphere - k[P]| over the rows of ``slab``.

    The field's rows are taken to their source w and back, in place, so P is
    the pressure of a field as `pressure_of` would make it; only P's
    derivatives are kept, so P's buffer serves the Bochner terms.  Each term is
    added as it arrives, (radial_hessian + mixed) + sphere, and dropped; then
    P'' and Lap_theta P go, since k[P] reads neither: a slab holds at most 9
    of its workspace's buffers at once.
    """
    lo, hi = _window(slab, grid)
    P = log_field_rows(table, grid, lo, hi)
    pressure_values(source_of_pressure(P, ps.n, out=P), ps.n, out=P)
    pf = PressureDerivatives(P, grid.rows(lo, hi), angular, ps)
    del P
    terms = bochner_terms(pf)
    diff = next(terms)
    for term in terms:
        diff += term
        del term
    del pf.d2P, pf.lap_thetaP
    diff -= bochner_k(pf)
    rows = diff[slab.start - lo:slab.stop - lo]
    return np.max(np.abs(rows, out=rows))


def run_identities_suite(seed: int = DEFAULT_SEED, n_fields: int = IDENTITY_FIELDS) -> dict:
    """Pointwise identity battery on seeded random fields and bubbles.

    * Bochner decomposition sum == definition of k[P] at 4th order (d = 2).
    * Divergence (Obata) identity residual -> 0 at 4th order on bubbles.
    * Pressure equation residual -> 0 at 4th order on bubbles.
    * Sphere inequality margin >= -SPHERE_MARGIN_TOL on SPHERE_FIELDS circle profiles.

    "4th order" means a fitted order of at least IDENTITY_ORDER_FLOOR.
    """
    rng = np.random.default_rng(seed)
    report = SuiteReport(suite="identities", seed=seed)
    ps2 = derive_params(*D2_IDENTITY_PARAMS)
    sizes = _refinement_sizes(IDENTITY_LEVELS, IDENTITY_BASE)
    grids = [RadialGrid(1e-3, 1e3, n) for n in sizes]
    h_values = [g.log_step for g in grids]
    angular = PeriodicGrid(IDENTITY_ANGULAR)

    all_coeffs = [random_log_field_coeffs(rng) for _ in range(n_fields)]
    ws = slab_workspace(grids, angular)

    def decomposition_orders(coeffs):
        # Each level evaluates the field slab by slab on its own grid, with the
        # angular factors shared by every level and this thread's buffers of ws.
        table = log_field_table(coeffs, angular)
        with ws:
            errs = [bochner_residual(table, g, angular, ps2) for g in grids]
        return errs, fit_loglog(h_values, errs)

    field_results = ordered_map(decomposition_orders, all_coeffs)
    del ws      # and with it the calling thread's buffers, before the bubble checks
    orders = [o for _, o in field_results]
    report.add({
        "identity": "bochner_decomposition_vs_definition",
        "param_set": ps2.to_dict(),
        "grid_sizes": sizes,
        "fields": n_fields,
        "fitted_orders": orders,
        "min_fitted_order": min(orders),
        "max_residual_worst": max(max(errs) for errs, _ in field_results),
        "pass": min(orders) >= IDENTITY_ORDER_FLOOR,
    })

    # Bubble pressure is exactly quadratic, so the h^4 truncation signal of
    # the solution identities has a small prefactor; the refinement triple
    # stays coarse enough to sit in the truncation-dominated regime (the
    # float64 sample-rounding floor grows like eps/h^2 under refinement).
    bubble_sizes = _refinement_sizes(IDENTITY_LEVELS, 97)
    bubble_grids = [RadialGrid(1e-3, 1e3, nn) for nn in bubble_sizes]
    bubble_h = [g.log_step for g in bubble_grids]
    for triple in ((-0.5, 0.0, 3), D2_IDENTITY_PARAMS):
        ps = derive_params(*triple)
        div_errs, prs_errs = [], []
        for g in bubble_grids:
            pf = pressure_of(bubble_cylinder(ps, g))
            div_errs.append(interior_max(divergence_form_residual(pf), g))
            prs_errs.append(interior_max(residual_eq_P(pf), g))
        o_div = fit_loglog(bubble_h, div_errs)
        o_prs = fit_loglog(bubble_h, prs_errs)
        report.add({
            "identity": "divergence_identity_bubble",
            "param_set": ps.to_dict(),
            "grid_sizes": bubble_sizes,
            "max_residual": div_errs,
            "fitted_order": o_div,
            "pass": o_div >= IDENTITY_ORDER_FLOOR,
        })
        report.add({
            "identity": "pressure_equation_bubble",
            "param_set": ps.to_dict(),
            "grid_sizes": bubble_sizes,
            "max_residual": prs_errs,
            "fitted_order": o_prs,
            "pass": o_prs >= IDENTITY_ORDER_FLOOR,
        })

    # One circle per profile, all checked in one batch: a field with a circle
    # profile at every radius is read at one radius.
    profiles = np.stack([random_circle_profile(rng, IDENTITY_ANGULAR)
                         for _ in range(SPHERE_FIELDS)])
    P = pressure_values(source_of_pressure(profiles, ps2.n), ps2.n)
    min_margin = float(sphere_margins(P, *angular.theta_pair(P), ps2).min())
    report.add({
        "identity": "sphere_inequality_margin",
        "param_set": ps2.to_dict(),
        "fields": SPHERE_FIELDS,
        "min_margin": min_margin,
        "pass": min_margin >= -SPHERE_MARGIN_TOL,
    })
    return report.to_dict()


# ---------------------------------------------------------------------------
# estimates suite
# ---------------------------------------------------------------------------

#: Columns of the rows `run_estimates_suite` returns.
ESTIMATES_HEADER = ["lemma", "params", "R", "lhs", "rhs", "fitted_exponent", "bound", "pass"]


def _param_label(ps: ParamSet) -> str:
    return f"a={ps.a};b={ps.b};d={ps.d}"


def run_estimates_suite(seed: int = DEFAULT_SEED) -> tuple[dict, list]:
    """Growth-law battery on bubble inputs; returns (report, rows under ESTIMATES_HEADER)."""
    report = SuiteReport(suite="estimates", seed=seed)
    rows = []
    grid = RadialGrid(1e-3, 1e3, 2048)

    # comparison lower bound + extremal tail rate
    for triple in SWEEP_PARAMS_3:
        ps = derive_params(*triple)
        w = bubble_cylinder(ps, grid)
        bound = superharmonic_lower_bound(w)
        tail = (grid.nodes >= 1e2)
        slope = fit_loglog(grid.nodes[tail], w.values[tail])
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
    for n_target, triple in LOW_DIM_PARAMS.items():
        ps = derive_params(*triple)
        pf = pressure_of(bubble_cylinder(ps, wide))
        chain = low_dim_chain(pf)
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
    sides = int_ineq_sides(pfh, [make_cutoff(R) for R in R_cut])
    lhs_vals = [side.lhs for side in sides]
    rhs_vals = [side.rhs_weighted for side in sides]
    rhs_slope = fit_loglog(R_cut, rhs_vals)
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

def run_rigidity_suite(seed: int = DEFAULT_SEED, param_triples=SWEEP_PARAMS_3) -> dict:
    """Radial rigidity sweeps at `radial_rigidity_sweep`'s own amplitude grid:
    every decaying shot matches a scaled extremal to `radial_ode.MATCH_TOL`."""
    report = SuiteReport(suite="rigidity", seed=seed)
    # Serial: the sweeps are Python-bound ODE right-hand sides, so a thread
    # pool measured slower than this loop.
    for triple in param_triples:
        sweep = radial_rigidity_sweep(derive_params(*triple))
        d = sweep.to_dict()
        d["name"] = "radial_rigidity_sweep"
        d["pass"] = sweep.all_matched
        report.add(d)
    return report.to_dict()


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------

def run_spectrum_suite(seed: int = DEFAULT_SEED) -> dict:
    """Zero-mode oracle plus threshold crossings against the closed form."""
    report = SuiteReport(suite="spectrum", seed=seed)
    for triple in SPECTRUM_ZERO_MODE_PARAMS:
        ps = derive_params(*triple)
        est = zero_mode_eigenvalue(ps)
        report.add({
            "name": "zero_mode",
            "param_set": ps.to_dict(),
            "eigenvalue": est.value,
            "uncertainty": est.uncertainty,
            "pass": abs(est.value) < ZERO_MODE_TOL,
        })
    for d, n in SPECTRUM_CROSSING_PAIRS:
        crossing = fs_crossing(d, n)
        report.add({
            "name": "threshold_crossing",
            **crossing.to_dict(),
            "pass": crossing.relative_gap < CROSSING_GAP_TOL,
        })
    return report.to_dict()
