"""Mutation kill matrix: the suites' contracts against wrong mathematics.

A contract is evidence only if a wrong program fails it.  Each row patches one
`src/` function with a small error in the formula a suite witnesses, runs that
suite, and asserts that the named contracts fail (a name given twice must fail
twice).  The unmutated suites pass at the same configurations
(`tests/test_verify.py::TestSuites`).

A row whose mutation survives is a finding, not a test to delete or weaken:
it is marked ``xfail(strict=True)`` with its reason, so a contract sharpened
enough to kill it turns the row into a failure that asks to lose its mark.

The identities suite runs at ``n_fields=2``.  The field count only sets how
many random fields the Bochner check draws; all four of its contracts are
computed.  The other suites run at their defaults.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from cknlab import cylfield, estimates, grids, params, pressure, radial_ode, spectral, verify
from cknlab.errors import CknLabError

#: What a suite that raises CknLabError at its fixed configuration fails: `verify`
#: reports it as a contract failure (exit 1) with no report.
RAISES = "raises CknLabError"


def failures(suite: str) -> Counter:
    """Names of the suite's failing checks, counted."""
    run = getattr(verify, f"run_{suite}_suite")
    try:
        report = run(n_fields=2) if suite == "identities" else run()
    except CknLabError:
        return Counter([RAISES])
    if suite == "estimates":
        report = report[0]
    return Counter(c.get("name") or c.get("identity")
                   for c in report["checks"] if not c["pass"])


def patch(monkeypatch, module, name, replacement) -> None:
    """Rebind ``module.name`` in every cknlab module that binds it by name, or
    on ``module`` itself where it is a class.

    Every lazy cknlab module is loaded first (``vars`` runs it): one loaded after
    the rebinding would import the replacement, out of the monkeypatch's reach.
    """
    original = getattr(module, name)
    if isinstance(module, type):    # a method: every instance reads it from the class
        monkeypatch.setattr(module, name, replacement)
        return
    namespaces = [vars(mod) for modname, mod in list(sys.modules.items())
                  if modname.split(".")[0] == "cknlab"]
    for namespace in namespaces:
        for attr, value in list(namespace.items()):
            if value is original:
                monkeypatch.setitem(namespace, attr, replacement)


# --- mutations: each takes the original function and returns the wrong one ---

def second_order_d_dx(original):
    # the 2nd-order central difference in place of the 5-point interior stencil
    central = np.array([0.0, -0.5, 0.0, 0.5, 0.0])
    return lambda values, h: grids._apply_stencil_axis0(
        values, central, grids._D1_EDGE0, grids._D1_EDGE1, h, 1)


def bochner_square_term_off(original):
    # (L P)^2 / n in k[P] taken (1 + 1e-3) times
    return lambda pf: original(pf) - 1e-3 * pf.LP**2 / pf.params.n


def obata_one_over_n_minus_1(original):
    # 1/n -> 1/(n - 1) in the Obata vector's (1/n) P^(1-n) L P D P
    def vector(pf):
        v_r, v_t = original(pf)
        n = pf.params.n
        shift = (1.0 / n - 1.0 / (n - 1.0)) * pressure.pressure_weight(pf.P, n) * pf.LP
        return v_r + shift * pf.dP, None if v_t is None else v_t + shift * pf.thetaP
    return vector


def residual_constant_off(original):
    # the constant 2 (n - 1)^2 / (n - 2) of residual_eq_P taken (1 + 1e-3) times
    def residual(pf):
        n = pf.params.n
        return original(pf) - 1e-3 * 2.0 * (n - 1.0) ** 2 / (n - 2.0) / pf.P
    return residual


def bochner_radial_inner_off(original):
    # the radial part alpha^2 P' (L P)' of <DP, D L P> in k[P] taken (1 + 1e-3) times
    return lambda pf: (original(pf)
                       - 1e-3 * pf.params.alpha**2 * pf.dP * grids.d_ds(pf.LP, pf.grid))


def decomposition_term_off(index):
    # one of (radial_hessian, mixed, sphere) taken (1 + 1e-3) times
    def mutation(original):
        def terms(pf):
            out = list(original(pf))
            out[index] = (1.0 + 1e-3) * out[index]
            return tuple(out)
        return terms
    return mutation


def derivative_off(attr):
    # one of the six arrays of PressureDerivatives taken (1 + 1e-3) times
    def mutation(original):
        def init(self, P, grid, angular, params):
            original(self, P, grid, angular, params)
            if getattr(self, attr) is not None:
                setattr(self, attr, (1.0 + 1e-3) * getattr(self, attr))
        return init
    return mutation


def derivatives_alpha_up(original):
    # alpha taken 1.001 times in the six derivative arrays alone
    def init(self, P, grid, angular, params):
        original(self, P, grid, angular, dataclasses.replace(params, alpha=1.001 * params.alpha))
        self.params = params
    return init


def sphere_coefficient_d(original):
    # (d - 1)/(n - 1) -> d/(n - 1) in the sphere inequality's coefficient
    def margins(P, g1, g2, ps):
        extra = (ps.n - 2.0) / (ps.n - 1.0)
        weight = pressure.pressure_weight(P, ps.n)
        return original(P, g1, g2, ps) - extra * np.mean(weight * g1**2, axis=1) * 2.0 * np.pi
    return margins


def obata_vector_off(original):
    # the Obata vector field V taken (1 + 1e-3) times
    def vector(pf):
        v_r, v_t = original(pf)
        return (1.0 + 1e-3) * v_r, None if v_t is None else (1.0 + 1e-3) * v_t
    return vector


def zero_obata_vector(original):
    # V := 0
    def vector(pf):
        v_r, v_t = original(pf)
        return np.zeros_like(v_r), None if v_t is None else np.zeros_like(v_t)
    return vector


def sector_well_off(original):
    # the well (p - 1) v*^(p - 2) of H_k taken (1 + 1e-5) times
    def potential(ps, k, t):
        well = (ps.p_exp - 1.0) * spectral.soliton_profile(ps, t) ** (ps.p_exp - 2.0)
        return original(ps, k, t) - 1e-5 * well
    return potential


def wrong_sphere_eigenvalue(original):
    # lambda_k = k (k + d - 1) in place of k (k + d - 2)
    return lambda k, d: float(k * (k + d - 1))


def threshold_off(original):
    # the closed-form threshold sqrt((d - 1)/(n - 1)) taken 1.02 times; the default
    # bracket (0.7 and 1.3 times it) still holds the numeric crossing
    return lambda d, n: 1.02 * original(d, n)


def shoot_n_off(original):
    # the ODE integrated at n (1 + 1e-6)
    return lambda ps, w0: original(dataclasses.replace(ps, n=ps.n * (1.0 + 1e-6)), w0)


def shoot_p_up(original):
    # the ODE integrated at p + 1e-6
    return lambda ps, w0: original(dataclasses.replace(ps, p_exp=ps.p_exp + 1e-6), w0)


def comparison_constant_up(original):
    # the comparison constant A = rho^(n-2) min_{r=rho} w taken (1 + 1e-6) times
    def bound(w):
        res = original(w)
        A = (1.0 + 1e-6) * res.A
        tail = w.grid.nodes >= res.rho
        margin = w.values[tail] - A * w.grid.nodes[tail] ** (2.0 - w.params.n)
        return dataclasses.replace(res, A=A, min_margin=float(np.min(margin)))
    return bound


def upper_bound_dropped(original):
    # integrate_mu over (r_lo, r_max) whatever r_hi: the r_max-halving test then
    # compares the energy with itself
    return lambda f, r_lo=None, r_hi=None: original(f, r_lo)


def measure_exponent_off(delta):
    # dmu = r^(n-1) dr dtheta -> r^(n-1-delta) dr dtheta
    def mutation(original):
        def integrate(f, r_lo=None, r_hi=None):
            shifted = f.values * f.grid.column(f.values) ** -delta
            return original(f.with_values(shifted), r_lo, r_hi)
        return integrate
    return mutation


def weight_exponent_off(original):
    # P^(1-n) -> P^(1.05-n)
    return lambda P, n: P ** (1.05 - n)


def zero_defect_density(original):
    return lambda pf: np.zeros_like(pf.P)


def zero_rigidity_defect(original):
    return lambda pf, r_lo=None, r_hi=None: 0.0


def gradient_times_1_5(original):
    # |D w|^2 -> 1.5 |D w|^2
    return lambda w: 1.5 * original(w)


def weak_energy_beta_up(original):
    # the growth law's exponent beta + 0.5
    def weak_energy(w, t):
        res = original(w, t)
        return dataclasses.replace(res, beta=res.beta + 0.5)
    return weak_energy


def weak_energy_fits_down(original):
    # both fitted exponents - 1
    def weak_energy(w, t):
        res = original(w, t)
        ea, eb = res.fitted_exponents
        return dataclasses.replace(res, fitted_exponents=(ea - 1.0, eb - 1.0))
    return weak_energy


def survives(reason):
    # only the kill assertion may fail: a mutation that breaks the run is no finding
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"survives: {reason}")


GROWTH_SLACK = ("the growth checks allow 0.05 to 0.1 of slack, which absorbs a "
                "measure exponent error of 0.03 (killed at 0.1)")
ZERO_DEFECT = ("the defect is 0 on the bubble, and the suite checks it only for "
               "being near 0")
ONE_SIDED = "weak_energy checks only fitted exponent <= beta + 0.1, on slopes alone"
ZERO_MINUS_ZERO = ("on the extremal P is exactly quadratic, so both sides of the "
                   "divergence identity vanish and its fitted order measures 0 - 0")

ALL_BUT_THE_SPHERE = ("bochner_decomposition_vs_definition",
                      "divergence_identity_bubble", "divergence_identity_bubble",
                      "pressure_equation_bubble", "pressure_equation_bubble")

MATRIX = [
    pytest.param(grids, "d_dx", second_order_d_dx, "identities", ALL_BUT_THE_SPHERE,
                 id="d_dx-second-order-interior"),
    pytest.param(pressure, "bochner_k", bochner_square_term_off, "identities",
                 ("bochner_decomposition_vs_definition",
                  "divergence_identity_bubble", "divergence_identity_bubble"),
                 id="bochner_k-LP-square-1e-3"),
    pytest.param(pressure, "obata_vector", obata_one_over_n_minus_1, "identities",
                 ("divergence_identity_bubble",) * 2,
                 id="obata-one-over-n-minus-1"),
    pytest.param(pressure, "residual_eq_P", residual_constant_off, "identities",
                 ("pressure_equation_bubble",) * 2,
                 id="residual-eq-P-constant-1e-3"),
    pytest.param(pressure, "bochner_k", bochner_radial_inner_off, "identities",
                 ("bochner_decomposition_vs_definition",),
                 id="bochner_k-radial-inner-1e-3"),
    *(pytest.param(pressure, "bochner_decomposition", decomposition_term_off(i), "identities",
                   ("bochner_decomposition_vs_definition",),
                   id=f"decomposition-{term}-1e-3")
      for i, term in enumerate(("radial-hessian", "mixed", "sphere"))),
    *(pytest.param(pressure.PressureDerivatives, "__init__", derivative_off(attr),
                   "identities", must_fail, id=f"derivatives-{attr}-1e-3")
      for attr, must_fail in (
          ("thetaP", ("bochner_decomposition_vs_definition",)),
          ("lap_thetaP", ("bochner_decomposition_vs_definition",)),
          ("dP", ("bochner_decomposition_vs_definition",) + ("divergence_identity_bubble",) * 2),
          ("d2P", ("bochner_decomposition_vs_definition",)),
          ("LP", ALL_BUT_THE_SPHERE),
          ("DP2", ALL_BUT_THE_SPHERE))),
    pytest.param(pressure.PressureDerivatives, "__init__", derivatives_alpha_up, "identities",
                 ALL_BUT_THE_SPHERE, id="derivatives-alpha-1.001"),
    pytest.param(pressure, "obata_vector", obata_vector_off, "identities",
                 ("divergence_identity_bubble",),
                 id="obata-vector-1e-3", marks=survives(ZERO_MINUS_ZERO)),
    pytest.param(pressure, "obata_vector", zero_obata_vector, "identities",
                 ("divergence_identity_bubble",),
                 id="obata-vector-zero", marks=survives(ZERO_MINUS_ZERO)),
    pytest.param(pressure, "defect_density", zero_defect_density, "identities",
                 ("divergence_identity_bubble",),
                 id="divergence-defect-density-zero", marks=survives(ZERO_MINUS_ZERO)),
    pytest.param(pressure, "sphere_margins", sphere_coefficient_d, "identities",
                 ("sphere_inequality_margin",),
                 id="sphere-coefficient-d-over-n-1",
                 marks=survives("the 100 random circle profiles have margins at least "
                                "4.47 times the right-hand integral, so a coefficient "
                                "2.4 times too large still passes")),
    pytest.param(spectral, "sector_potential", sector_well_off, "spectrum",
                 ("zero_mode", "zero_mode", "zero_mode"),
                 id="sector-well-1e-5"),
    pytest.param(spectral, "sphere_eigenvalue", wrong_sphere_eigenvalue, "spectrum",
                 (RAISES,),
                 id="sphere-eigenvalue-k-k-d-1"),
    pytest.param(params, "felli_schneider_threshold", threshold_off, "spectrum",
                 ("threshold_crossing",) * 2,
                 id="threshold-closed-form-1.02"),
    pytest.param(radial_ode, "shoot", shoot_n_off, "rigidity",
                 ("radial_rigidity_sweep",) * 3,
                 id="shoot-n-1e-6"),
    pytest.param(radial_ode, "shoot", shoot_p_up, "rigidity",
                 ("radial_rigidity_sweep",) * 3,
                 id="shoot-p-plus-1e-6"),
    pytest.param(estimates, "superharmonic_lower_bound", comparison_constant_up, "estimates",
                 ("superharmonic_lower_bound",) * 3,
                 id="comparison-constant-1e-6"),
    pytest.param(cylfield, "integrate_mu", upper_bound_dropped, "estimates",
                 ("finite_energy_gate_n3",),
                 id="measure-integral-upper-bound-dropped"),
    pytest.param(cylfield, "integrate_mu", measure_exponent_off(0.1), "estimates",
                 ("finite_energy_chain", "low_dim_chain", "low_dim_chain",
                  "low_dim_chain"),
                 id="measure-exponent-0.1"),
    pytest.param(cylfield, "integrate_mu", measure_exponent_off(0.03), "estimates",
                 ("finite_energy_chain", "low_dim_chain"),
                 id="measure-exponent-0.03", marks=survives(GROWTH_SLACK)),
    pytest.param(cylfield, "integrate_mu", measure_exponent_off(0.01), "estimates",
                 ("finite_energy_chain", "low_dim_chain"),
                 id="measure-exponent-0.01", marks=survives(GROWTH_SLACK)),
    pytest.param(pressure, "pressure_weight", weight_exponent_off, "estimates",
                 ("localized_defect_inequality",
                  "low_dim_chain", "low_dim_chain", "low_dim_chain"),
                 id="pressure-weight-exponent-0.05"),
    pytest.param(pressure, "defect_density", zero_defect_density, "estimates",
                 ("localized_defect_inequality",),
                 id="defect-density-zero", marks=survives(ZERO_DEFECT)),
    pytest.param(pressure, "rigidity_defect", zero_rigidity_defect, "estimates",
                 ("finite_energy_chain",),
                 id="rigidity-defect-zero", marks=survives(ZERO_DEFECT)),
    pytest.param(cylfield, "grad_sq", gradient_times_1_5, "estimates",
                 ("weak_energy",),
                 id="gradient-square-1.5", marks=survives(ONE_SIDED)),
    pytest.param(estimates, "weak_energy", weak_energy_beta_up, "estimates",
                 ("weak_energy",),
                 id="weak-energy-beta-plus-0.5", marks=survives(ONE_SIDED)),
    pytest.param(estimates, "weak_energy", weak_energy_fits_down, "estimates",
                 ("weak_energy",),
                 id="weak-energy-fits-minus-1", marks=survives(ONE_SIDED)),
]


@pytest.mark.parametrize("module, name, mutation, suite, must_fail", MATRIX)
def test_contracts_kill_the_mutation(module, name, mutation, suite, must_fail, monkeypatch):
    patch(monkeypatch, module, name, mutation(getattr(module, name)))
    failed = failures(suite)
    assert Counter(must_fail) - failed == Counter(), f"failed: {dict(failed)}"
