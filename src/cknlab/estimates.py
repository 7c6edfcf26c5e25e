"""Cutoffs and integral growth laws.

The rigidity proofs run on a handful of measurable statements: a cutoff
integral inequality bounding the localized defect by a gradient annulus
term, a pointwise r^(2-n) lower bound for L-superharmonic functions, a weak
energy estimate int w^(p+t) + w^t |Dw|^2 <= C R^beta, and two limit chains
(low intrinsic dimension without decay hypotheses; finite energy) that drive
the defect to zero.  Each becomes a function returning the measured sides /
fitted exponents so tests can pin the predicted rates.

Growth and decay exponents are measured by least-squares log-log fits over
dyadic radii; "int over (0, R)" always means (r_min, R) on the grid, with
origin truncation controlled by the integrands' integrability at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylfield import CylinderField, L_kernel, MeasureRegion, grad_cyl, integrate_mu
from .errors import (
    BadExponent,
    NotFiniteEnergy,
    NotSuperharmonic,
    RangeViolation,
    RegimeViolation,
    RegionOutsideGrid,
)
from .fitting import fit_loglog
from .grids import radial_derivs
from .pressure import PressureField, bochner_k, pressure_of, rigidity_defect


@dataclass(frozen=True)
class Cutoff:
    """Quintic smoothstep cutoff: 1 on [0, R], 0 on [2R, inf), |eta'| <= C/R."""

    R: float
    s_power: float
    c_profile: float  # sup |eta'| * R = 15/8 for the quintic smoothstep

    def eta(self, r):
        t = np.clip((2.0 * self.R - np.asarray(r, dtype=float)) / self.R, 0.0, 1.0)
        # final clip guards the ulp-level overshoot of the polynomial near t = 1
        return np.clip(t**3 * (10.0 - 15.0 * t + 6.0 * t**2), 0.0, 1.0)

    def eta_prime(self, r):
        r = np.asarray(r, dtype=float)
        t = (2.0 * self.R - r) / self.R
        inside = (t > 0.0) & (t < 1.0)
        tc = np.clip(t, 0.0, 1.0)
        return np.where(inside, -30.0 * tc**2 * (1.0 - tc) ** 2 / self.R, 0.0)


def make_cutoff(R: float, s_power: float = 2.0) -> Cutoff:
    if not R > 0:
        raise ValueError("cutoff radius must be positive")
    if s_power < 2.0:
        raise ValueError("cutoff exponent s must be >= 2")
    return Cutoff(R=float(R), s_power=float(s_power), c_profile=15.0 / 8.0)


def _defect_density(pf: PressureField) -> np.ndarray:
    return pf.P.values ** (1.0 - pf.n) * bochner_k(pf).values


def _grad_density(pf: PressureField) -> np.ndarray:
    return pf.P.values ** (1.0 - pf.n) * pf.DP2


@dataclass(frozen=True)
class IntIneqSides:
    lhs: float           # int P^(1-n) k[P] eta^s dmu
    rhs_weighted: float  # int P^(1-n) |DP|^2 |eta'|^2 dmu


def int_ineq_sides(pf: PressureField, cut: Cutoff) -> IntIneqSides:
    """Both sides of the localized defect inequality 0 <= lhs <= C rhs.

    The sign guarantee needs the symmetric regime; the constant C is
    existential and only reported empirically by callers.
    """
    ps = pf.params
    if not ps.is_symmetric:
        raise RegimeViolation(
            f"alpha = {ps.alpha} exceeds threshold {ps.fs_threshold}; "
            "sign guarantee lost"
        )
    grid = pf.grid
    if 2.0 * cut.R > grid.r_max * (1.0 + 1e-12):
        raise RegionOutsideGrid("cutoff support (0, 2R) exceeds the grid")
    s = grid.column(pf.P.values)
    eta_s = cut.eta(s) ** cut.s_power
    etap2 = cut.eta_prime(s) ** 2
    lhs = integrate_mu(pf.field(_defect_density(pf) * eta_s),
                       MeasureRegion(grid.r_min, min(2.0 * cut.R, grid.r_max)))
    rhs = integrate_mu(pf.field(_grad_density(pf) * etap2),
                       MeasureRegion(cut.R, min(2.0 * cut.R, grid.r_max)))
    return IntIneqSides(lhs=lhs, rhs_weighted=rhs)


@dataclass(frozen=True)
class SuperharmonicBound:
    A: float           # rho^(n-2) * min of w on the sphere r = rho
    min_margin: float  # min over (rho, r_max) of w - A r^(2-n)
    rho: float         # rho snapped to the nearest grid node


def superharmonic_lower_bound(w: CylinderField, rho: float,
                              gate_rel_tol: float = 1e-6) -> SuperharmonicBound:
    """Comparison bound w >= A r^(2-n) on (rho, r_max) for L-superharmonic w.

    A is the inner-boundary sphere minimum rho^(n-2) min_{r=rho} w (the
    comparison-principle choice; the infimum over the whole outer region
    would be 0 for decaying fields and the bound vacuous).  The L w <= 0
    gate is checked on (rho, r_max) against the size of the terms of L there,
    so exactly L-harmonic fields pass despite discretization noise.
    """
    w.require_positive("superharmonic_lower_bound")
    ps = w.params
    grid = w.grid
    n = ps.n
    idx = int(np.argmin(np.abs(grid.x_nodes - np.log(rho))))
    rho_eff = float(grid.nodes[idx])

    s = grid.column(w.values)
    wp, wpp = radial_derivs(w.values, grid)
    lap = w.angular.lap_theta(w.values, ps.d)
    Lw = L_kernel(wp, wpp, lap, s, ps)
    magnitude = L_kernel(np.abs(wp), np.abs(wpp), None if lap is None else np.abs(lap), s, ps)
    scale = float(np.max(magnitude[idx:]))
    excess = float(np.max(Lw[idx:]))
    if excess > gate_rel_tol * scale:
        raise NotSuperharmonic(
            f"max L w = {excess:.3e} exceeds {gate_rel_tol:.1e} x scale {scale:.3e}"
        )

    sphere_min = float(np.min(np.atleast_1d(w.values[idx])))
    A = rho_eff ** (n - 2.0) * sphere_min
    margin = w.values[idx:] - A * s[idx:] ** (2.0 - n)
    return SuperharmonicBound(A=A, min_margin=float(np.min(margin)), rho=rho_eff)


def _dyadic_radii(grid, count: int = 6, r_hi_cap: float | None = None) -> np.ndarray:
    hi = grid.r_max / 2.0 if r_hi_cap is None else r_hi_cap
    lo = hi / 2.0 ** (count - 1)
    return lo * 2.0 ** np.arange(count)


@dataclass(frozen=True)
class WeakEnergyResult:
    R_list: np.ndarray
    values_A: np.ndarray   # int_(r_min,R) w^(p+t) dmu
    values_B: np.ndarray   # int_(r_min,R) w^t |Dw|^2 dmu
    fitted_exponents: tuple[float, float]
    beta: float


def weak_energy(w: CylinderField, t: float, R_list=None) -> WeakEnergyResult:
    """Weak energy growth law: both integrals over (0, R) are O(R^beta).

    beta = -(n-2) t / 2 for -2 < t < -1 and -(n-2)(1+t) for t <= -2.
    """
    if t >= -1.0:
        raise BadExponent(f"weak energy estimate needs t < -1, got t = {t}")
    w.require_positive("weak_energy")
    ps = w.params
    n = ps.n
    grid = w.grid
    R_list = np.asarray(R_list if R_list is not None else _dyadic_radii(grid), dtype=float)
    beta = -(n - 2.0) * t / 2.0 if t > -2.0 else -(n - 2.0) * (1.0 + t)
    fa = w.with_values(w.values ** (ps.p_exp + t))
    fb = w.with_values(w.values**t * grad_cyl(w).square_norm.values)
    va = np.array([integrate_mu(fa, MeasureRegion(grid.r_min, R)) for R in R_list])
    vb = np.array([integrate_mu(fb, MeasureRegion(grid.r_min, R)) for R in R_list])
    ea = fit_loglog(R_list, va).slope
    eb = fit_loglog(R_list, vb).slope
    return WeakEnergyResult(R_list=R_list, values_A=va, values_B=vb,
                            fitted_exponents=(ea, eb), beta=beta)


@dataclass(frozen=True)
class LowDimChainResult:
    R_list: np.ndarray
    grad_values: np.ndarray    # G(R) = int_(r_min,R) P^(1-n) |DP|^2 dmu
    bound_values: np.ndarray   # R^-2 G(2R), the localized-defect bound
    grad_integral_growth: float
    defect_decay: float
    closes: bool               # growth < 2, so the R^-2 limit closes


def low_dim_chain(pf: PressureField, R_list=None) -> LowDimChainResult:
    """Defect-closure chain for 2 < n < 4 (no decay or energy hypotheses).

    Measures the growth of the pressure-gradient integral (the extremal's
    own rate is R^(4-n)) and the decay of the induced defect bound
    R^-2 G(2R); the chain closes whenever the growth exponent is < 2.
    """
    ps = pf.params
    if not (2.0 < ps.n < 4.0):
        raise RangeViolation(f"chain requires 2 < n < 4, got n = {ps.n}")
    if not ps.is_symmetric:
        raise RegimeViolation("chain requires the symmetric regime")
    grid = pf.grid
    R_list = np.asarray(
        R_list if R_list is not None else _dyadic_radii(grid, r_hi_cap=grid.r_max / 4.0),
        dtype=float,
    )
    density = pf.field(_grad_density(pf))
    G = lambda R: integrate_mu(density, MeasureRegion(grid.r_min, R))
    grad_values = np.array([G(R) for R in R_list])
    bound_values = np.array([G(2.0 * R) / R**2 for R in R_list])
    growth = fit_loglog(R_list, grad_values).slope
    decay = fit_loglog(R_list, bound_values).slope
    return LowDimChainResult(
        R_list=R_list, grad_values=grad_values, bound_values=bound_values,
        grad_integral_growth=growth, defect_decay=decay, closes=growth < 2.0,
    )


@dataclass(frozen=True)
class FiniteEnergyChainResult:
    R_list: np.ndarray
    pressure_tail_values: np.ndarray  # int_(R,2R) w^(-2/(n-2)) |Dw|^2 dmu
    plain_tail_values: np.ndarray     # int_(R,2R) |Dw|^2 dmu
    pressure_tail_exponent: float     # extremal rate 4 - n
    plain_tail_exponent: float        # extremal rate 2 - n
    total_energy: float
    defect: float                     # full-grid rigidity defect


def finite_energy_chain(w: CylinderField, R_list=None,
                        stability_tol: float = 1e-6) -> FiniteEnergyChainResult:
    """Defect-closure chain for finite-energy solutions.

    Finiteness is certified on the grid by halving r_max: the energy must be
    stable to ``stability_tol`` relative, otherwise NotFiniteEnergy.  The
    defect over (0, 2R) is bounded by C R^-2 times the pressure-weighted
    annulus integral, which the comparison lower bound turns into C times
    the plain tail energy; both annulus quantities and their fitted decay
    rates are returned.
    """
    w.require_positive("finite_energy_chain")
    ps = w.params
    grid = w.grid
    energy_field = grad_cyl(w).square_norm
    total = integrate_mu(energy_field)
    inner = integrate_mu(energy_field, MeasureRegion(grid.r_min, grid.r_max / 2.0))
    rel_tail = abs(total - inner) / abs(total)
    if rel_tail > stability_tol:
        raise NotFiniteEnergy(
            f"energy integral not stable under r_max halving: relative tail "
            f"{rel_tail:.3e} > {stability_tol:.1e}"
        )
    R_list = np.asarray(
        R_list if R_list is not None else _dyadic_radii(grid, r_hi_cap=grid.r_max / 4.0),
        dtype=float,
    )
    weighted = w.with_values(w.values ** (-2.0 / (ps.n - 2.0)) * energy_field.values)
    p_tail = np.array(
        [integrate_mu(weighted, MeasureRegion(R, 2.0 * R)) for R in R_list]
    )
    e_tail = np.array(
        [integrate_mu(energy_field, MeasureRegion(R, 2.0 * R)) for R in R_list]
    )
    defect = rigidity_defect(pressure_of(w))

    def tail_slope(values):
        # compactly supported fields have identically-zero tails: no rate
        return fit_loglog(R_list, values).slope if np.all(values > 0) else float("nan")

    return FiniteEnergyChainResult(
        R_list=R_list,
        pressure_tail_values=p_tail,
        plain_tail_values=e_tail,
        pressure_tail_exponent=tail_slope(p_tail),
        plain_tail_exponent=tail_slope(e_tail),
        total_energy=total,
        defect=defect,
    )
