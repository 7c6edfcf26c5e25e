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

from .cylfield import CylinderField, L_kernel, grad_cyl, grad_sq, integrate_mu
from .errors import CknLabError, NotFiniteEnergy
from .fitting import fit_loglog
from .grids import radial_derivs
from .pressure import (PressureField, defect_density, pressure_of, pressure_weight,
                       rigidity_defect)

SUPERHARMONIC_GATE_REL_TOL = 1e-6  # L w <= 0 gate, relative to the size of L's terms
ENERGY_STABILITY_TOL = 1e-6        # relative energy change allowed under r_max halving
COMPARISON_RADIUS = 1.0            # inner sphere r = rho of the superharmonic comparison bound
#: Radii of the low-dimension chain: dyadic from 128, its fit window on a grid to r = 1e4.
LOW_DIM_RADII = 128.0 * 2.0 ** np.arange(6)


@dataclass(frozen=True)
class Cutoff:
    """Quintic smoothstep cutoff: 1 on [0, R], 0 on [2R, inf), |eta'| <= 15/(8R)."""

    R: float

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


def make_cutoff(R: float) -> Cutoff:
    if not R > 0:
        raise ValueError("cutoff radius must be positive")
    return Cutoff(R=float(R))


@dataclass(frozen=True)
class IntIneqSides:
    lhs: float           # int P^(1-n) k[P] eta^2 dmu
    rhs_weighted: float  # int P^(1-n) |DP|^2 |eta'|^2 dmu


def int_ineq_sides(pf: PressureField, cutoffs: list[Cutoff]) -> list[IntIneqSides]:
    """Both sides of the localized defect inequality 0 <= lhs <= C rhs, per cutoff.

    The densities P^(1-n) k[P] and P^(1-n) |DP|^2 are computed once for all
    cutoffs.  The sign guarantee needs the symmetric regime; the constant C
    is existential and only reported empirically by callers.  A cutoff whose
    support (0, 2R) runs past the grid raises CknLabError.
    """
    ps = pf.params
    if not ps.is_symmetric:
        raise CknLabError(
            f"alpha = {ps.alpha} exceeds threshold {ps.fs_threshold}; "
            "sign guarantee lost"
        )
    s = pf.grid.column(pf.P.values)
    defect = defect_density(pf)
    grad = pressure_weight(pf.P.values, ps.n) * pf.DP2
    sides = []
    for cut in cutoffs:
        eta2 = cut.eta(s) ** 2.0
        etap2 = cut.eta_prime(s) ** 2
        lhs = integrate_mu(pf.field(defect * eta2), r_hi=2.0 * cut.R)
        rhs = integrate_mu(pf.field(grad * etap2), cut.R, 2.0 * cut.R)
        sides.append(IntIneqSides(lhs=lhs, rhs_weighted=rhs))
    return sides


@dataclass(frozen=True)
class SuperharmonicBound:
    A: float           # rho^(n-2) * min of w on the sphere r = rho
    min_margin: float  # min over (rho, r_max) of w - A r^(2-n)
    rho: float         # rho snapped to the nearest grid node


def superharmonic_lower_bound(w: CylinderField) -> SuperharmonicBound:
    """Comparison bound w >= A r^(2-n) on (rho, r_max) for L-superharmonic w,
    with rho = COMPARISON_RADIUS.

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
    idx = int(np.argmin(np.abs(grid.x_nodes - np.log(COMPARISON_RADIUS))))
    rho_eff = float(grid.nodes[idx])

    s = grid.column(w.values)
    wp, wpp = radial_derivs(w.values, grid)
    lap = w.angular.lap_theta(w.values)
    Lw = L_kernel(wp, wpp, lap, s, ps)
    magnitude = L_kernel(np.abs(wp), np.abs(wpp), None if lap is None else np.abs(lap), s, ps)
    scale = float(np.max(magnitude[idx:]))
    excess = float(np.max(Lw[idx:]))
    if excess > SUPERHARMONIC_GATE_REL_TOL * scale:
        raise CknLabError(
            f"max L w = {excess:.3e} exceeds {SUPERHARMONIC_GATE_REL_TOL:.1e} "
            f"x scale {scale:.3e}"
        )

    sphere_min = float(np.min(np.atleast_1d(w.values[idx])))
    A = rho_eff ** (n - 2.0) * sphere_min
    margin = w.values[idx:] - A * s[idx:] ** (2.0 - n)
    return SuperharmonicBound(A=A, min_margin=float(np.min(margin)), rho=rho_eff)


def _dyadic_radii(hi: float) -> np.ndarray:
    """Six dyadic radii ending at hi."""
    lo = hi / 2.0**5
    return lo * 2.0 ** np.arange(6)


@dataclass(frozen=True)
class WeakEnergyResult:
    R_list: np.ndarray
    values_A: np.ndarray   # int_(r_min,R) w^(p+t) dmu
    values_B: np.ndarray   # int_(r_min,R) w^t |Dw|^2 dmu
    fitted_exponents: tuple[float, float]
    beta: float


def weak_energy(w: CylinderField, t: float) -> WeakEnergyResult:
    """Weak energy growth law: both integrals over (0, R) are O(R^beta).

    R runs over six dyadic radii up to r_max / 2.
    beta = -(n-2) t / 2 for -2 < t < -1 and -(n-2)(1+t) for t <= -2.
    """
    if t >= -1.0:
        raise CknLabError(f"weak energy estimate needs t < -1, got t = {t}")
    w.require_positive("weak_energy")
    ps = w.params
    n = ps.n
    grid = w.grid
    R_list = _dyadic_radii(grid.r_max / 2.0)
    beta = -(n - 2.0) * t / 2.0 if t > -2.0 else -(n - 2.0) * (1.0 + t)
    fa = w.with_values(w.values ** (ps.p_exp + t))
    fb = w.with_values(w.values**t * grad_sq(w))
    va = np.array([integrate_mu(fa, r_hi=R) for R in R_list])
    vb = np.array([integrate_mu(fb, r_hi=R) for R in R_list])
    ea = fit_loglog(R_list, va)
    eb = fit_loglog(R_list, vb)
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


def low_dim_chain(pf: PressureField) -> LowDimChainResult:
    """Defect-closure chain for 2 < n < 4 (no decay or energy hypotheses).

    Measures, at the radii LOW_DIM_RADII, the growth of the pressure-gradient
    integral (the extremal's own rate is R^(4-n)) and the decay of the
    induced defect bound R^-2 G(2R); the chain closes whenever the growth
    exponent is < 2.
    """
    ps = pf.params
    if not (2.0 < ps.n < 4.0):
        raise CknLabError(f"chain requires 2 < n < 4, got n = {ps.n}")
    if not ps.is_symmetric:
        raise CknLabError("chain requires the symmetric regime")
    R_list = LOW_DIM_RADII.copy()   # the result's own array, not the shared constant
    density = pf.field(pressure_weight(pf.P.values, ps.n) * pf.DP2)
    G = lambda R: integrate_mu(density, r_hi=R)
    grad_values = np.array([G(R) for R in R_list])
    bound_values = np.array([G(2.0 * R) / R**2 for R in R_list])
    growth = fit_loglog(R_list, grad_values)
    decay = fit_loglog(R_list, bound_values)
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


def finite_energy_chain(w: CylinderField) -> FiniteEnergyChainResult:
    """Defect-closure chain for finite-energy solutions, on annuli (R, 2R) at six
    dyadic radii R up to r_max / 4.

    Finiteness is certified on the grid by halving r_max: the energy must be
    stable to ``ENERGY_STABILITY_TOL`` relative, otherwise NotFiniteEnergy.  The
    defect over (0, 2R) is bounded by C R^-2 times the pressure-weighted
    annulus integral, which the comparison lower bound turns into C times
    the plain tail energy; both annulus quantities and their fitted decay
    rates are returned.
    """
    w.require_positive("finite_energy_chain")
    ps = w.params
    grid = w.grid
    energy_field = grad_cyl(w)
    total = integrate_mu(energy_field)
    inner = integrate_mu(energy_field, r_hi=grid.r_max / 2.0)
    rel_tail = abs(total - inner) / abs(total)
    if rel_tail > ENERGY_STABILITY_TOL:
        raise NotFiniteEnergy(
            f"energy integral not stable under r_max halving: relative tail "
            f"{rel_tail:.3e} > {ENERGY_STABILITY_TOL:.1e}"
        )
    R_list = _dyadic_radii(grid.r_max / 4.0)
    weighted = w.with_values(w.values ** (-2.0 / (ps.n - 2.0)) * energy_field.values)
    p_tail = np.array([integrate_mu(weighted, R, 2.0 * R) for R in R_list])
    e_tail = np.array([integrate_mu(energy_field, R, 2.0 * R) for R in R_list])
    defect = rigidity_defect(pressure_of(w))

    def tail_slope(values):
        # compactly supported fields have identically-zero tails: no rate
        return fit_loglog(R_list, values) if np.all(values > 0) else float("nan")

    return FiniteEnergyChainResult(
        R_list=R_list,
        pressure_tail_values=p_tail,
        plain_tail_values=e_tail,
        pressure_tail_exponent=tail_slope(p_tail),
        plain_tail_exponent=tail_slope(e_tail),
        total_energy=total,
        defect=defect,
    )
