"""Pressure function, Bochner quantity, divergence identity, rigidity defect.

For a positive cylinder field w the pressure is P = (n-1) w^(-2/(n-2)).
When w solves -L w = w^(p-1) the pressure satisfies
    L P = 2(n-1)^2/(n-2) P^(-1) + (n/2) |DP|^2 P^(-1),
and the Bochner quantity
    k[P] = 1/2 L |DP|^2 - <DP, D L P> - (1/n) (L P)^2
admits both a pointwise decomposition into three sign-controlled pieces and
an Obata-type divergence form
    P^(1-n) k[P] = D_i( 1/2 P^(1-n) D_i |DP|^2 - (1/n) P^(1-n) L P D_i P ).
The rigidity defect int P^(1-n) k[P] dmu is nonnegative in the symmetric
regime and vanishes exactly on the extremal.

Non-solution inputs are always accepted: every routine is a diagnostic, not
a validator.  L, and the divergence in the same weighted radial form
(alpha^2 (d/dr + (n-1)/r)), come from `cylfield.L_kernel`, so integration by
parts mirrors the continuum; angular derivatives come from the field's
angular representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylfield import (
    CylinderField,
    L_kernel,
    L_of_values,
    MeasureRegion,
    integrate_mu,
    theta_derivative,
)
from .grids import d_ds, radial_derivs


@dataclass(frozen=True)
class PressureField:
    """Pressure P = (n-1) w^(-2/(n-2)) with 4th-order derivative caches."""

    P: CylinderField
    source_w: CylinderField
    n: float
    dP: np.ndarray                 # P'
    d2P: np.ndarray                # P''
    thetaP: np.ndarray | None      # grad_theta P      (None for Radial)
    lap_thetaP: np.ndarray | None  # Lap_theta P       (None for Radial)
    mixed: np.ndarray | None       # d/dr grad_theta P (None for Radial)
    LP: np.ndarray                 # L P
    DP2: np.ndarray                # |DP|^2

    @property
    def grid(self):
        return self.P.grid

    @property
    def params(self):
        return self.P.params

    @property
    def s(self):
        return self.grid.column(self.P.values)

    def field(self, values: np.ndarray) -> CylinderField:
        return self.P.with_values(values)


def pressure_of(w: CylinderField) -> PressureField:
    w.require_positive("pressure_of")
    ps = w.params
    n = ps.n
    vals = (n - 1.0) * w.values ** (-2.0 / (n - 2.0))
    P = w.with_values(vals)
    grid = w.grid
    s = grid.column(vals)
    dP, d2P = radial_derivs(vals, grid)
    thetaP, lap_thetaP = w.angular.theta_pair(vals)
    LP = L_kernel(dP, d2P, lap_thetaP, s, ps)
    mixed = None if thetaP is None else d_ds(thetaP, grid)
    DP2 = ps.alpha**2 * dP**2
    if thetaP is not None:
        DP2 = DP2 + thetaP**2 / s**2
    return PressureField(
        P=P, source_w=w, n=n, dP=dP, d2P=d2P, thetaP=thetaP,
        lap_thetaP=lap_thetaP, mixed=mixed, LP=LP, DP2=DP2,
    )


def residual_eq_P(pf: PressureField) -> CylinderField:
    """L P - 2(n-1)^2/(n-2) P^(-1) - (n/2) |DP|^2 P^(-1).

    Zero at grid scale when the source field solves the cylinder equation;
    otherwise a diagnostic of how far it is from doing so.
    """
    n = pf.n
    Pinv = 1.0 / pf.P.values
    res = pf.LP - 2.0 * (n - 1.0) ** 2 / (n - 2.0) * Pinv - 0.5 * n * pf.DP2 * Pinv
    return pf.field(res)


def bochner_k(pf: PressureField) -> CylinderField:
    """k[P] = 1/2 L |DP|^2 - <DP, D L P> - (1/n) (L P)^2."""
    ps = pf.params
    half_LG = 0.5 * L_of_values(pf.DP2, pf.grid, pf.P.angular, ps)
    inner = ps.alpha**2 * pf.dP * d_ds(pf.LP, pf.grid)
    grad_LP = pf.P.angular.grad_theta(pf.LP)
    if grad_LP is not None:
        inner = inner + pf.thetaP * grad_LP / pf.s**2
    return pf.field(half_LG - inner - pf.LP**2 / pf.n)


def sphere_bochner_density(pf: PressureField) -> np.ndarray:
    """k_S[P] on each sphere slice (d = 2 reduction of the sphere Bochner term).

    k_S = 1/2 Lap_theta |grad_theta P|^2 - grad_theta P . grad_theta Lap_theta P
          - (Lap_theta P)^2/(n-1) - (n-2) alpha^2 |grad_theta P|^2.
    """
    pf.P.angular.require_periodic("sphere Bochner term")
    ps = pf.params
    g1 = pf.thetaP
    g2 = pf.lap_thetaP
    term = 0.5 * theta_derivative(g1**2, 2) - g1 * theta_derivative(g2, 1)
    return term - g2**2 / (pf.n - 1.0) - (pf.n - 2.0) * ps.alpha**2 * g1**2


@dataclass(frozen=True)
class BochnerDecomposition:
    term_radial_hessian: CylinderField
    term_mixed: CylinderField
    term_sphere: CylinderField

    def total(self) -> CylinderField:
        return self.term_radial_hessian.with_values(
            self.term_radial_hessian.values
            + self.term_mixed.values
            + self.term_sphere.values
        )


def bochner_decomposition(pf: PressureField) -> BochnerDecomposition:
    """The three summands whose sum reproduces k[P] pointwise.

    term_radial_hessian = (n-1)/n alpha^4 |P'' - P'/r - Lap_theta P/(alpha^2 (n-1) r^2)|^2
    term_mixed          = 2 alpha^2 r^-2 |grad_theta P' - grad_theta P / r|^2
    term_sphere         = r^-4 k_S[P]
    """
    ps = pf.params
    n = pf.n
    s = pf.s
    radial_deficit = pf.d2P - pf.dP / s
    if pf.lap_thetaP is not None:
        radial_deficit = radial_deficit - pf.lap_thetaP / (ps.alpha**2 * (n - 1.0) * s**2)
    t1 = (n - 1.0) / n * ps.alpha**4 * radial_deficit**2
    if pf.thetaP is None:
        t2 = t3 = np.zeros_like(t1)
    else:
        t2 = 2.0 * ps.alpha**2 / s**2 * (pf.mixed - pf.thetaP / s) ** 2
        t3 = sphere_bochner_density(pf) / s**4
    return BochnerDecomposition(
        term_radial_hessian=pf.field(t1),
        term_mixed=pf.field(t2),
        term_sphere=pf.field(t3),
    )


@dataclass(frozen=True)
class SphereBochnerSides:
    k_sphere_integral: float
    rhs_bound: float

    @property
    def margin(self) -> float:
        return self.k_sphere_integral - self.rhs_bound


def sphere_bochner(pf: PressureField, radius_index: int) -> SphereBochnerSides:
    """Sphere inequality at one radius (r-independent form):

        int_S P^(1-n) k_S[P] dtheta
            >= (n-2) ((d-1)/(n-1) - alpha^2) int_S P^(1-n) |grad_theta P|^2 dtheta.
    """
    pf.P.angular.require_periodic("sphere_bochner")
    ps = pf.params
    n = pf.n
    weight = pf.P.values[radius_index] ** (1.0 - n)
    ks = sphere_bochner_density(pf)[radius_index]
    g1 = pf.thetaP[radius_index]
    dtheta = 2.0 * np.pi
    lhs = float(np.mean(weight * ks)) * dtheta
    coeff = (n - 2.0) * ((ps.d - 1.0) / (n - 1.0) - ps.alpha**2)
    rhs = coeff * float(np.mean(weight * g1**2)) * dtheta
    return SphereBochnerSides(k_sphere_integral=lhs, rhs_bound=rhs)


def weighted_divergence(pf: PressureField, v_radial: np.ndarray,
                        v_theta: np.ndarray | None = None) -> np.ndarray:
    """D_i V_i in the same weighted form as L:

        alpha^2 (dV_r/dr + (n-1) V_r / r) + div_theta V_theta / r^2.
    """
    div_theta = None if v_theta is None else pf.P.angular.grad_theta(v_theta)
    return L_kernel(v_radial, d_ds(v_radial, pf.grid), div_theta,
                    pf.grid.column(v_radial), pf.params)


def obata_vector(pf: PressureField) -> tuple[np.ndarray, np.ndarray | None]:
    """Components (V_r, V_theta) of 1/2 P^(1-n) D|DP|^2 - (1/n) P^(1-n) LP DP."""
    weight = pf.P.values ** (1.0 - pf.n)
    v_r = weight * (0.5 * d_ds(pf.DP2, pf.grid) - pf.LP * pf.dP / pf.n)
    grad_G = pf.P.angular.grad_theta(pf.DP2)
    v_t = None if grad_G is None else weight * (0.5 * grad_G - pf.LP * pf.thetaP / pf.n)
    return v_r, v_t


def divergence_form_residual(pf: PressureField) -> CylinderField:
    """P^(1-n) k[P] - D_i V_i with V the Obata vector field.

    Vanishes at discretization order for solution inputs; reported (never an
    error) for arbitrary smooth positive P.
    """
    lhs = pf.P.values ** (1.0 - pf.n) * bochner_k(pf).values
    v_r, v_t = obata_vector(pf)
    rhs = weighted_divergence(pf, v_r, v_t)
    return pf.field(lhs - rhs)


def rigidity_defect(pf: PressureField, region: MeasureRegion | None = None) -> float:
    """int P^(1-n) k[P] dmu over the region.

    Nonnegative (within quadrature tolerance) for solution inputs in the
    symmetric regime; zero exactly on the extremal family.
    """
    density = pf.P.values ** (1.0 - pf.n) * bochner_k(pf).values
    return integrate_mu(pf.field(density), region)


def rigidity_defect_breakdown(
    pf: PressureField, region: MeasureRegion | None = None
) -> dict[str, float]:
    """Defect split along the pointwise decomposition (diagnostic report)."""
    dec = bochner_decomposition(pf)
    weight = pf.P.values ** (1.0 - pf.n)
    out = {}
    for name, term in (
        ("radial_hessian", dec.term_radial_hessian),
        ("mixed", dec.term_mixed),
        ("sphere", dec.term_sphere),
    ):
        out[name] = integrate_mu(pf.field(weight * term.values), region)
    out["total_from_terms"] = sum(out.values())
    out["total"] = rigidity_defect(pf, region)
    return out
