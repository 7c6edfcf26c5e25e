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

On each circle of a d = 2 field the sphere inequality (the Bochner term of
Dolbeault-Esteban-Loss)
    int_S P^(1-n) k_S[P] dtheta
        >= (n-2) ((d-1)/(n-1) - alpha^2) int_S P^(1-n) |grad_theta P|^2 dtheta
is checked row by row by `sphere_margins`.

`pressure_of` builds a `PressureField`: P with P', P'', grad_theta P,
Lap_theta P, L P and |DP|^2, each computed once and read-only by its base
`PressureDerivatives`, which holds them without P.  The routines below read
these arrays and never take those derivatives again.  The diagnostics return
sample arrays; a `CylinderField` is built only where samples enter (P itself,
whose construction checks that w^(-2/(n-2)) stayed finite) and where an
integrand meets `integrate_mu`, through `pf.field`.

Non-solution inputs are always accepted: every routine is a diagnostic, not
a validator.  L, and the divergence in the same weighted radial form
(alpha^2 (d/dr + (n-1)/r)), come from `cylfield.L_kernel`, so integration by
parts mirrors the continuum; angular derivatives come from the field's
angular representation, Radial (none) or PeriodicGrid (spectral on S^1).
"""

from __future__ import annotations

import numpy as np

from .cylfield import (
    AngularRep,
    CylinderField,
    L_kernel,
    L_of_values,
    integrate_mu,
    theta_derivative,
)
from .grids import RadialGrid, d_ds, radial_derivs, scratch
from .params import ParamSet


class PressureDerivatives:
    """The derivatives of samples ``P`` of a pressure on ``grid``, each computed
    once: all that k[P], its decomposition and the weighted divergence read.
    P itself is not kept.

    Every array is read-only; thetaP and lap_thetaP are None for Radial fields.
    """

    __slots__ = ("grid", "angular", "params", "thetaP", "lap_thetaP", "dP", "d2P", "LP", "DP2",
                 "__weakref__")

    def __init__(self, P: np.ndarray, grid: RadialGrid, angular: AngularRep, params: ParamSet):
        self.grid = grid
        self.angular = angular
        self.params = params
        s = grid.column(P)
        thetaP, lap_thetaP = angular.theta_pair(P)
        dP, d2P = radial_derivs(P, grid)
        LP = L_kernel(dP, d2P, lap_thetaP, s, params, out=scratch(dP.shape))
        DP2 = np.square(dP, out=scratch(dP.shape))
        DP2 *= params.alpha**2
        if thetaP is not None:
            theta2 = np.square(thetaP, out=scratch(thetaP.shape))
            theta2 /= s**2
            DP2 += theta2
        self.thetaP, self.lap_thetaP = thetaP, lap_thetaP   # grad_theta P, Lap_theta P
        self.dP, self.d2P = dP, d2P                         # P', P''
        self.LP, self.DP2 = LP, DP2   # L P, |DP|^2 = alpha^2 P'^2 + |grad_theta P|^2 / r^2
        for a in (thetaP, lap_thetaP, dP, d2P, LP, DP2):
            if a is not None:
                a.flags.writeable = False

    @property
    def s(self):
        return self.grid.column(self.dP)

    def field(self, values: np.ndarray) -> CylinderField:
        return CylinderField(self.grid, self.angular, values, self.params)


class PressureField(PressureDerivatives):
    """The pressure P = (n-1) w^(-2/(n-2)), read-only samples, with its
    PressureDerivatives, as `pressure_of` builds it."""

    __slots__ = ("P",)

    def __init__(self, P: np.ndarray, grid: RadialGrid, angular: AngularRep, params: ParamSet):
        super().__init__(P, grid, angular, params)
        self.P = P
        P.flags.writeable = False


def pressure_values(w: np.ndarray, n: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """P = (n-1) w^(-2/(n-2)), sample by sample, into ``out`` (``w`` itself may be it)."""
    vals = np.power(w, -2.0 / (n - 2.0), out=out)
    vals *= n - 1.0
    return vals


def pressure_of(w: CylinderField) -> PressureField:
    w.require_positive("pressure_of")
    P = w.with_values(pressure_values(w.values, w.params.n)).values
    return PressureField(P, w.grid, w.angular, w.params)


def pressure_weight(P: np.ndarray, n: float) -> np.ndarray:
    """The weight P^(1-n) of the rigidity defect and the Obata vector field."""
    return P ** (1.0 - n)


def residual_eq_P(pf: PressureField) -> np.ndarray:
    """L P - 2(n-1)^2/(n-2) P^(-1) - (n/2) |DP|^2 P^(-1).

    Zero at grid scale when the source field solves the cylinder equation;
    otherwise a diagnostic of how far it is from doing so.
    """
    n = pf.params.n
    Pinv = 1.0 / pf.P
    return pf.LP - 2.0 * (n - 1.0) ** 2 / (n - 2.0) * Pinv - 0.5 * n * pf.DP2 * Pinv


def bochner_k(pf: PressureDerivatives) -> np.ndarray:
    """k[P] = 1/2 L |DP|^2 - <DP, D L P> - (1/n) (L P)^2."""
    ps = pf.params
    out = L_of_values(pf.DP2, pf.grid, pf.angular, ps)
    out *= 0.5
    inner = d_ds(pf.LP, pf.grid)
    inner *= np.multiply(pf.dP, ps.alpha**2, out=scratch(inner.shape))
    grad_LP = pf.angular.grad_theta(pf.LP)
    if grad_LP is not None:
        grad_LP *= pf.thetaP
        grad_LP /= pf.s**2
        inner += grad_LP
    out -= inner
    np.square(pf.LP, out=inner)
    inner /= ps.n
    out -= inner
    return out


def defect_density(pf: PressureField) -> np.ndarray:
    """P^(1-n) k[P], the integrand of the rigidity defect."""
    return pressure_weight(pf.P, pf.params.n) * bochner_k(pf)


def _sphere_k(g1: np.ndarray, g2: np.ndarray, n: float, alpha: float) -> np.ndarray:
    """k_S[P] from grad_theta P and Lap_theta P, row by row (rows are circles):

    k_S = 1/2 Lap_theta |grad_theta P|^2 - grad_theta P . grad_theta Lap_theta P
          - (Lap_theta P)^2/(n-1) - (n-2) alpha^2 |grad_theta P|^2.

    |grad_theta P|^2 is squared again for the last term rather than kept, so it
    is not alive while grad_theta Lap_theta P is transformed.
    """
    out = theta_derivative(np.square(g1, out=scratch(g1.shape)), 2)
    out *= 0.5
    term = theta_derivative(g2, 1)
    term *= g1
    out -= term
    np.square(g2, out=term)
    term /= n - 1.0
    out -= term
    np.square(g1, out=term)
    term *= (n - 2.0) * alpha**2
    out -= term
    return out


def bochner_decomposition(pf: PressureDerivatives) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three summands (radial_hessian, mixed, sphere) whose sum reproduces k[P]
    pointwise:

    radial_hessian = (n-1)/n alpha^4 |P'' - P'/r - Lap_theta P/(alpha^2 (n-1) r^2)|^2
    mixed          = 2 alpha^2 r^-2 |grad_theta P' - grad_theta P / r|^2
    sphere         = r^-4 k_S[P]
    """
    ps = pf.params
    n = ps.n
    s = pf.s
    t1 = np.divide(pf.dP, s, out=scratch(pf.dP.shape))
    np.subtract(pf.d2P, t1, out=t1)      # the radial deficit
    if pf.lap_thetaP is not None:
        term = np.divide(pf.lap_thetaP, ps.alpha**2 * (n - 1.0) * s**2,
                         out=scratch(t1.shape))
        t1 -= term
    np.square(t1, out=t1)
    t1 *= (n - 1.0) / n * ps.alpha**4
    if pf.thetaP is None:
        t2, t3 = scratch(t1.shape), scratch(t1.shape)
        t2[...] = t3[...] = 0.0
    else:
        t2 = d_ds(pf.thetaP, pf.grid)    # d/dr grad_theta P
        t2 -= np.divide(pf.thetaP, s, out=term)
        del term
        np.square(t2, out=t2)
        t2 *= 2.0 * ps.alpha**2 / s**2
        t3 = _sphere_k(pf.thetaP, pf.lap_thetaP, n, ps.alpha)
        t3 /= s**4
    return t1, t2, t3


def sphere_margins(P: np.ndarray, g1: np.ndarray, g2: np.ndarray, ps) -> np.ndarray:
    """The sphere inequality's left side minus its right side on each row (circle)
    of samples of P, grad_theta P (g1) and Lap_theta P (g2)."""
    n = ps.n
    weight = pressure_weight(P, n)
    dtheta = 2.0 * np.pi
    lhs = np.mean(weight * _sphere_k(g1, g2, n, ps.alpha), axis=1) * dtheta
    coeff = (n - 2.0) * ((ps.d - 1.0) / (n - 1.0) - ps.alpha**2)
    return lhs - coeff * np.mean(weight * g1**2, axis=1) * dtheta


def weighted_divergence(pf: PressureDerivatives, v_radial: np.ndarray,
                        v_theta: np.ndarray | None) -> np.ndarray:
    """D_i V_i in the same weighted form as L (no angular term where v_theta is None):

        alpha^2 (dV_r/dr + (n-1) V_r / r) + div_theta V_theta / r^2.
    """
    div_theta = None if v_theta is None else pf.angular.grad_theta(v_theta)
    return L_kernel(v_radial, d_ds(v_radial, pf.grid), div_theta,
                    pf.grid.column(v_radial), pf.params)


def obata_vector(pf: PressureField) -> tuple[np.ndarray, np.ndarray | None]:
    """Components (V_r, V_theta) of 1/2 P^(1-n) D|DP|^2 - (1/n) P^(1-n) LP DP."""
    n = pf.params.n
    weight = pressure_weight(pf.P, n)
    v_r = weight * (0.5 * d_ds(pf.DP2, pf.grid) - pf.LP * pf.dP / n)
    grad_G = pf.angular.grad_theta(pf.DP2)
    v_t = None if grad_G is None else weight * (0.5 * grad_G - pf.LP * pf.thetaP / n)
    return v_r, v_t


def divergence_form_residual(pf: PressureField) -> np.ndarray:
    """P^(1-n) k[P] - D_i V_i with V the Obata vector field.

    Vanishes at discretization order for solution inputs; reported (never an
    error) for arbitrary smooth positive P.
    """
    v_r, v_t = obata_vector(pf)
    return defect_density(pf) - weighted_divergence(pf, v_r, v_t)


def rigidity_defect(pf: PressureField) -> float:
    """int P^(1-n) k[P] dmu over the whole grid.

    Nonnegative (within quadrature tolerance) for solution inputs in the
    symmetric regime; zero exactly on the extremal family.
    """
    return integrate_mu(pf.field(defect_density(pf)))


def rigidity_defect_breakdown(pf: PressureField) -> dict[str, float]:
    """Defect over the whole grid split along the pointwise decomposition."""
    weight = pressure_weight(pf.P, pf.params.n)
    out = {}
    for name, term in zip(("radial_hessian", "mixed", "sphere"), bochner_decomposition(pf)):
        out[name] = integrate_mu(pf.field(weight * term))
    out["total_from_terms"] = sum(out.values())
    out["total"] = rigidity_defect(pf)
    return out
