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
Lap_theta P, L P and |DP|^2, each computed once and read-only.  The routines
below read these arrays and never take those derivatives again.  The
diagnostics return sample arrays; a `CylinderField` is built only where
samples enter (P itself, whose construction checks that w^(-2/(n-2)) stayed
finite) and where an integrand meets `integrate_mu`, through `pf.field`.

Non-solution inputs are always accepted: every routine is a diagnostic, not
a validator.  L, and the divergence in the same weighted radial form
(alpha^2 (d/dr + (n-1)/r)), come from `cylfield.L_kernel`, so integration by
parts mirrors the continuum; angular derivatives come from the field's
angular representation, Radial (none) or PeriodicGrid (spectral on S^1).
"""

from __future__ import annotations

import numpy as np

from .cylfield import (
    CylinderField,
    L_kernel,
    L_of_values,
    integrate_mu,
    theta_derivative,
)
from .grids import d_ds, radial_derivs


class PressureField:
    """Pressure P = (n-1) w^(-2/(n-2)) with its derivatives, built by `pressure_of`.

    Every array is read-only; thetaP and lap_thetaP are None for Radial fields.
    """

    __slots__ = ("P", "thetaP", "lap_thetaP", "dP", "d2P", "LP", "DP2", "__weakref__")

    def __init__(self, P: CylinderField, thetaP: np.ndarray | None,
                 lap_thetaP: np.ndarray | None, dP: np.ndarray, d2P: np.ndarray,
                 LP: np.ndarray, DP2: np.ndarray):
        self.P = P
        self.thetaP = thetaP            # grad_theta P
        self.lap_thetaP = lap_thetaP    # Lap_theta P
        self.dP = dP                    # P'
        self.d2P = d2P                  # P''
        self.LP = LP                    # L P
        self.DP2 = DP2                  # |DP|^2 = alpha^2 P'^2 + |grad_theta P|^2 / r^2
        for a in (thetaP, lap_thetaP, dP, d2P, LP, DP2):
            if a is not None:
                a.flags.writeable = False

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


def pressure_values(w: np.ndarray, n: float) -> np.ndarray:
    """P = (n-1) w^(-2/(n-2)), sample by sample."""
    vals = w ** (-2.0 / (n - 2.0))
    vals *= n - 1.0
    return vals


def pressure_of(w: CylinderField) -> PressureField:
    w.require_positive("pressure_of")
    ps = w.params
    P = w.with_values(pressure_values(w.values, ps.n))
    s = P.grid.column(P.values)
    thetaP, lap_thetaP = w.angular.theta_pair(P.values)
    dP, d2P = radial_derivs(P.values, P.grid)
    LP = L_kernel(dP, d2P, lap_thetaP, s, ps)
    DP2 = np.square(dP)
    DP2 *= ps.alpha**2
    if thetaP is not None:
        theta2 = np.square(thetaP)
        theta2 /= s**2
        DP2 += theta2
    return PressureField(P, thetaP, lap_thetaP, dP, d2P, LP, DP2)


def pressure_weight(P: np.ndarray, n: float) -> np.ndarray:
    """The weight P^(1-n) of the rigidity defect and the Obata vector field."""
    return P ** (1.0 - n)


def residual_eq_P(pf: PressureField) -> np.ndarray:
    """L P - 2(n-1)^2/(n-2) P^(-1) - (n/2) |DP|^2 P^(-1).

    Zero at grid scale when the source field solves the cylinder equation;
    otherwise a diagnostic of how far it is from doing so.
    """
    n = pf.params.n
    Pinv = 1.0 / pf.P.values
    return pf.LP - 2.0 * (n - 1.0) ** 2 / (n - 2.0) * Pinv - 0.5 * n * pf.DP2 * Pinv


def bochner_k(pf: PressureField) -> np.ndarray:
    """k[P] = 1/2 L |DP|^2 - <DP, D L P> - (1/n) (L P)^2."""
    ps = pf.params
    out = L_of_values(pf.DP2, pf.grid, pf.P.angular, ps)
    out *= 0.5
    scratch = d_ds(pf.LP, pf.grid)
    inner = ps.alpha**2 * pf.dP
    inner *= scratch
    grad_LP = pf.P.angular.grad_theta(pf.LP)
    if grad_LP is not None:
        grad_LP *= pf.thetaP
        grad_LP /= pf.s**2
        inner += grad_LP
    out -= inner
    np.square(pf.LP, out=scratch)
    scratch /= ps.n
    out -= scratch
    return out


def defect_density(pf: PressureField) -> np.ndarray:
    """P^(1-n) k[P], the integrand of the rigidity defect."""
    return pressure_weight(pf.P.values, pf.params.n) * bochner_k(pf)


def _sphere_k(g1: np.ndarray, g2: np.ndarray, n: float, alpha: float) -> np.ndarray:
    """k_S[P] from grad_theta P and Lap_theta P, row by row (rows are circles):

    k_S = 1/2 Lap_theta |grad_theta P|^2 - grad_theta P . grad_theta Lap_theta P
          - (Lap_theta P)^2/(n-1) - (n-2) alpha^2 |grad_theta P|^2.
    """
    g1_sq = g1**2
    out = theta_derivative(g1_sq, 2)
    out *= 0.5
    scratch = theta_derivative(g2, 1)
    scratch *= g1
    out -= scratch
    np.square(g2, out=scratch)
    scratch /= n - 1.0
    out -= scratch
    g1_sq *= (n - 2.0) * alpha**2
    out -= g1_sq
    return out


def bochner_decomposition(pf: PressureField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three summands (radial_hessian, mixed, sphere) whose sum reproduces k[P]
    pointwise:

    radial_hessian = (n-1)/n alpha^4 |P'' - P'/r - Lap_theta P/(alpha^2 (n-1) r^2)|^2
    mixed          = 2 alpha^2 r^-2 |grad_theta P' - grad_theta P / r|^2
    sphere         = r^-4 k_S[P]
    """
    ps = pf.params
    n = ps.n
    s = pf.s
    t1 = pf.dP / s
    np.subtract(pf.d2P, t1, out=t1)      # the radial deficit
    if pf.lap_thetaP is not None:
        scratch = pf.lap_thetaP / (ps.alpha**2 * (n - 1.0) * s**2)
        t1 -= scratch
    np.square(t1, out=t1)
    t1 *= (n - 1.0) / n * ps.alpha**4
    if pf.thetaP is None:
        t2, t3 = np.zeros_like(t1), np.zeros_like(t1)
    else:
        t2 = d_ds(pf.thetaP, pf.grid)    # d/dr grad_theta P
        t2 -= np.divide(pf.thetaP, s, out=scratch)
        del scratch
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


def weighted_divergence(pf: PressureField, v_radial: np.ndarray,
                        v_theta: np.ndarray | None) -> np.ndarray:
    """D_i V_i in the same weighted form as L (no angular term where v_theta is None):

        alpha^2 (dV_r/dr + (n-1) V_r / r) + div_theta V_theta / r^2.
    """
    div_theta = None if v_theta is None else pf.P.angular.grad_theta(v_theta)
    return L_kernel(v_radial, d_ds(v_radial, pf.grid), div_theta,
                    pf.grid.column(v_radial), pf.params)


def obata_vector(pf: PressureField) -> tuple[np.ndarray, np.ndarray | None]:
    """Components (V_r, V_theta) of 1/2 P^(1-n) D|DP|^2 - (1/n) P^(1-n) LP DP."""
    n = pf.params.n
    weight = pressure_weight(pf.P.values, n)
    v_r = weight * (0.5 * d_ds(pf.DP2, pf.grid) - pf.LP * pf.dP / n)
    grad_G = pf.P.angular.grad_theta(pf.DP2)
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
    weight = pressure_weight(pf.P.values, pf.params.n)
    out = {}
    for name, term in zip(("radial_hessian", "mixed", "sphere"), bochner_decomposition(pf)):
        out[name] = integrate_mu(pf.field(weight * term))
    out["total_from_terms"] = sum(out.values())
    out["total"] = rigidity_defect(pf)
    return out
