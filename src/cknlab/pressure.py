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


class PressureField:
    """Pressure P = (n-1) w^(-2/(n-2)) with 4th-order derivative caches.

    The angular derivatives are taken when the field is built.  The radial
    ones (P', P'', L P and |DP|^2) are computed the first time one is read,
    so a check that reads only angular derivatives never pays for them.  A
    field is read by one thread; two threads that raced on a first read
    would compute and store the same arrays.
    """

    __slots__ = ("P", "thetaP", "lap_thetaP", "_cache", "__weakref__")

    def __init__(self, P: CylinderField, thetaP: np.ndarray | None,
                 lap_thetaP: np.ndarray | None):
        self.P = P
        self.thetaP = thetaP            # grad_theta P  (None for Radial)
        self.lap_thetaP = lap_thetaP    # Lap_theta P   (None for Radial)
        self._cache = {}

    def _cached(self, key: str, compute):
        """compute()'s arrays, made once and kept read-only."""
        value = self._cache.get(key)
        if value is None:
            value = compute()
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            self._cache[key] = value
        return value

    def _derivs(self) -> tuple[np.ndarray, np.ndarray]:
        return self._cached("derivs", lambda: radial_derivs(self.P.values, self.grid))

    @property
    def dP(self) -> np.ndarray:
        """P'."""
        return self._derivs()[0]

    @property
    def d2P(self) -> np.ndarray:
        """P''."""
        return self._derivs()[1]

    @property
    def LP(self) -> np.ndarray:
        """L P."""
        return self._cached("LP", lambda: L_kernel(self.dP, self.d2P, self.lap_thetaP,
                                                   self.s, self.params))

    @property
    def DP2(self) -> np.ndarray:
        """|DP|^2 = alpha^2 P'^2 + |grad_theta P|^2 / r^2."""
        return self._cached("DP2", self._grad_square)

    def _grad_square(self) -> np.ndarray:
        out = np.square(self.dP)
        out *= self.params.alpha**2
        if self.thetaP is not None:
            theta2 = np.square(self.thetaP)
            theta2 /= self.s**2
            out += theta2
        return out

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
    P = w.with_values(pressure_values(w.values, w.params.n))
    return PressureField(P, *w.angular.theta_pair(P.values))


def pressure_weight(P: np.ndarray, n: float) -> np.ndarray:
    """The weight P^(1-n) of the rigidity defect and the Obata vector field."""
    return P ** (1.0 - n)


def residual_eq_P(pf: PressureField) -> CylinderField:
    """L P - 2(n-1)^2/(n-2) P^(-1) - (n/2) |DP|^2 P^(-1).

    Zero at grid scale when the source field solves the cylinder equation;
    otherwise a diagnostic of how far it is from doing so.
    """
    n = pf.params.n
    Pinv = 1.0 / pf.P.values
    res = pf.LP - 2.0 * (n - 1.0) ** 2 / (n - 2.0) * Pinv - 0.5 * n * pf.DP2 * Pinv
    return pf.field(res)


def bochner_k(pf: PressureField) -> CylinderField:
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
    return pf.field(out)


def defect_density(pf: PressureField) -> np.ndarray:
    """P^(1-n) k[P], the integrand of the rigidity defect."""
    return pressure_weight(pf.P.values, pf.params.n) * bochner_k(pf).values


def sphere_bochner_density(pf: PressureField) -> np.ndarray:
    """k_S[P] on each sphere slice (d = 2 reduction of the sphere Bochner term).

    k_S = 1/2 Lap_theta |grad_theta P|^2 - grad_theta P . grad_theta Lap_theta P
          - (Lap_theta P)^2/(n-1) - (n-2) alpha^2 |grad_theta P|^2.
    """
    pf.P.angular.require_periodic("sphere Bochner term")
    return _sphere_k(pf.thetaP, pf.lap_thetaP, pf.params.n, pf.params.alpha)


def _sphere_k(g1: np.ndarray, g2: np.ndarray, n: float, alpha: float) -> np.ndarray:
    """k_S from grad_theta P and Lap_theta P, row by row (rows are sphere slices)."""
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


@dataclass(frozen=True)
class BochnerDecomposition:
    term_radial_hessian: CylinderField
    term_mixed: CylinderField
    term_sphere: CylinderField

    def total(self) -> CylinderField:
        out = self.term_radial_hessian.values + self.term_mixed.values
        out += self.term_sphere.values
        return self.term_radial_hessian.with_values(out)


def bochner_decomposition(pf: PressureField) -> BochnerDecomposition:
    """The three summands whose sum reproduces k[P] pointwise.

    term_radial_hessian = (n-1)/n alpha^4 |P'' - P'/r - Lap_theta P/(alpha^2 (n-1) r^2)|^2
    term_mixed          = 2 alpha^2 r^-2 |grad_theta P' - grad_theta P / r|^2
    term_sphere         = r^-4 k_S[P]
    """
    ps = pf.params
    n = ps.n
    s = pf.s
    t1 = pf.dP / s
    np.subtract(pf.d2P, t1, out=t1)      # the radial deficit
    if pf.lap_thetaP is not None:
        t1 -= pf.lap_thetaP / (ps.alpha**2 * (n - 1.0) * s**2)
    np.square(t1, out=t1)
    t1 *= (n - 1.0) / n * ps.alpha**4
    if pf.thetaP is None:
        t2 = t3 = np.zeros_like(t1)
    else:
        t2 = d_ds(pf.thetaP, pf.grid)    # d/dr grad_theta P
        t2 -= pf.thetaP / s
        np.square(t2, out=t2)
        t2 *= 2.0 * ps.alpha**2 / s**2
        t3 = sphere_bochner_density(pf)
        t3 /= s**4
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
    i = radius_index
    return circle_bochner(pf.P.values[i], pf.thetaP[i], pf.lap_thetaP[i], pf.params)


def circle_bochner(P: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                   ps) -> SphereBochnerSides:
    """The sphere inequality's two sides on one circle of samples of P,
    grad_theta P (g1) and Lap_theta P (g2)."""
    n = ps.n
    weight = pressure_weight(P, n)
    ks = _sphere_k(g1[None], g2[None], n, ps.alpha)[0]
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
    n = pf.params.n
    weight = pressure_weight(pf.P.values, n)
    v_r = weight * (0.5 * d_ds(pf.DP2, pf.grid) - pf.LP * pf.dP / n)
    grad_G = pf.P.angular.grad_theta(pf.DP2)
    v_t = None if grad_G is None else weight * (0.5 * grad_G - pf.LP * pf.thetaP / n)
    return v_r, v_t


def divergence_form_residual(pf: PressureField) -> CylinderField:
    """P^(1-n) k[P] - D_i V_i with V the Obata vector field.

    Vanishes at discretization order for solution inputs; reported (never an
    error) for arbitrary smooth positive P.
    """
    v_r, v_t = obata_vector(pf)
    return pf.field(defect_density(pf) - weighted_divergence(pf, v_r, v_t))


def rigidity_defect(pf: PressureField, region: MeasureRegion | None = None) -> float:
    """int P^(1-n) k[P] dmu over the region.

    Nonnegative (within quadrature tolerance) for solution inputs in the
    symmetric regime; zero exactly on the extremal family.
    """
    return integrate_mu(pf.field(defect_density(pf)), region)


def rigidity_defect_breakdown(pf: PressureField) -> dict[str, float]:
    """Defect over the whole grid split along the pointwise decomposition."""
    dec = bochner_decomposition(pf)
    weight = pressure_weight(pf.P.values, pf.params.n)
    out = {}
    for name, term in (
        ("radial_hessian", dec.term_radial_hessian),
        ("mixed", dec.term_mixed),
        ("sphere", dec.term_sphere),
    ):
        out[name] = integrate_mu(pf.field(weight * term.values))
    out["total_from_terms"] = sum(out.values())
    out["total"] = rigidity_defect(pf)
    return out
