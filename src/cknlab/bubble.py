"""The explicit extremal family and its scalings.

The radial profile
    U(r) = c0 (1 + r^q)^(-2/(p-2)),   q = (p-2)(a_c - a),
    c0   = (d (p-2) (a_c - a)^2 / (1+a-b))^(1/(p-2)),
solves div(|x|^(-2a) grad u) + |x|^(-bp) u^(p-1) = 0, and the whole solution
family is u -> lambda^kappa u(lambda x) with kappa = a_c - a.  In cylinder
variables the same profile is w(s) = c0 (1+s^2)^(-(n-2)/2), with the
amplitude identity c0^(p-2) = alpha^2 n (n-2).

Only values live here; the analytic derivatives and equation residuals
that check these closed forms are test oracles (tests/test_oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylfield import CylinderField, Radial
from .errors import AdmissibilityError, CknLabError
from .grids import RadialGrid
from .params import ParamSet


@dataclass(frozen=True)
class BubbleSpec:
    ps: ParamSet
    lam: float      # Euclidean scaling parameter, lambda > 0
    c0: float       # closed-form prefactor

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")


def _amplitude_power(base: float, ps: ParamSet) -> float:
    """base^(1/(p-2)), the bubble amplitude c0, refused at p <= 2 and where it
    overflows or underflows to 0."""
    if not ps.p_exp > 2.0:
        raise AdmissibilityError(f"the bubble amplitude c0 needs p > 2 (got p = {ps.p_exp})")
    try:
        c0 = base ** (1.0 / (ps.p_exp - 2.0))
    except OverflowError:
        c0 = math.inf
    if not 0.0 < c0 < math.inf:
        fate = "overflows" if c0 else "underflows to 0 in"
        raise CknLabError(f"the bubble amplitude c0 = {base:.6g}^(1/(p-2)) {fate} double "
                          f"precision at n = {ps.n:.6g} (p = {ps.p_exp:.6g})")
    return c0


def cylinder_amplitude(ps: ParamSet) -> float:
    """c0 via the cylinder identity (alpha^2 n (n-2))^(1/(p-2))."""
    return _amplitude_power(ps.alpha**2 * ps.n * (ps.n - 2.0), ps)


def make_bubble(ps: ParamSet, lam: float = 1.0) -> BubbleSpec:
    if not ps.p_exp > 2.0:
        raise AdmissibilityError(
            f"the explicit profile degenerates at p = 2 (got p = {ps.p_exp})"
        )
    c0 = _amplitude_power(ps.d * (ps.p_exp - 2.0) * ps.kappa**2 / (1.0 + ps.a - ps.b), ps)
    return BubbleSpec(ps=ps, lam=float(lam), c0=c0)


def _scaled_amplitude(spec: BubbleSpec) -> float:
    """lambda^kappa c0, the scaled profile's value at 0, refused where it overflows."""
    try:
        amp = spec.lam**spec.ps.kappa * spec.c0
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise CknLabError(
            f"the scaled amplitude lambda^kappa c0 overflows double precision at "
            f"lambda = {spec.lam:.6g} (kappa = {spec.ps.kappa:.6g})"
        )
    return amp


def eval_bubble(spec: BubbleSpec, radius):
    """Scaled profile lambda^kappa U(lambda r); value at 0 by continuity."""
    ps = spec.ps
    r = np.asarray(radius, dtype=float)
    q = (ps.p_exp - 2.0) * ps.kappa
    e = 2.0 / (ps.p_exp - 2.0)
    amp = _scaled_amplitude(spec)
    with np.errstate(over="ignore"):
        scaled = spec.lam * r
        g = 1.0 + scaled**q
    out = np.asarray(amp * g ** (-e))
    big = np.isinf(g)
    if big.any():  # 1 + scaled^q = scaled^q in double precision long before it overflows
        out[big] = amp * scaled[big] ** (-2.0 * ps.kappa)
    lost = out == 0.0
    if lost.any():  # u > 0: a factor left double range (lambda r = inf, or g^(-e)
        # underflowed before amp scaled it up), so take the product through logs
        log_g = np.log(g[lost])
        inf = np.isinf(log_g)  # there g = (lambda r)^q
        log_g[inf] = q * (math.log(spec.lam) + np.log(r[lost][inf]))
        out[lost] = np.exp(ps.kappa * math.log(spec.lam) + math.log(spec.c0) - e * log_g)
    return out if out.shape else float(out)


def bubble_cylinder_values(ps: ParamSet, s, lam: float = 1.0):
    """w(s) of the scaled bubble: closed form c0 (1/mu + mu s^2)^(-(n-2)/2).

    mu = lambda^alpha is the cylinder-variable scaling; lam = 1 gives
    c0 (1+s^2)^(-(n-2)/2) exactly.
    """
    s = np.asarray(s, dtype=float)
    c0 = cylinder_amplitude(ps)
    mu = lam**ps.alpha
    return c0 * (1.0 / mu + mu * s**2) ** (-(ps.n - 2.0) / 2.0)


def bubble_cylinder(ps: ParamSet, grid: RadialGrid) -> CylinderField:
    """The extremal in cylinder variables, sampled as a Radial field."""
    values = bubble_cylinder_values(ps, grid.nodes)
    return CylinderField(grid, Radial(), values, ps)
