"""The explicit extremal family and its scalings.

The radial profile
    U(r) = c0 (1 + r^q)^(-2/(p-2)),   q = (p-2)(a_c - a),
    c0   = (d (p-2) (a_c - a)^2 / (1+a-b))^(1/(p-2)),
solves div(|x|^(-2a) grad u) + |x|^(-bp) u^(p-1) = 0, and the whole solution
family is u -> lambda^kappa u(lambda x) with kappa = a_c - a.  In cylinder
variables the same profile is w(s) = c0 (1+s^2)^(-(n-2)/2), with the
amplitude identity c0^(p-2) = alpha^2 n (n-2).

All derivatives here are analytic (never finite differences) so that
residual tests isolate formula errors from discretization errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylfield import CylinderField, L_kernel, Radial
from .errors import AmplitudeOverflow, ScaleUnderflow, SubcriticalRange
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
    """base^(1/(p-2)), the bubble amplitude c0, refused at p <= 2 and where it overflows."""
    if not ps.p_exp > 2.0:
        raise SubcriticalRange(f"the bubble amplitude c0 needs p > 2 (got p = {ps.p_exp})")
    try:
        return base ** (1.0 / (ps.p_exp - 2.0))
    except OverflowError:
        raise AmplitudeOverflow(
            f"the bubble amplitude c0 = {base:.6g}^(1/(p-2)) overflows double "
            f"precision at n = {ps.n:.6g} (p = {ps.p_exp:.6g})"
        ) from None


def cylinder_amplitude(ps: ParamSet) -> float:
    """c0 via the cylinder identity (alpha^2 n (n-2))^(1/(p-2))."""
    return _amplitude_power(ps.alpha**2 * ps.n * (ps.n - 2.0), ps)


def make_bubble(ps: ParamSet, lam: float = 1.0) -> BubbleSpec:
    if not ps.p_exp > 2.0:
        raise SubcriticalRange(
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
        raise AmplitudeOverflow(
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


def bubble_derivatives(spec: BubbleSpec, radius):
    """(u, u', u'') of the scaled profile, from the closed form.

    Where 1 + (lambda r)^q rounds to (lambda r)^q the profile is its tail
    u = lambda^kappa c0 (lambda r)^(-2 kappa) (e q = 2 kappa), whose derivatives
    -2 kappa u / r and 2 kappa (2 kappa + 1) u / r^2 are taken from u, so they
    stay in double range where lambda r, lambda^2 or a power of lambda r does not.
    """
    ps = spec.ps
    r = np.asarray(radius, dtype=float)
    q = (ps.p_exp - 2.0) * ps.kappa
    e = 2.0 / (ps.p_exp - 2.0)
    lam = spec.lam
    amp = _scaled_amplitude(spec)
    u = np.array(eval_bubble(spec, r), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        rr = lam * r
        rr_q = rr**q
        g = 1.0 + rr_q
        du = -amp * e * q * rr ** (q - 1.0) * g ** (-e - 1.0) * lam
        d2u = (
            -amp * e * q * (q - 1.0) * rr ** (q - 2.0) * g ** (-e - 1.0)
            + amp * e * (e + 1.0) * q**2 * rr ** (2.0 * q - 2.0) * g ** (-e - 2.0)
        ) * np.float64(lam) ** 2
    du, d2u = np.array(du, dtype=float), np.array(d2u, dtype=float)
    tail = g == rr_q
    two_k = 2.0 * ps.kappa
    du[tail] = -two_k * u[tail] / r[tail]
    d2u[tail] = two_k * (two_k + 1.0) * u[tail] / r[tail] ** 2
    if not (np.isfinite(du).all() and np.isfinite(d2u).all()):
        raise AmplitudeOverflow(
            f"u' or u'' of the scaled profile overflows double precision at "
            f"lambda = {lam:.6g} (kappa = {ps.kappa:.6g})"
        )
    return u, du, d2u


def _source_term(ps: ParamSet, r: np.ndarray, u) -> np.ndarray:
    """|x|^(-bp) u^(p-1); entries where a factor leaves double range go through logs."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(r ** (-ps.b * ps.p_exp) * np.asarray(u) ** (ps.p_exp - 1.0))
    bad = ~np.isfinite(out) | (out == 0.0)
    if bad.any():  # r^(-bp) overflowed, or u^(p-1) underflowed to 0 (the product is > 0)
        out = np.array(out, dtype=float)
        rb, ub = np.broadcast_arrays(r, u)
        with np.errstate(divide="ignore"):  # log(0) = -inf, whose exp is the 0 sought
            out[bad] = np.exp(-ps.b * ps.p_exp * np.log(rb[bad])
                              + (ps.p_exp - 1.0) * np.log(ub[bad]))
    return out


def residual_euclidean(spec: BubbleSpec, radius):
    """div(|x|^(-2a) grad u) + |x|^(-bp) u^(p-1), analytic, signed.

    For radial u the divergence term is r^(-2a) (u'' + (d-1-2a) u'/r).
    """
    ps = spec.ps
    r = np.asarray(radius, dtype=float)
    u, du, d2u = bubble_derivatives(spec, r)
    div_term = r ** (-2.0 * ps.a) * (d2u + (ps.d - 1.0 - 2.0 * ps.a) * du / r)
    out = div_term + _source_term(ps, r, u)
    return out if out.shape else float(out)


def residual_scale(spec: BubbleSpec, radius):
    """Natural normalizer |x|^(-bp) u^(p-1) for relative residuals."""
    ps = spec.ps
    r = np.asarray(radius, dtype=float)
    out = _source_term(ps, r, eval_bubble(spec, r))
    lost = out == 0.0
    if lost.any():  # the scale is positive: 0 means it left double range
        raise ScaleUnderflow(
            f"the residual scale |x|^(-bp) u^(p-1) underflows double precision at "
            f"r = {float(r[lost].flat[0]):.6g}"
        )
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


def bubble_cylinder_derivatives(ps: ParamSet, s, lam: float = 1.0):
    """(w, w', w'') of the cylinder bubble from the closed form."""
    s = np.asarray(s, dtype=float)
    c0 = cylinder_amplitude(ps)
    mu = lam**ps.alpha
    m = (ps.n - 2.0) / 2.0
    g = 1.0 / mu + mu * s**2
    w = c0 * g ** (-m)
    dw = -2.0 * m * mu * c0 * s * g ** (-m - 1.0)
    d2w = (-2.0 * m * mu * c0 * g ** (-m - 1.0)
           + 4.0 * m * (m + 1.0) * mu**2 * c0 * s**2 * g ** (-m - 2.0))
    return w, dw, d2w


def residual_eq_w_closed_form(ps: ParamSet, s, lam: float = 1.0):
    """L w + w^(p-1) for the scaled cylinder bubble, all analytic.

    The finite-difference residual has a float64 noise floor where the
    profile flattens (curvature information sits below sample rounding);
    this closed-form route isolates formula errors at ~1e-12.
    """
    s = np.asarray(s, dtype=float)
    w, dw, d2w = bubble_cylinder_derivatives(ps, s, lam)
    return L_kernel(dw, d2w, None, s, ps) + w ** (ps.p_exp - 1.0)


def bubble_cylinder(ps: ParamSet, grid: RadialGrid) -> CylinderField:
    """The extremal in cylinder variables, sampled as a Radial field."""
    values = bubble_cylinder_values(ps, grid.nodes)
    return CylinderField(grid, Radial(), values, ps)


def pressure_amplitude(ps: ParamSet) -> float:
    """A = (n-1) c0^(-2/(n-2)); the bubble's pressure is exactly A (1+s^2)."""
    return (ps.n - 1.0) * cylinder_amplitude(ps) ** (-2.0 / (ps.n - 2.0))
