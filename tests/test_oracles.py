"""Closed-form oracles on the admissible parameter space.

Every property here is a closed form or a theorem, checked by derandomized
hypothesis draws over the admissible space rather than at hand-picked
triples.  The analytic bubble residuals below are the oracles other test
modules import (``from test_oracles import ...``): no command runs them.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cknlab.bubble import (BubbleSpec, _scaled_amplitude, bubble_cylinder, cylinder_amplitude,
                           eval_bubble)
from cknlab.cylfield import L_kernel
from cknlab.errors import CknLabError
from cknlab.estimates import low_dim_chain
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid
from cknlab.params import ParamSet, felli_schneider_threshold
from cknlab.pressure import pressure_of
from cknlab.spectral import path_params, sector_potential, sphere_eigenvalue

EPS = float(np.finfo(float).eps)
T_NODES = np.linspace(-30.0, 30.0, 241)

# The estimates suite's low_dim_chain configuration: its wide grid and radii.
CHAIN_GRID = RadialGrid(1e-3, 1e4, 2561)
CHAIN_RADII = 128.0 * 2.0 ** np.arange(6)


class ScaleUnderflow(CknLabError):
    """A positive normalizer underflows to 0 in double precision."""


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
        raise CknLabError(
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



def pressure_amplitude(ps: ParamSet) -> float:
    """A = (n-1) c0^(-2/(n-2)); the bubble's pressure is exactly A (1+s^2)."""
    return (ps.n - 1.0) * cylinder_amplitude(ps) ** (-2.0 / (ps.n - 2.0))


@st.composite
def _path_point(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.floats(min_value=d + 0.01, max_value=d + 40.0))
    alpha = draw(st.floats(min_value=0.05, max_value=3.0))
    return path_params(d, n, alpha)


@settings(max_examples=400, deadline=None)
@given(ps=_path_point(), k=st.integers(min_value=0, max_value=3))
@example(ps=path_params(2, 2.01, 1.0), k=0)  # p = 402, the largest exponent sampled
def test_sector_potential_is_the_scaled_poschl_teller_well(ps, k):
    # (p-1) c0^(p-2) = alpha^2 n(n+2) and v*^(p-2) = c0^(p-2) sech^2(t) / 4, so
    # V_k = alpha^2 (Lambda^2 - n(n+2)/4 sech^2 t) + lambda_k with Lambda = (n-2)/2.
    # The power v*^(p-2) multiplies the rounding of v* by p - 2, so the bound is
    # 1e-14 of the scale up to p - 2 = 45 (n >= 2.09) and (p - 2) eps beyond.
    n, alpha2, lam_k = ps.n, ps.alpha**2, sphere_eigenvalue(k, ps.d)
    depth = n * (n + 2.0) / 4.0
    expected = alpha2 * (((n - 2.0) / 2.0) ** 2 - depth / np.cosh(T_NODES) ** 2) + lam_k
    scale = alpha2 * (((n - 2.0) / 2.0) ** 2 + depth) + lam_k
    got = sector_potential(ps, k, T_NODES)
    assert np.max(np.abs(got - expected)) <= max(1e-14, (ps.p_exp - 2.0) * EPS) * scale


def _growth_integral(n: float, R: float) -> float:
    """int_(r_min, R) s^(n+1) (1+s^2)^(1-n) ds, by quad in log s on the suite's r_min."""
    def integrand(t):
        s = math.exp(t)
        return s ** (n + 2.0) * (1.0 + s * s) ** (1.0 - n)
    value, _ = quad(integrand, math.log(CHAIN_GRID.r_min), math.log(R),
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@settings(max_examples=25, deadline=None)
@given(n=st.floats(min_value=2.01, max_value=3.99),
       fraction=st.floats(min_value=0.05, max_value=0.95))
@example(n=2.01, fraction=0.5)
@example(n=3.5, fraction=0.5)
@example(n=3.9, fraction=0.5)
@example(n=3.99, fraction=0.5)
def test_low_dim_chain_fits_equal_the_finite_radius_closed_form(n, fraction):
    # On the bubble P = A (1+s^2), so P^(1-n) |DP|^2 dmu = |S^(d-1)| 4 alpha^2 A^(3-n)
    # s^(n+1) (1+s^2)^(1-n) ds, and the constant drops out of a log-log slope: the
    # fitted exponents are those of the integrals over (r_min, R) and, over R^2,
    # (r_min, 2R).  Nothing here compares them with the R -> infinity rate 4 - n.
    ps = path_params(2, n, fraction * felli_schneider_threshold(2, n))
    assert ps.is_symmetric
    chain = low_dim_chain(pressure_of(bubble_cylinder(ps, CHAIN_GRID)), R_list=CHAIN_RADII)
    growth = fit_loglog(CHAIN_RADII, [_growth_integral(ps.n, R) for R in CHAIN_RADII])
    decay = fit_loglog(CHAIN_RADII, [_growth_integral(ps.n, 2.0 * R) / R**2
                                     for R in CHAIN_RADII])
    assert abs(chain.grad_integral_growth - growth) <= 1e-11
    assert abs(chain.defect_decay - decay) <= 1e-11
