"""Closed-form oracles on the admissible parameter space.

Every property here is a closed form or a theorem, checked by derandomized
hypothesis draws over the admissible space rather than at hand-picked
triples.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cknlab.bubble import bubble_cylinder
from cknlab.estimates import low_dim_chain
from cknlab.fitting import fit_loglog
from cknlab.grids import RadialGrid
from cknlab.params import felli_schneider_threshold
from cknlab.pressure import pressure_of
from cknlab.spectral import path_params, sector_potential, sphere_eigenvalue

EPS = float(np.finfo(float).eps)
T_NODES = np.linspace(-30.0, 30.0, 241)

# The estimates suite's low_dim_chain configuration: its wide grid and radii.
CHAIN_GRID = RadialGrid(1e-3, 1e4, 2561)
CHAIN_RADII = 128.0 * 2.0 ** np.arange(6)


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
