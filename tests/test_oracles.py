"""Closed-form oracles on the admissible parameter space.

Every property here is a closed form or a theorem, checked by derandomized
hypothesis draws over the admissible space rather than at hand-picked
triples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cknlab.spectral import path_params, sector_potential, sphere_eigenvalue

EPS = float(np.finfo(float).eps)
T_NODES = np.linspace(-30.0, 30.0, 241)


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
