"""Log-uniform radial grids, 4th-order stencils and weighted quadrature.

All radial calculus happens in the log coordinate x = ln s, where the grid
is uniform.  Derivatives in s follow from the chain rule
    w'  = (dw/dx) / s,      w'' = (d2w/dx2 - dw/dx) / s^2,
and the measure integral becomes
    int f(s) s^(n-1) ds = int f(e^x) e^(n x) dx,
so one uniform-grid toolbox (5/6-point stencils, cell-wise cubic composite
quadrature) serves every operation.  Stencil weights are generated with the
standard divided-difference recursion rather than hardcoded tables.

The quadrature takes the complete cells of a region in one np.vecdot (numpy
2) and adds them left to right with np.cumsum, with the bits of a per-cell
np.dot loop; cut end cells use Lagrange-cubic antiderivatives built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridTooCoarse, RegionOutsideGrid


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def fd_weights(nodes, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0.

    Classic recursive construction; ``nodes`` are stencil locations in grid
    units, so the caller divides by h**m.
    """
    nodes = np.asarray(nodes, dtype=float)
    npts = len(nodes)
    C = np.zeros((npts, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


# Interior 5-point stencils (4th order) and one-sided edge closures of the
# same order: 5 points for the first derivative, 6 for the second.
_D1_INT = fd_weights(np.arange(-2, 3), 0.0, 1)
_D1_EDGE0 = fd_weights(np.arange(0, 5), 0.0, 1)
_D1_EDGE1 = fd_weights(np.arange(0, 5), 1.0, 1)
_D2_INT = fd_weights(np.arange(-2, 3), 0.0, 2)
_D2_EDGE0 = fd_weights(np.arange(0, 6), 0.0, 2)
_D2_EDGE1 = fd_weights(np.arange(0, 6), 1.0, 2)

#: Minimum node count for the 4th-order machinery.
MIN_STENCIL_NODES = 8


def _apply_stencil_axis0(values: np.ndarray, interior, edge0, edge1, h: float, m: int):
    """4th-order derivative along axis 0 of a uniform grid with step h.

    Derivative stencils have zero coefficient sum, so they are applied to
    differences from the evaluation node: rounding error then scales with the
    local variation instead of the field magnitude, which matters where a
    field is nearly constant (e.g. any profile flattening toward the origin).
    """
    v = np.asarray(values, dtype=float)
    npts = v.shape[0]
    if npts < MIN_STENCIL_NODES:
        raise GridTooCoarse(f"need >= {MIN_STENCIL_NODES} radial nodes, got {npts}")
    out = np.zeros_like(v)
    c = interior
    center = v[2:-2]
    for off, cj in ((-2, c[0]), (-1, c[1]), (1, c[3]), (2, c[4])):
        out[2:-2] += cj * (v[2 + off:npts - 2 + off] - center)

    def edge_value(weights, window, eval_idx):
        acc = np.zeros_like(window[0])
        for j, wj in enumerate(weights):
            if j != eval_idx:
                acc = acc + wj * (window[j] - window[eval_idx])
        return acc

    ne = len(edge0)
    out[0] = edge_value(edge0, v[:ne], 0)
    out[1] = edge_value(edge1, v[:ne], 1)
    sign = -1.0 if m % 2 else 1.0
    rev = v[::-1]
    out[-1] = sign * edge_value(edge0, rev[:ne], 0)
    out[-2] = sign * edge_value(edge1, rev[:ne], 1)
    out /= h**m
    return out


def d_dx(values: np.ndarray, h: float) -> np.ndarray:
    return _apply_stencil_axis0(values, _D1_INT, _D1_EDGE0, _D1_EDGE1, h, 1)


def d2_dx2(values: np.ndarray, h: float) -> np.ndarray:
    return _apply_stencil_axis0(values, _D2_INT, _D2_EDGE0, _D2_EDGE1, h, 2)


@dataclass(frozen=True)
class RadialGrid:
    """Log-uniform sample points in the cylinder radial variable."""

    r_min: float
    r_max: float
    count: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    x_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    log_step: float = field(init=False, compare=False)

    def __post_init__(self):
        if not (self.r_min > 0 and self.r_max > self.r_min):
            raise ValueError("need 0 < r_min < r_max")
        if self.count < 16:
            raise GridTooCoarse("RadialGrid requires count >= 16")
        x = np.linspace(math.log(self.r_min), math.log(self.r_max), self.count)
        s = np.exp(x)
        s.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "nodes", s)
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "log_step", (x[-1] - x[0]) / (self.count - 1))

    def column(self, values: np.ndarray) -> np.ndarray:
        """Broadcast helper: nodes shaped to match `values` along axis 0."""
        s = self.nodes
        return s if values.ndim == 1 else s[:, None]


def default_grid() -> RadialGrid:
    """r_min = 1e-3, r_max = 1e3, 2048 nodes."""
    return RadialGrid(1e-3, 1e3, 2048)


def d_ds(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """First radial derivative on the log grid."""
    s = grid.column(np.asarray(values))
    return d_dx(values, grid.log_step) / s


def radial_derivs(values: np.ndarray, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(w', w'') on the log grid from one shared d/dx pass."""
    s = grid.column(np.asarray(values))
    dx = d_dx(values, grid.log_step)
    return dx / s, (d2_dx2(values, grid.log_step) - dx) / s**2


# ---------------------------------------------------------------------------
# Quadrature: cell-wise cubic composite rule on the uniform x grid, exact for
# cubics in x, with partial end cells integrated through the local cubic
# interpolant so arbitrary (r_lo, r_hi) regions keep full order.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _lagrange_basis_antiderivatives(offsets: tuple[float, ...]):
    """(antiderivative, denominator) of each Lagrange basis cubic on offsets.

    integrate_uniform cuts partial cells with three offset sets (first,
    interior and last cell), so a small cache holds every one of them.
    """
    nodes = np.asarray(offsets, dtype=float)
    pairs = []
    for j, oj in enumerate(nodes):
        others = np.delete(nodes, j)
        poly = np.polynomial.Polynomial.fromroots(others)
        pairs.append((poly.integ(), np.prod(oj - others)))
    return tuple(pairs)


def _lagrange_cell_weights(offsets, lo: float, hi: float) -> np.ndarray:
    """Integrals over [lo, hi] (grid units) of the Lagrange basis on offsets."""
    pairs = _lagrange_basis_antiderivatives(tuple(float(o) for o in offsets))
    ws = np.empty(len(pairs))
    for j, (integ, denom) in enumerate(pairs):
        ws[j] = (integ(hi) - integ(lo)) / denom
    return ws


_CELL_INTERIOR = _lagrange_cell_weights([-1.0, 0.0, 1.0, 2.0], 0.0, 1.0)  # [-1,13,13,-1]/24
_CELL_FIRST = _lagrange_cell_weights([0.0, 1.0, 2.0, 3.0], 0.0, 1.0)      # [9,19,-5,1]/24


def _cell_stencil(k: int, ncell: int) -> np.ndarray:
    """Node indices of the cubic used for cell k (of ncell cells)."""
    if k == 0:
        return np.arange(0, 4)
    if k == ncell - 1:
        return np.arange(ncell - 3, ncell + 1)
    return np.arange(k - 1, k + 3)


def integrate_uniform(F: np.ndarray, h: float, x0: float, x_lo: float, x_hi: float) -> float:
    """Integral of samples F (nodes x0 + i*h) over [x_lo, x_hi].

    F may be 1-D; region endpoints need not coincide with nodes.  Exact when
    F is a cubic polynomial of x.
    """
    F = np.asarray(F, dtype=float)
    npts = F.shape[0]
    if npts < 4:
        raise GridTooCoarse(f"integrate_uniform needs >= 4 nodes for its cubic cells, got {npts}")
    ncell = npts - 1
    x_end = x0 + ncell * h
    eps = 1e-12 * max(abs(x0), abs(x_end), 1.0)
    if x_lo < x0 - eps or x_hi > x_end + eps:
        raise RegionOutsideGrid(
            f"region [{x_lo}, {x_hi}] outside grid [{x0}, {x_end}] (log coords)"
        )
    if x_hi <= x_lo:
        return 0.0
    t_lo = min(max((x_lo - x0) / h, 0.0), ncell)
    t_hi = min(max((x_hi - x0) / h, 0.0), ncell)
    k_lo = min(int(math.floor(t_lo)), ncell - 1)
    k_hi = min(int(math.floor(t_hi)), ncell - 1)

    def partial(k: int, a: float, b: float) -> float:
        idx = _cell_stencil(k, ncell)
        w = _lagrange_cell_weights(idx - k, a - k, b - k)
        return h * float(np.dot(w, F[idx]))

    if k_lo == k_hi:
        return partial(k_lo, t_lo, t_hi)

    # Head cell, then complete cells [first_full, k_hi), then tail, added left
    # to right from +0.0 (so a -0.0 sum reads +0.0): np.cumsum adds in order
    # like a running ``total +=``, where np.sum would add pairwise.
    terms = [0.0]
    first_full = k_lo
    if t_lo > k_lo:
        terms.append(partial(k_lo, t_lo, k_lo + 1.0))
        first_full += 1
    tail = partial(k_hi, float(k_hi), t_hi) if t_hi > k_hi else 0.0
    if first_full < k_hi:
        # Cell 0 takes the one-sided cubic, cell k > 0 nodes k-1..k+2.  Each
        # cell is one BLAS ddot of four weights and four samples: np.vecdot
        # calls per window the ddot that np.dot calls for one cell, so every
        # cell keeps the bits of a per-cell np.dot, which an elementwise
        # product sum would not.
        windows = sliding_window_view(F, 4)[max(first_full, 1) - 1:k_hi - 1]
        cells = np.vecdot(windows, _CELL_INTERIOR)
        if first_full == 0:
            cells = np.concatenate(([np.dot(_CELL_FIRST, F[:4])], cells))
        terms = np.concatenate((terms, h * cells))
    return np.cumsum(terms)[-1] + tail


def integrate_measure_radial(profile: np.ndarray, grid: RadialGrid, n: float,
                             r_lo: float, r_hi: float) -> float:
    """int profile(s) s^(n-1) ds over (r_lo, r_hi), no angular factor."""
    if r_lo <= 0 or r_hi <= 0:
        raise RegionOutsideGrid("region bounds must be positive")
    F = profile * np.exp(n * grid.x_nodes)  # s^(n-1) ds = s^n dx
    return integrate_uniform(F, grid.log_step, grid.x_nodes[0],
                             math.log(r_lo), math.log(r_hi))
