"""Log-uniform radial grids, 4th-order stencils and weighted quadrature.

All radial calculus happens in the log coordinate x = ln s, where the grid
is uniform.  Derivatives in s follow from the chain rule
    w'  = (dw/dx) / s,      w'' = (d2w/dx2 - dw/dx) / s^2,
and the measure integral becomes
    int f(s) s^(n-1) ds = int f(e^x) e^(n x) dx,
so one uniform-grid toolbox (5/6-point stencils, cell-wise cubic composite
quadrature) serves every operation.  Stencil weights are generated with the
standard divided-difference recursion rather than hardcoded tables.

Every kernel takes its input-sized arrays from `scratch`: views of the
buffers the calling thread holds in the `Workspace` it entered, or new
arrays outside one.  The same ufuncs run either way, so the bits are the same.

The quadrature takes the complete cells of a region in one np.vecdot (numpy
2) and adds them left to right with np.cumsum, with the bits of a per-cell
np.dot loop.  Whole and cut cells share one set of Lagrange-cubic
antiderivatives, built on Python integers at import.  integrate_uniform is
the one judge of whether a region lies inside the grid; cylfield.integrate_mu
forms f e^(n x) and hands it the region in x.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CknLabError


class Workspace:
    """Buffers of ``nbytes`` each, reused by a run of same-sized array computations.

    ``with ws:`` makes it the calling thread's active workspace until the block
    ends, and there `scratch` returns the leading bytes of one of its buffers,
    shaped (`empty`).  A buffer is busy exactly while an array viewing it is
    alive: numpy makes the buffer itself the base of every view of it, views of
    views included, so its reference count tells: a free buffer's reads as that
    of a probe no view holds.  Arrays taken here therefore live and die as
    allocated ones would, and a computation that runs again at the same or a
    smaller size takes no new buffer after its first run.  Counts are read
    unlocked, so each thread takes from buffers of its own, which go with the
    thread or with the workspace, whichever goes first.
    """

    def __init__(self, nbytes: int):
        self.nbytes = nbytes
        self._local = threading.local()
        self._free = _reference_counts([np.empty(1, np.uint8)])[0]   # a buffer no view holds

    @property
    def _buffers(self) -> list:
        """The calling thread's buffers."""
        return self._local.__dict__.setdefault("buffers", [])

    def empty(self, shape: tuple, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if size > self.nbytes:
            raise ValueError(f"an array of {size} bytes exceeds the workspace's {self.nbytes}")
        buffers = self._buffers
        counts = _reference_counts(buffers)
        if self._free in counts:
            buf = buffers[counts.index(self._free)]
        else:
            buf = np.empty(self.nbytes, np.uint8)
            buffers.append(buf)
        return buf[:size].view(dtype).reshape(shape)

    def __enter__(self) -> Workspace:
        _entered.stack = getattr(_entered, "stack", ()) + (self,)
        return self

    def __exit__(self, *exc) -> None:
        _entered.stack = _entered.stack[:-1]


# .stack: the workspaces entered on this thread, innermost last.  Thread-local,
# not a context variable, which a thread started inside a scope may copy.
_entered = threading.local()


def _reference_counts(buffers: list) -> list[int]:
    """sys.getrefcount of each of ``buffers``.  Which references besides the
    list's the count includes is the interpreter's choice (it may borrow a
    local's), so a count is compared only with another read here."""
    return [sys.getrefcount(buf) for buf in buffers]


def scratch(shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array from the thread's active workspace, or a new one outside any."""
    stack = getattr(_entered, "stack", ())
    return stack[-1].empty(shape, dtype) if stack else np.empty(shape, dtype)


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
#: Fewest nodes of a RadialGrid.
MIN_RADIAL_NODES = 16


def _apply_stencil_axis0(values: np.ndarray, interior, edge0, edge1, h: float, m: int):
    """4th-order derivative along axis 0 of a uniform grid with step h.

    Derivative stencils have zero coefficient sum, so they are applied to
    differences from the evaluation node: rounding error then scales with the
    local variation instead of the field magnitude, which matters where a
    field is nearly constant (e.g. any profile flattening toward the origin).
    The interior terms are summed in place (ufunc ``out=``), in the order of
    the plain ``out += c_j * (v_j - v_center)`` sum from zeros; the four edge
    rows take that sum together, in a few whole-window operations.
    """
    v = np.asarray(values, dtype=float)
    npts = v.shape[0]
    if npts < MIN_STENCIL_NODES:
        raise CknLabError(f"need >= {MIN_STENCIL_NODES} radial nodes, got {npts}")
    out = scratch(v.shape)
    c = interior
    center = v[2:-2]
    acc = out[2:-2]
    # The first term is formed in place and added to +0.0, the sum's start
    # (which turns a -0.0 term to +0.0); the others go through the buffer.
    np.subtract(v[:npts - 4], center, out=acc)
    np.multiply(acc, c[0], out=acc)
    np.add(acc, 0.0, out=acc)
    buf = scratch(center.shape)
    for off, cj in ((-1, c[1]), (1, c[3]), (2, c[4])):
        np.subtract(v[2 + off:npts - 2 + off], center, out=buf)
        np.multiply(buf, cj, out=buf)
        np.add(acc, buf, out=acc)

    # The four edge rows at once: rows 0 and 1 from the first ne nodes, rows
    # -1 and -2 from the last ne nodes read backwards (a mirror, which flips
    # the sign of an odd derivative).  terms[e, k, j] = w_kj (v_j - v_k) is
    # term j of row k at end e, and its own node's term is +0.0.  Adding the
    # terms in j order then gives the sum of the terms j != k from +0.0,
    # signed zeros included: the +0.0 term comes first or second, so a -0.0
    # first term reads +0.0 after the second add, as it does in that sum.
    ne = len(edge0)
    ends = np.stack((v[:ne], v[::-1][:ne]))
    terms = ends[:, None] - ends[:, :2, None]
    terms *= np.stack((edge0, edge1)).reshape((1, 2, ne) + (1,) * (v.ndim - 1))
    terms[:, 0, 0] = terms[:, 1, 1] = 0.0
    rows = terms[:, :, 0]
    for j in range(1, ne):
        rows += terms[:, :, j]
    out[:2] = rows[0]
    out[:-3:-1] = (-1.0 if m % 2 else 1.0) * rows[1]
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
        if self.count < MIN_RADIAL_NODES:
            raise CknLabError(f"RadialGrid requires count >= {MIN_RADIAL_NODES}")
        x = np.linspace(math.log(self.r_min), math.log(self.r_max), self.count)
        s = np.exp(x)
        s.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "nodes", s)
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "log_step", (x[-1] - x[0]) / (self.count - 1))

    def rows(self, lo: int, hi: int) -> "RadialGrid":
        """Nodes lo..hi-1 as a grid of their own.

        The nodes are sliced from this grid and the log step is this grid's,
        so every sample and stencil on the window keeps the bits it has on the
        whole grid; spacing the window anew with linspace would not.  A window
        may be shorter than MIN_RADIAL_NODES; the stencils still need
        MIN_STENCIL_NODES.
        """
        sub = object.__new__(RadialGrid)
        s, x = self.nodes[lo:hi], self.x_nodes[lo:hi]
        for name, value in (("r_min", float(s[0])), ("r_max", float(s[-1])), ("count", len(s)),
                            ("nodes", s), ("x_nodes", x), ("log_step", self.log_step)):
            object.__setattr__(sub, name, value)
        return sub

    def column(self, values: np.ndarray) -> np.ndarray:
        """Broadcast helper: nodes shaped to match `values` along axis 0."""
        s = self.nodes
        return s if values.ndim == 1 else s[:, None]


def d_ds(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """First radial derivative on the log grid."""
    out = d_dx(values, grid.log_step)
    out /= grid.column(out)
    return out


def radial_derivs(values: np.ndarray, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(w', w'') on the log grid from one shared d/dx pass."""
    dx = d_dx(values, grid.log_step)
    s = grid.column(dx)
    d2 = d2_dx2(values, grid.log_step)
    d2 -= dx
    d2 /= s**2
    dx /= s
    return dx, d2


# ---------------------------------------------------------------------------
# Quadrature: cell-wise cubic composite rule on the uniform x grid, exact for
# cubics in x, with partial end cells integrated through the local cubic
# interpolant so arbitrary (r_lo, r_hi) regions keep full order.
# ---------------------------------------------------------------------------

def _basis_antiderivatives(offsets: tuple[int, ...]) -> list:
    """(antiderivative, denominator) of each Lagrange basis cubic on integer offsets.
    The product of the (x - r) is exact in integers; each coefficient is then
    divided once by its new power, as numpy's polyint rounds it (lowest first)."""
    pairs = []
    for j, oj in enumerate(offsets):
        others = offsets[:j] + offsets[j + 1:]
        prod = [1]
        for r in others:
            prod = [b - r * a for a, b in zip(prod + [0], [0] + prod)]
        pairs.append(((0.0, *(c / (i + 1) for i, c in enumerate(prod))),
                      float(math.prod(oj - r for r in others))))
    return pairs


# The cubics of the first, an interior and the last cell, keyed by the offset
# of their first node from the cell's left node.
_BASES = {first: _basis_antiderivatives(tuple(range(first, first + 4))) for first in (0, -1, -2)}


def _cell_weights(first: int, lo: float, hi: float) -> np.ndarray:
    """Integrals over [lo, hi] (grid units) of the basis of _BASES[first], each
    antiderivative taken by Horner's rule in numpy's polyval order."""
    ws = []
    for integ, denom in _BASES[first]:
        at_hi = at_lo = integ[-1]
        for c in integ[-2::-1]:
            at_hi, at_lo = c + at_hi * hi, c + at_lo * lo
        ws.append((at_hi - at_lo) / denom)
    return np.array(ws)


# Whole cells: [9, 19, -5, 1]/24 on nodes 0..3, [-1, 13, 13, -1]/24 on k-1..k+2.
_CELL_FIRST = _cell_weights(0, 0.0, 1.0)
_CELL_INTERIOR = _cell_weights(-1, 0.0, 1.0)


def integrate_uniform(F: np.ndarray, h: float, x0: float, x_lo: float, x_hi: float) -> float:
    """Integral of samples F (nodes x0 + i*h) over [x_lo, x_hi].

    F may be 1-D; region endpoints need not coincide with nodes.  Exact when
    F is a cubic polynomial of x.
    """
    F = np.asarray(F, dtype=float)
    npts = F.shape[0]
    if npts < 4:
        raise CknLabError(f"integrate_uniform needs >= 4 nodes for its cubic cells, got {npts}")
    ncell = npts - 1
    x_end = x0 + ncell * h
    eps = 1e-12 * max(abs(x0), abs(x_end), 1.0)
    if x_lo < x0 - eps or x_hi > x_end + eps:
        raise CknLabError(
            f"region [{x_lo}, {x_hi}] outside grid [{x0}, {x_end}] (log coords)"
        )
    if x_hi <= x_lo:
        return 0.0
    t_lo = min(max((x_lo - x0) / h, 0.0), ncell)
    t_hi = min(max((x_hi - x0) / h, 0.0), ncell)
    k_lo = min(int(math.floor(t_lo)), ncell - 1)
    k_hi = min(int(math.floor(t_hi)), ncell - 1)

    def partial(k: int, a: float, b: float) -> float:
        first = 0 if k == 0 else -2 if k == ncell - 1 else -1
        start = k + first
        return h * float(np.dot(_cell_weights(first, a - k, b - k), F[start:start + 4]))

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
