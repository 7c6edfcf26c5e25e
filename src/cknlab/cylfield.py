"""Discretized functions on the cylinder (0, inf) x S^(d-1).

After the change of variables r -> r^alpha the equation lives on a cylinder
carrying the measure dmu = r^(n-1) dr dtheta, the gradient
D = (alpha d/dr, grad_theta / r) and the operator
    L w = alpha^2 w'' + alpha^2 (n-1) w'/r + Lap_theta w / r^2.

Two angular representations are supported: Radial (no angular dependence,
any d) and PeriodicGrid (full uniform grid on S^1, d = 2 only; angular
calculus is spectral).  Each owns its angular calculus on sample arrays; L
is written once, in `L_kernel`.  Full angular grids for d >= 3 are out of
scope.  `integrate_mu(f, r_lo, r_hi)` is the one measure integral: the
theta-mean profile times e^(n x), integrated by `grids.integrate_uniform`,
which alone decides whether (r_lo, r_hi) lies inside the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CknLabError
from .grids import RadialGrid, d_ds, integrate_uniform, radial_derivs, scratch, sphere_area
from .params import ParamSet


class _AngularCalculus:
    """Angular calculus on sample arrays (radius on axis 0), Radial by default.

    ``None`` stands for a vanishing angular term, which callers skip.
    """

    def sample_shape(self, grid: RadialGrid, d: int) -> tuple:
        return (grid.count,)

    def grad_theta(self, values: np.ndarray) -> np.ndarray | None:
        return None

    def lap_theta(self, values: np.ndarray) -> np.ndarray | None:
        return None

    def theta_pair(self, values: np.ndarray):
        """(grad_theta, Lap_theta) for nonlinear work on pointwise samples."""
        return None, None

    def sphere_mean(self, values: np.ndarray, d: int):
        """(theta-mean profile, sphere measure) for integrals against dmu."""
        return values, sphere_area(d)


@dataclass(frozen=True)
class Radial(_AngularCalculus):
    """No angular dependence; valid in any ambient dimension."""


@dataclass(frozen=True)
class PeriodicGrid(_AngularCalculus):
    """Uniform grid of `size` angles on S^1 (d = 2 only)."""

    size: int = 256

    def sample_shape(self, grid, d):
        if d != 2:
            raise CknLabError("PeriodicGrid fields require d = 2")
        return (grid.count, self.size)

    def grad_theta(self, values):
        return theta_derivative(values, 1)

    def lap_theta(self, values):
        return theta_derivative(values, 2)

    def theta_pair(self, values):
        spec, m = _spectrum(values), values.shape[1]
        copy = scratch(spec.shape, spec.dtype)
        copy[...] = spec
        return _theta_from_spectrum(copy, m, 1), _theta_from_spectrum(spec, m, 2)

    def sphere_mean(self, values, d):
        return values.mean(axis=1), 2.0 * np.pi


AngularRep = Radial | PeriodicGrid


def theta_nodes(angular: PeriodicGrid) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, angular.size, endpoint=False)


def _spectrum(values: np.ndarray) -> np.ndarray:
    """rfft of each row (axis 1)."""
    shape = (values.shape[0], values.shape[1] // 2 + 1)
    return np.fft.rfft(values, axis=1, out=scratch(shape, complex))


def _theta_from_spectrum(spec: np.ndarray, m: int, order: int) -> np.ndarray:
    """Inverse transform of the order-th derivative; multiplies ``spec`` in place."""
    k = np.arange(spec.shape[1], dtype=float)
    mult = (1j * k) ** order
    if order % 2 == 1 and m % 2 == 0:
        mult[-1] = 0.0  # odd derivative of the unpaired Nyquist mode
    spec *= mult
    return np.fft.irfft(spec, n=m, axis=1, out=scratch((spec.shape[0], m)))


def theta_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral angular derivative along axis 1 (periodic, d = 2)."""
    return _theta_from_spectrum(_spectrum(values), values.shape[1], order)


def L_kernel(d1: np.ndarray, d2: np.ndarray, lap_theta: np.ndarray | None,
             s: np.ndarray, ps: ParamSet, *, out: np.ndarray | None = None) -> np.ndarray:
    """L from (w', w'', Lap_theta w): alpha^2 (w'' + (n-1) w'/r) + Lap_theta w / r^2.

    ``lap_theta`` None skips the angular term.  Given (V_r, V_r', div_theta V_theta)
    it is the weighted divergence D_i V_i.  L is written into ``out`` (which may
    be ``d1`` itself), or a new array by default.
    """
    out = np.multiply(d1, ps.n - 1.0, out=out)
    out /= s
    out += d2
    out *= ps.alpha**2
    if lap_theta is not None:
        out += np.divide(lap_theta, s**2, out=scratch(lap_theta.shape))
    return out


def L_of_values(values: np.ndarray, grid: RadialGrid, angular: AngularRep, ps: ParamSet):
    """L applied to a sample array."""
    d1, d2 = radial_derivs(values, grid)
    return L_kernel(d1, d2, angular.lap_theta(values), grid.column(values), ps, out=d1)


@dataclass(frozen=True)
class CylinderField:
    """Dense real samples of a function on the cylinder.

    The field takes ownership of ``values``: an array that owns its memory is
    frozen in place (a later write to it raises); a view is copied, since
    whoever holds its base could still write through it.
    """

    grid: RadialGrid
    angular: AngularRep
    values: np.ndarray
    params: ParamSet

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = self.angular.sample_shape(self.grid, self.params.d)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} != expected {expected}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field samples must be finite")
        if v.base is not None:
            v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "CylinderField":
        return CylinderField(self.grid, self.angular, values, self.params)

    def require_positive(self, who: str) -> None:
        low = float(self.values.min())
        if low <= 0.0:
            raise CknLabError(f"{who} requires a positive field (min sample {low})")


def grad_sq(w: CylinderField) -> np.ndarray:
    """Samples of |D w|^2 for the cylinder gradient D w = (alpha w', grad_theta w / r)."""
    radial = w.params.alpha * d_ds(w.values, w.grid)
    g = w.angular.grad_theta(w.values)
    if g is None:
        return radial**2
    return radial**2 + (g / w.grid.column(w.values)) ** 2


def grad_cyl(w: CylinderField) -> CylinderField:
    """|D w|^2 as a field, for integrals against dmu."""
    return w.with_values(grad_sq(w))


def integrate_mu(f: CylinderField, r_lo: float | None = None,
                 r_hi: float | None = None) -> float:
    """int f dmu over (r_lo, r_hi), by default the whole grid; dmu = r^(n-1) dr dtheta.

    Radial representation carries the full |S^(d-1)| factor; PeriodicGrid
    uses the spectrally-accurate periodic trapezoid in theta.  The radial
    integral is integrate_uniform's in x = ln r, where s^(n-1) ds = s^n dx;
    it alone decides whether (r_lo, r_hi) lies inside the grid.
    """
    grid = f.grid
    r_lo = grid.r_min if r_lo is None else r_lo
    r_hi = grid.r_max if r_hi is None else r_hi
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    profile, factor = f.angular.sphere_mean(f.values, f.params.d)
    F = profile * np.exp(f.params.n * grid.x_nodes)
    return factor * integrate_uniform(F, grid.log_step, grid.x_nodes[0],
                                      math.log(r_lo), math.log(r_hi))
