"""Discretized functions on the cylinder (0, inf) x S^(d-1).

After the change of variables r -> r^alpha the equation lives on a cylinder
carrying the measure dmu = r^(n-1) dr dtheta, the gradient
D = (alpha d/dr, grad_theta / r) and the operator
    L w = alpha^2 w'' + alpha^2 (n-1) w'/r + Lap_theta w / r^2.

Three angular representations are supported: Radial (no angular dependence,
any d), PeriodicGrid (full uniform grid on S^1, d = 2 only; angular calculus
is spectral) and SingleHarmonic (one sector, Lap_theta acts as -k(k+d-2)).
Each representation owns its angular calculus on sample arrays and raises
UnsupportedAngularRep where an operation is undefined for it; L is written
once, in `L_kernel`.  Nonlinear pointwise work is done on Radial and
PeriodicGrid fields; full angular grids for d >= 3 are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    NonPositiveSample,
    RegionOutsideGrid,
    UnsupportedAngularRep,
)
from .grids import (RadialGrid, d_ds, default_grid, integrate_measure_radial, radial_derivs,
                    sphere_area)
from .params import ParamSet


class _AngularCalculus:
    """Angular calculus on sample arrays (radius on axis 0), Radial by default.

    ``None`` stands for a vanishing angular term, which callers skip.
    """

    def sample_shape(self, grid: RadialGrid, d: int) -> tuple:
        return (grid.count,)

    def sample(self, u_sampler, r: np.ndarray) -> np.ndarray:
        """Samples of ``u_sampler(radius, angle)`` at the Euclidean radii r."""
        return np.asarray(u_sampler(r, np.zeros_like(r)), dtype=float)

    def grad_theta(self, values: np.ndarray) -> np.ndarray | None:
        return None

    def lap_theta(self, values: np.ndarray, d: int) -> np.ndarray | None:
        return None

    def theta_pair(self, values: np.ndarray):
        """(grad_theta, Lap_theta) for nonlinear work on pointwise samples."""
        return None, None

    def sphere_mean(self, values: np.ndarray, d: int):
        """(theta-mean profile, sphere measure) for integrals against dmu."""
        return values, sphere_area(d)

    def require_periodic(self, who: str) -> None:
        raise UnsupportedAngularRep(f"{who} needs a PeriodicGrid field")


@dataclass(frozen=True)
class Radial(_AngularCalculus):
    """No angular dependence; valid in any ambient dimension."""


@dataclass(frozen=True)
class PeriodicGrid(_AngularCalculus):
    """Uniform grid of `size` angles on S^1 (d = 2 only)."""

    size: int = 256

    def sample_shape(self, grid, d):
        if d != 2:
            raise UnsupportedAngularRep("PeriodicGrid fields require d = 2")
        return (grid.count, self.size)

    def sample(self, u_sampler, r):
        th = theta_nodes(self)
        values = np.asarray(u_sampler(r[:, None], th[None, :]), dtype=float)
        return np.broadcast_to(values, (r.size, self.size)).copy()

    def grad_theta(self, values):
        return theta_derivative(values, 1)

    def lap_theta(self, values, d):
        return theta_derivative(values, 2)

    def theta_pair(self, values):
        spec, m = np.fft.rfft(values, axis=1), values.shape[1]
        return _theta_from_spectrum(spec.copy(), m, 1), _theta_from_spectrum(spec, m, 2)

    def sphere_mean(self, values, d):
        return values.mean(axis=1), 2.0 * np.pi

    def require_periodic(self, who):
        pass


@dataclass(frozen=True)
class SingleHarmonic(_AngularCalculus):
    """One spherical-harmonic sector with eigenvalue k(k+d-2)."""

    k: int

    def eigenvalue(self, d: int) -> float:
        return float(self.k * (self.k + d - 2))

    def sample(self, u_sampler, r):
        raise UnsupportedAngularRep("to_cylinder samples pointwise values; "
                                    "build SingleHarmonic fields directly")

    def grad_theta(self, values):
        if self.k:
            raise UnsupportedAngularRep("square-norm of a k >= 1 harmonic sector mixes "
                                        "sectors; use a PeriodicGrid field")
        return None

    def lap_theta(self, values, d):
        return -self.eigenvalue(d) * values if self.k > 0 else None

    def theta_pair(self, values):
        if self.k:
            raise UnsupportedAngularRep("pressure is a nonlinear function of w; "
                                        "use Radial or PeriodicGrid fields")
        return None, None

    def sphere_mean(self, values, d):
        raise UnsupportedAngularRep("integrate_mu supports Radial and PeriodicGrid")


AngularRep = Radial | PeriodicGrid | SingleHarmonic


def theta_nodes(angular: PeriodicGrid) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, angular.size, endpoint=False)


def _theta_from_spectrum(spec: np.ndarray, m: int, order: int) -> np.ndarray:
    """Inverse transform of the order-th derivative; multiplies ``spec`` in place."""
    k = np.arange(spec.shape[1], dtype=float)
    mult = (1j * k) ** order
    if order % 2 == 1 and m % 2 == 0:
        mult[-1] = 0.0  # odd derivative of the unpaired Nyquist mode
    spec *= mult
    return np.fft.irfft(spec, n=m, axis=1)


def theta_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral angular derivative along axis 1 (periodic, d = 2)."""
    return _theta_from_spectrum(np.fft.rfft(values, axis=1), values.shape[1], order)


def L_kernel(d1: np.ndarray, d2: np.ndarray, lap_theta: np.ndarray | None,
             s: np.ndarray, ps: ParamSet) -> np.ndarray:
    """L from (w', w'', Lap_theta w): alpha^2 (w'' + (n-1) w'/r) + Lap_theta w / r^2.

    ``lap_theta`` None skips the angular term.  Given (V_r, V_r', div_theta V_theta)
    it is the weighted divergence D_i V_i.
    """
    out = np.multiply(d1, ps.n - 1.0)
    out /= s
    out += d2
    out *= ps.alpha**2
    if lap_theta is not None:
        out += lap_theta / s**2
    return out


def L_of_values(values: np.ndarray, grid: RadialGrid, angular: AngularRep, ps: ParamSet):
    """L applied to a sample array."""
    d1, d2 = radial_derivs(values, grid)
    return L_kernel(d1, d2, angular.lap_theta(values, ps.d), grid.column(values), ps)


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

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    def require_positive(self, who: str) -> None:
        if self.min_value <= 0.0:
            raise NonPositiveSample(f"{who} requires a positive field "
                                    f"(min sample {self.min_value})")


@dataclass(frozen=True)
class MeasureRegion:
    """Radial interval (r_lo, r_hi) inside the grid support."""

    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (0.0 < self.r_lo < self.r_hi):
            raise ValueError("need 0 < r_lo < r_hi")


def full_region(grid: RadialGrid) -> MeasureRegion:
    return MeasureRegion(grid.r_min, grid.r_max)


def to_cylinder(
    u_sampler,
    ps: ParamSet,
    grid: RadialGrid | None = None,
    angular: AngularRep = Radial(),
    require_positive: bool = False,
) -> CylinderField:
    """Sample w(s, theta) = u(s^(1/alpha), theta) on the grid.

    ``u_sampler(radius, angle)`` must accept numpy arrays (broadcasting);
    radial samplers may ignore the angle argument.
    """
    grid = grid or default_grid()
    values = angular.sample(u_sampler, grid.nodes ** (1.0 / ps.alpha))
    field = CylinderField(grid, angular, values, ps)
    if require_positive:
        field.require_positive("to_cylinder")
    return field


def grad_cyl(w: CylinderField) -> CylinderField:
    """|D w|^2 for the cylinder gradient D w = (alpha w', grad_theta w / r)."""
    radial = w.params.alpha * d_ds(w.values, w.grid)
    g = w.angular.grad_theta(w.values)
    if g is None:
        return w.with_values(radial**2)
    return w.with_values(radial**2 + (g / w.grid.column(w.values)) ** 2)


def apply_L(w: CylinderField) -> CylinderField:
    """L w = alpha^2 w'' + alpha^2 (n-1) w'/r + Lap_theta w / r^2."""
    return w.with_values(L_of_values(w.values, w.grid, w.angular, w.params))


def integrate_mu(f: CylinderField, region: MeasureRegion | None = None) -> float:
    """int f dmu over the region, dmu = r^(n-1) dr dtheta.

    Radial representation carries the full |S^(d-1)| factor; PeriodicGrid
    uses the spectrally-accurate periodic trapezoid in theta.
    """
    region = region or full_region(f.grid)
    eps = 1e-9 * f.grid.r_min
    if region.r_lo < f.grid.r_min - eps or region.r_hi > f.grid.r_max * (1 + 1e-12):
        raise RegionOutsideGrid(
            f"region ({region.r_lo}, {region.r_hi}) outside grid "
            f"({f.grid.r_min}, {f.grid.r_max})"
        )
    profile, factor = f.angular.sphere_mean(f.values, f.params.d)
    return factor * integrate_measure_radial(
        profile, f.grid, f.params.n, region.r_lo, region.r_hi
    )


def residual_eq_w(w: CylinderField) -> CylinderField:
    """L w + w^(p-1); vanishes at grid scale iff w solves the cylinder equation."""
    w.require_positive("residual_eq_w")
    lw = L_of_values(w.values, w.grid, w.angular, w.params)
    return w.with_values(lw + w.values ** (w.params.p_exp - 1.0))


def ckn_rayleigh(w: CylinderField) -> float:
    """alpha^(1-2/p) (int |w|^p dmu)^(2/p) / int |Dw|^2 dmu.

    Quotient form of the weighted interpolation inequality on the cylinder;
    its value on a trial field is a certified lower witness for the sharp
    constant (no claim of sharpness is made here).
    """
    w.require_positive("ckn_rayleigh")
    ps = w.params
    p = ps.p_exp
    num = integrate_mu(w.with_values(np.abs(w.values) ** p))
    den = integrate_mu(grad_cyl(w))
    if not (np.isfinite(den) and den > 1e-250):
        raise DegenerateDenominator(f"gradient energy {den} is degenerate")
    if not np.isfinite(num):
        raise DegenerateDenominator(f"p-norm integral {num} is not finite")
    return ps.alpha ** (1.0 - 2.0 / p) * num ** (2.0 / p) / den
