"""Sector linearization on the log-cylinder and the symmetry-breaking threshold.

Writing w = s^(-Lambda) v(ln s, theta) with Lambda = (n-2)/2 turns the
linearization of the cylinder equation around the radial extremal into a
one-dimensional Schroedinger problem per spherical-harmonic sector:

    H_k psi = [-alpha^2 d^2/dt^2 + alpha^2 Lambda^2 + lambda_k
               - (p-1) v*(t)^(p-2)] psi,      lambda_k = k (k + d - 2),

where v*(t) = c0 (2 cosh t)^(-(n-2)/2) is the extremal in log-cylinder
variables.  Differentiating the profile equation in t shows H_0 vdot* = 0:
the translation mode (Euclidean scaling) is an exact zero mode, and since
vdot* is odd it is the ground state of the odd-parity k = 0 problem.  That
zero is the module's built-in correctness oracle.  The full k = 0 ground
state sits at -alpha^2 (n-1) (the potential is an exactly solvable sech^2
well), so the k = 1 bottom eigenvalue -alpha^2 (n-1) + (d-1) changes sign
precisely at alpha = sqrt((d-1)/(n-1)); locating that crossing numerically
against the closed form is the headline check.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .bubble import cylinder_amplitude
from .cylfield import SingleHarmonic
from .errors import AdmissibilityError, ConvergenceFailure, NoSignChange, SubcriticalRange
from .params import ParamSet, derive_params, felli_schneider_threshold

BISECT_TOL = 1e-5  # width of the final alpha bracket in fs_crossing

#: Default alpha bracket of the threshold search, in units of the closed form.
ALPHA_BRACKET = (0.7, 1.3)

#: Columns of the rows `spectrum_table` returns.
SPECTRUM_HEADER = ["alpha", "k", "lowest_eigenvalue"]


def soliton_profile(ps: ParamSet, t):
    """v*(t) = c0 (2 cosh t)^(-(n-2)/2), the extremal in log-cylinder variables."""
    if not ps.p_exp > 2.0:
        raise SubcriticalRange("soliton profile needs p > 2")
    t = np.asarray(t, dtype=float)
    c0 = cylinder_amplitude(ps)
    power = -(ps.n - 2.0) / 2.0
    with np.errstate(over="ignore"):
        two_cosh = 2.0 * np.cosh(t)
    out = np.asarray(c0 * two_cosh**power)
    big = np.isinf(two_cosh)
    if big.any():  # 2 cosh t = e^|t| in double precision long before it overflows
        out[big] = c0 * np.exp(power * np.abs(t[big]))
    return out if out.shape else float(out)


def sector_potential(ps: ParamSet, k: int, t):
    """V_k(t) = alpha^2 Lambda^2 + lambda_k - (p-1) v*(t)^(p-2)."""
    lam_k = SingleHarmonic(k).eigenvalue(ps.d)
    Lambda = (ps.n - 2.0) / 2.0
    v = np.asarray(soliton_profile(ps, t))
    return ps.alpha**2 * Lambda**2 + lam_k - (ps.p_exp - 1.0) * v ** (ps.p_exp - 2.0)


@dataclass(frozen=True)
class SectorOperator:
    """Symmetric tridiagonal discretization of H_k on a truncated line.

    parity "full": Dirichlet problem on (-T, T).
    parity "odd":  Dirichlet at 0 and T, i.e. H_k restricted to odd modes;
                   this is where the translation zero mode lives for k = 0.
    """

    ps: ParamSet
    k: int
    T: float
    N: int
    parity: str = "full"

    def __post_init__(self):
        if self.parity not in ("full", "odd"):
            raise ValueError("parity must be 'full' or 'odd'")
        if self.N < 64:
            raise ValueError("need N >= 64 grid intervals")

    def interior_nodes(self) -> tuple[np.ndarray, float]:
        if self.parity == "odd":
            h = self.T / self.N
            t = h * np.arange(1, self.N)
        else:
            h = 2.0 * self.T / self.N
            t = -self.T + h * np.arange(1, self.N)
        return t, h


def default_domain(ps: ParamSet) -> float:
    """Truncation half-width: the well is exponentially localized at rate n-2."""
    Lambda = (ps.n - 2.0) / 2.0
    return max(20.0 / Lambda, 10.0)


def build_sector_operator(ps: ParamSet, k: int, T: float | None = None,
                          N: int = 2000, parity: str = "full") -> SectorOperator:
    return SectorOperator(ps=ps, k=int(k), T=float(T if T is not None else default_domain(ps)),
                          N=int(N), parity=parity)


_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _dstebz():
    """LAPACK dstebz from scipy's compiled ``_flapack`` extension.

    The extension is loaded by file path and registered under its own name,
    so the `scipy.linalg` package (about 0.2 s and 28 MB over numpy) is not
    imported; a later ``import scipy.linalg`` finds and shares the module.
    There is no fallback: if scipy moves the extension this raises.
    """
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            linalg_dir = os.path.join(
                importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
            paths = [os.path.join(linalg_dir, "_flapack" + suffix)
                     for suffix in EXTENSION_SUFFIXES]
            path = next((p for p in paths if os.path.exists(p)), None)
            if path is None:
                raise ImportError(f"no scipy LAPACK extension among {paths}")
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
    return module.dstebz


def lowest_tridiagonal_eigenvalue(diag, off) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal matrix (diag, off), n >= 2.

    The call ``scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    select_range=(0, 0))`` makes: bisection by dstebz (range 'I', il = iu = 1,
    abstol 0, order 'E') with scipy's finiteness check and LAPACK info rule.
    """
    diag = np.asarray_chkfinite(diag)
    off = np.asarray_chkfinite(off)
    _, w, _, _, info = _dstebz()(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal dstebz")
    if info > 0:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    return float(w[0])


def lowest_eigenvalue(op: SectorOperator) -> float:
    """Smallest eigenvalue of the discretized operator (single resolution)."""
    t, h = op.interior_nodes()
    diag = 2.0 * op.ps.alpha**2 / h**2 + sector_potential(op.ps, op.k, t)
    off = np.full(len(t) - 1, -op.ps.alpha**2 / h**2)
    out = lowest_tridiagonal_eigenvalue(diag, off)
    if not math.isfinite(out):
        raise ConvergenceFailure("eigensolver returned a non-finite value")
    return out


@dataclass(frozen=True)
class EigenvalueEstimate:
    value: float        # Richardson-extrapolated over the grid step
    uncertainty: float  # |step refinement| / 3 + |domain extension| shifts


def converged_lowest_eigenvalue(ps: ParamSet, k: int, N: int = 2000,
                                parity: str = "full") -> EigenvalueEstimate:
    """Lowest eigenvalue extrapolated over N (h^2 Richardson) and probed in T."""
    T = default_domain(ps)
    e1 = lowest_eigenvalue(build_sector_operator(ps, k, T, N, parity))
    e2 = lowest_eigenvalue(build_sector_operator(ps, k, T, 2 * N, parity))
    # same grid step as e2 on the wider domain, isolating the truncation error
    e3 = lowest_eigenvalue(build_sector_operator(ps, k, 1.5 * T, 3 * N, parity))
    value = (4.0 * e2 - e1) / 3.0
    unc = abs(e2 - e1) / 3.0 + abs(e3 - e2)
    return EigenvalueEstimate(value=value, uncertainty=unc)


def zero_mode_eigenvalue(ps: ParamSet, N: int = 2000) -> EigenvalueEstimate:
    """The translation zero mode: lowest odd-parity k = 0 eigenvalue (= 0 exactly)."""
    return converged_lowest_eigenvalue(ps, k=0, N=N, parity="odd")


def path_params(d: int, n: float, alpha: float) -> ParamSet:
    """The (a, b) pair realizing given (d, n, alpha): b = a + 1 - d/n, a from alpha.

    On this path n is constant and alpha is affine in a.  Every alpha > 0 is
    admissible for n > d and none for n <= d (n < d forces b < a, n = d forces
    p = 2* or a = b), which is refused before the rounding of b can decide it.
    """
    if not n > d:
        raise AdmissibilityError(f"the fixed-(d, n) path needs n > d: got d = {d}, n = {n}")
    a_c = (d - 2) / 2.0
    c1 = d / n
    c2 = a_c + 1.0 - d / n
    a = a_c - alpha * c2 / c1
    b = a + 1.0 - d / n
    return derive_params(a, b, d, strict_subcritical=True)


def alpha_bracket(d: int, n: float) -> tuple[float, float]:
    """ALPHA_BRACKET times the closed-form threshold of the fixed-(d, n) path."""
    formula = felli_schneider_threshold(d, n)
    return ALPHA_BRACKET[0] * formula, ALPHA_BRACKET[1] * formula


def spectrum_table(d: int, n: float, alphas, k_max: int, N: int) -> list[tuple]:
    """(alpha, k, lowest eigenvalue) rows along the fixed-(d, n) path, k = 0..k_max."""
    rows = []
    for alpha in alphas:
        ps = path_params(d, n, float(alpha))
        for k in range(k_max + 1):
            ev = lowest_eigenvalue(build_sector_operator(ps, k, N=N))
            rows.append((float(alpha), k, ev))
    return rows


@dataclass(frozen=True)
class FsCrossing:
    d: int
    n: float
    alpha_star_numeric: float
    alpha_star_formula: float
    a_at_crossing: float

    @property
    def relative_gap(self) -> float:
        return abs(self.alpha_star_numeric - self.alpha_star_formula) / self.alpha_star_formula

    def to_dict(self) -> dict:
        return {**asdict(self), "relative_gap": self.relative_gap}


def fs_crossing(d: int, n: float, alpha_range: tuple[float, float] | None = None,
                N: int = 2000) -> FsCrossing:
    """Bisect the k = 1 bottom-eigenvalue sign change along a fixed-(d, n) path.

    Positive eigenvalue (stable radial extremal) below the threshold,
    negative above; NoSignChange when the bracket excludes the crossing or
    the whole path is inadmissible (e.g. n = d sits on the p = 2* edge).
    """
    formula = felli_schneider_threshold(d, n)
    lo, hi = map(float, alpha_bracket(d, n) if alpha_range is None else alpha_range)

    def eig(alpha: float) -> float:
        try:
            ps = path_params(d, n, alpha)
        except AdmissibilityError as exc:
            raise NoSignChange(
                f"path (d={d}, n={n}) is not strictly admissible at alpha={alpha}: {exc}"
            ) from exc
        return lowest_eigenvalue(build_sector_operator(ps, k=1, N=N))

    f_lo, f_hi = eig(lo), eig(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NoSignChange(
            f"no stable-to-unstable crossing in alpha bracket ({lo}, {hi}): "
            f"eigenvalues ({f_lo:.3e}, {f_hi:.3e})"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if eig(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha_star = 0.5 * (lo + hi)
    ps_star = path_params(d, n, alpha_star)
    return FsCrossing(d=d, n=n, alpha_star_numeric=alpha_star, alpha_star_formula=formula,
                      a_at_crossing=ps_star.a)
