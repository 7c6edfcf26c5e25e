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
against the closed form is the headline check.  Eigenvalues are LAPACK
dstebz's, from the OpenBLAS numpy's linalg links: the module loads no scipy.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .bubble import cylinder_amplitude
from .errors import AdmissibilityError, CknLabError, LapackNotFound
from .params import ParamSet, alpha_bracket, derive_params, felli_schneider_threshold

BISECT_TOL = 1e-5  # width of the final alpha bracket in fs_crossing
#: Fewest grid intervals of a SectorOperator.
MIN_SECTOR_INTERVALS = 64
#: Grid intervals of `converged_lowest_eigenvalue`: N, 2N on T and 3N on 1.5 T, at N = 2000.
CONVERGED_GRIDS = (2000, 4000, 6000)
_LAPACK_HOST = np.linalg._umath_linalg.__file__   # numpy's LAPACK caller; see _dstebz

#: Columns of the rows `spectrum_table` returns.
SPECTRUM_HEADER = ["alpha", "k", "lowest_eigenvalue"]


def soliton_profile(ps: ParamSet, t):
    """v*(t) = c0 (2 cosh t)^(-(n-2)/2), the extremal in log-cylinder variables."""
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


def sphere_eigenvalue(k: int, d: int) -> float:
    """lambda_k = k (k + d - 2), the eigenvalue of -Lap_theta on degree-k harmonics."""
    return float(k * (k + d - 2))


def sector_potential(ps: ParamSet, k: int, t):
    """V_k(t) = alpha^2 Lambda^2 + lambda_k - (p-1) v*(t)^(p-2)."""
    lam_k = sphere_eigenvalue(k, ps.d)
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
        if self.N < MIN_SECTOR_INTERVALS:
            raise ValueError(f"need N >= {MIN_SECTOR_INTERVALS} grid intervals")

    def interior_nodes(self) -> tuple[np.ndarray, float]:
        if self.parity == "odd":
            h = self.T / self.N
            t = h * np.arange(1, self.N)
        else:
            h = 2.0 * self.T / self.N
            t = -self.T + h * np.arange(1, self.N)
        return t, h

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the discretized operator."""
        t, h = self.interior_nodes()
        diag = 2.0 * self.ps.alpha**2 / h**2 + sector_potential(self.ps, self.k, t)
        return diag, np.full(len(t) - 1, -self.ps.alpha**2 / h**2)


def default_domain(ps: ParamSet) -> float:
    """Truncation half-width: the well is exponentially localized at rate n-2."""
    Lambda = (ps.n - 2.0) / 2.0
    return max(20.0 / Lambda, 10.0)


def build_sector_operator(ps: ParamSet, k: int, T: float | None = None,
                          N: int = 2000, parity: str = "full") -> SectorOperator:
    return SectorOperator(ps=ps, k=int(k), T=float(T if T is not None else default_domain(ps)),
                          N=int(N), parity=parity)


@cache
def _dstebz():
    """dstebz by dlsym in _LAPACK_HOST and what it links: numpy's ILP64 scipy-openblas."""
    try:
        dstebz = ctypes.CDLL(_LAPACK_HOST).scipy_dstebz_64_
    except (OSError, AttributeError):   # the cause stays as the raise's __context__
        raise LapackNotFound(f"no LAPACK dstebz: searched {_LAPACK_HOST} for scipy_dstebz_64_")
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    arr = ctypes.c_void_p
    # RANGE ORDER; N VL VU IL IU ABSTOL; D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO; 2 lengths
    dstebz.argtypes = [ctypes.c_char_p] * 2 + [i64, f64, f64, i64, i64, f64] + [
        arr, arr, i64, i64, arr, arr, arr, arr, arr, i64] + [ctypes.c_size_t] * 2
    dstebz.restype = None
    return dstebz


def lowest_tridiagonal_eigenvalue(diag, off) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal matrix (diag, off), n >= 2.

    The bits of ``scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    select_range=(0, 0))``: bisection by LAPACK dstebz (Kahan, 1966; range 'I',
    il = iu = 1, abstol 0, order 'E') from numpy's own OpenBLAS, with scipy's
    finiteness check and info rule; LapackNotFound where numpy's linalg links none.
    """
    diag, off = (np.asarray_chkfinite(x, np.float64, "C") for x in (diag, off))
    n = diag.size
    if diag.ndim != 1 or n < 2 or off.shape != (n - 1,):   # LAPACK reads what n says
        raise ValueError(f"need shapes (n >= 2,) and (n - 1,): got {diag.shape}, {off.shape}")
    w, iblock, isplit = np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)
    work, iwork = np.empty(4 * n), np.empty(3 * n, np.int64)
    i64, f64 = ctypes.c_int64, ctypes.c_double
    m, nsplit, info = i64(), i64(), i64()
    _dstebz()(b"I", b"E", i64(n), f64(0.0), f64(1.0), i64(1), i64(1), f64(0.0),
              diag.ctypes.data, off.ctypes.data, m, nsplit,
              *(a.ctypes.data for a in (w, iblock, isplit, work, iwork)), info, 1, 1)
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of internal dstebz")
    if info.value > 0:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info.value})")
    return float(w[0])


def tridiagonal_is_positive(diag, off) -> bool:
    """Whether the symmetric tridiagonal (diag, off) is positive definite: every LDL^T
    pivot d_i = a_i - b_(i-1)^2 / d_(i-1) is positive (the Sturm count at 0; Barth, Martin
    & Wilkinson, Numer. Math. 9, 1967), in one pass that stops at the first pivot <= 0."""
    diag = memoryview(np.asarray_chkfinite(diag))  # yields Python floats, copies nothing
    pivot = diag[0]
    if not pivot > 0.0:
        return False
    for a, b in zip(diag[1:], memoryview(np.asarray_chkfinite(off))):
        pivot = a - b * b / pivot
        if not pivot > 0.0:
            return False
    return True


def lowest_eigenvalue(op: SectorOperator) -> float:
    """Smallest eigenvalue of the discretized operator (single resolution)."""
    out = lowest_tridiagonal_eigenvalue(*op.tridiagonal())
    if not math.isfinite(out):
        raise CknLabError("eigensolver returned a non-finite value")
    return out


@dataclass(frozen=True)
class EigenvalueEstimate:
    value: float        # Richardson-extrapolated over the grid step
    uncertainty: float  # |step refinement| / 3 + |domain extension| shifts


def converged_lowest_eigenvalue(ps: ParamSet, k: int, parity: str = "full") -> EigenvalueEstimate:
    """Lowest eigenvalue extrapolated over N (h^2 Richardson) and probed in T."""
    T = default_domain(ps)
    n1, n2, n3 = CONVERGED_GRIDS
    e1 = lowest_eigenvalue(build_sector_operator(ps, k, T, n1, parity))
    e2 = lowest_eigenvalue(build_sector_operator(ps, k, T, n2, parity))
    # same grid step as e2 on the wider domain, isolating the truncation error
    e3 = lowest_eigenvalue(build_sector_operator(ps, k, 1.5 * T, n3, parity))
    value = (4.0 * e2 - e1) / 3.0
    unc = abs(e2 - e1) / 3.0 + abs(e3 - e2)
    return EigenvalueEstimate(value=value, uncertainty=unc)


def zero_mode_eigenvalue(ps: ParamSet) -> EigenvalueEstimate:
    """The translation zero mode: lowest odd-parity k = 0 eigenvalue (= 0 exactly)."""
    return converged_lowest_eigenvalue(ps, k=0, parity="odd")


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


def fs_crossing_solves(lo: float, hi: float) -> int:
    """Sign tests `fs_crossing` makes on the bracket (lo, hi), each one O(N) pass:
    one at each end, then one per halving down to BISECT_TOL."""
    return 2 + max(0, math.ceil(math.log2((hi - lo) / BISECT_TOL)))


def fs_crossing(d: int, n: float, alpha_range: tuple[float, float] | None = None,
                N: int = 2000) -> FsCrossing:
    """Bisect the k = 1 bottom-eigenvalue sign change along a fixed-(d, n) path.

    Positive eigenvalue (stable radial extremal) below the threshold,
    negative above; CknLabError when the bracket excludes the crossing or
    the whole path is inadmissible (e.g. n = d sits on the p = 2* edge).
    Each of its `fs_crossing_solves` signs is the inertia of an N-node operator;
    only a bracket without a crossing solves for the end eigenvalues it reports.
    """
    formula = felli_schneider_threshold(d, n)
    lo, hi = map(float, alpha_bracket(d, n) if alpha_range is None else alpha_range)

    def operator(alpha: float) -> SectorOperator:
        try:
            ps = path_params(d, n, alpha)
        except AdmissibilityError as exc:
            raise CknLabError(
                f"path (d={d}, n={n}) is not strictly admissible at alpha={alpha}: {exc}"
            ) from exc
        return build_sector_operator(ps, k=1, N=N)

    def stable(alpha: float) -> bool:
        return tridiagonal_is_positive(*operator(alpha).tridiagonal())

    if not (stable(lo) and not stable(hi)):
        f_lo, f_hi = lowest_eigenvalue(operator(lo)), lowest_eigenvalue(operator(hi))
        raise CknLabError(
            f"no stable-to-unstable crossing in alpha bracket ({lo}, {hi}): "
            f"eigenvalues ({f_lo:.3e}, {f_hi:.3e})"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    alpha_star = 0.5 * (lo + hi)
    ps_star = path_params(d, n, alpha_star)
    return FsCrossing(d=d, n=n, alpha_star_numeric=alpha_star, alpha_star_formula=formula,
                      a_at_crossing=ps_star.a)
