"""Parameter calculus for the two-weight critical family.

A triple (a, b, d) of weight exponents and ambient dimension determines the
critical exponent p, the scaling exponent kappa, and the pair (alpha, n) of
the Emden-Fowler change of variables: alpha rescales the radial coordinate
and n is the intrinsic dimension d/(1+a-b) seen by the cylinder measure
r^(n-1) dr dtheta.  Everything downstream (bubble, pressure identities,
growth laws, sector spectra) reads these numbers constantly, so they are all
derived eagerly and stored in an immutable ParamSet.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import AdmissibilityError, ConstraintAB, ConstraintAC, SubcriticalRange

#: Relative tolerance for internal consistency checks of derived quantities.
REL_TOL = 1e-12


class Regime(enum.Enum):
    SYMMETRIC = "Symmetric"
    SYMMETRY_BREAKING = "SymmetryBreaking"


@dataclass(frozen=True)
class ParamSet:
    """Admissible (a, b, d) with all derived quantities.

    Fields mirror the flat JSON serialization exactly.
    """

    a: float
    b: float
    d: int
    a_c: float
    p_exp: float
    alpha: float
    n: float
    fs_threshold: float
    regime: Regime
    kappa: float

    def to_dict(self) -> dict:
        out = {
            "a": self.a,
            "b": self.b,
            "d": self.d,
            "a_c": self.a_c,
            "p_exp": self.p_exp,
            "alpha": self.alpha,
            "n": self.n,
            "fs_threshold": self.fs_threshold,
            "regime": self.regime.value,
            "kappa": self.kappa,
        }
        # JSON has no literal for infinities (n is infinite on the p=2 edge).
        for key, val in out.items():
            if isinstance(val, float) and math.isinf(val):
                out[key] = "inf"
        return out

    @property
    def is_symmetric(self) -> bool:
        return self.regime is Regime.SYMMETRIC

    @property
    def strictly_subcritical(self) -> bool:
        """True when p lies strictly inside (2, 2*)."""
        if not self.p_exp > 2.0:
            return False
        if self.d >= 3:
            return self.p_exp < 2.0 * self.d / (self.d - 2)
        return True  # 2* is infinite for d = 2


def felli_schneider_threshold(d: int, n: float) -> float:
    """The symmetry-breaking threshold sqrt((d-1)/(n-1)) on alpha."""
    return math.sqrt((d - 1.0) / (n - 1.0))


def derive_params(a: float, b: float, d: int, strict_subcritical: bool = False) -> ParamSet:
    """Derive the full ParamSet for weights (a, b) in ambient dimension d.

    With ``strict_subcritical`` the endpoint exponents p = 2 (b = a+1) and
    p = 2* (a = b, d >= 3) are rejected with SubcriticalRange; by default
    they are admissible-for-parameters and it is up to the caller to demand
    strictness where an operation needs p in the open range.
    """
    a, b = float(a), float(b)  # numpy scalars would turn overflow into inf
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    if not float(d).is_integer():
        raise ValueError(f"ambient dimension d must be an integer: got {d}")
    d = int(d)
    if d < 2:
        raise ValueError("ambient dimension d must be >= 2")

    a_c = (d - 2) / 2.0
    if d >= 3:
        if not (a <= b <= a + 1):
            raise ConstraintAB(
                f"requires a <= b <= a+1 for d >= 3: got a = {a}, b = {b}"
            )
    else:
        if not (a < b <= a + 1):
            raise ConstraintAB(
                f"requires a < b <= a+1 for d = 2: got a = {a}, b = {b}"
            )
    if a >= a_c:
        raise ConstraintAC(
            f"requires a < a_c = (d-2)/2: got a = {a}, a_c = {a_c}"
        )

    kappa = a_c - a
    one_ab = 1.0 + a - b  # = d/n; zero exactly on the p = 2 edge
    if one_ab == 0.0:
        n = math.inf
        p = 2.0
        alpha = 0.0
        fs_threshold = 0.0
    else:
        n = d / one_ab
        if n <= 2.0:  # only at d = 2, where b - a vanished in rounding 1+a-b
            raise ConstraintAB(
                f"b - a = {b - a!r} is below the resolution of 1 + a - b = "
                f"{one_ab!r} at d = 2, so n = d/(1+a-b) is not above 2: "
                f"got a = {a}, b = {b}"
            )
        p = 2.0 * d / (d - 2.0 + 2.0 * (b - a))
        alpha = one_ab * kappa / (kappa + b)
        fs_threshold = felli_schneider_threshold(d, n)
        # scaled by 2/(n-2), the condition number of 2n/(n-2), large as p -> inf at d = 2
        p_check = 2.0 * n / (n - 2.0)
        if abs(p - p_check) > REL_TOL * max(1.0, 2.0 / (n - 2.0)) * abs(p):
            raise AssertionError(
                f"internal inconsistency: p = {p!r} vs 2n/(n-2) = {p_check!r}"
            )

    if strict_subcritical:
        upper = 2.0 * d / (d - 2) if d >= 3 else math.inf
        if not (2.0 < p < upper):
            raise SubcriticalRange(
                f"requires p strictly inside (2, 2*): got p = {p}"
                + (f", 2* = {upper}" if d >= 3 else "")
            )

    regime = Regime.SYMMETRIC if alpha <= fs_threshold else Regime.SYMMETRY_BREAKING
    return ParamSet(
        a=float(a), b=float(b), d=d, a_c=a_c, p_exp=p, alpha=alpha,
        n=n, fs_threshold=fs_threshold, regime=regime, kappa=kappa,
    )


#: Columns of the rows `regime_row` returns.
REGIME_HEADER = ["a", "b", "p", "alpha", "n", "fs_threshold", "regime"]


def regime_row(a: float, b: float, d: int) -> tuple:
    """One regime-map row; an inadmissible (a, b) gives NaNs marked "excluded"."""
    try:
        ps = derive_params(a, b, d)
    except AdmissibilityError:
        nan = float("nan")
        return (a, b, nan, nan, nan, nan, "excluded")
    return (a, b, ps.p_exp, ps.alpha, ps.n, ps.fs_threshold, ps.regime.value)


@dataclass(frozen=True)
class DecayThresholds:
    """Cylinder-variable decay exponents gating the classification results.

    sigma_star: a solution bounded by C r^sigma with sigma < sigma_star is
        rigid for n >= 4 (infinite for n <= 4: no decay needed there).
    finite_energy_sigma: -(n-2)/2, the cylinder form of the Euclidean
        threshold rate |x|^(-(d-2-2a)/2) below which radial solutions have
        finite energy.
    """

    sigma_star: float
    finite_energy_sigma: float


def decay_thresholds(ps: ParamSet) -> DecayThresholds:
    n = ps.n
    if n <= 4.0:
        sigma_star = math.inf
    else:
        sigma_star = -(n - 2.0) * (n - 6.0) / (2.0 * (n - 4.0))
    return DecayThresholds(
        sigma_star=sigma_star,
        finite_energy_sigma=-(n - 2.0) / 2.0,
    )


#: Rigidity results, named by their hypotheses.
TAG_LOW_DIM = "low_dim"            # 2 < n < 4, no decay or energy hypothesis
TAG_DECAY = "decay"                # n >= 4 plus pointwise decay sigma < sigma_star
TAG_FINITE_ENERGY = "finite_energy"  # solution in the energy space
TAG_NATURAL_DECAY = "natural_decay"  # decay at the finite-energy threshold rate
TAG_BOUNDED = "bounded"            # bounded solutions, 2 < n <= 6


def applicable_results(
    ps: ParamSet,
    observed_sigma: float | None = None,
    finite_energy: bool = False,
) -> list[str]:
    """Which classification results have their hypotheses satisfied.

    ``observed_sigma`` is the certified cylinder-variable envelope exponent:
    the caller asserts w(r, theta) <= C r^sigma outside a compact set
    (equivalently u(x) <= C |x|^(sigma * alpha)).  Boundedness with no decay
    is asserted by passing exactly 0.0.  All results additionally require the
    symmetric regime and p strictly inside (2, 2*).
    """
    if not (ps.is_symmetric and ps.strictly_subcritical):
        return []
    thr = decay_thresholds(ps)
    n = ps.n
    tags = []
    if 2.0 < n < 4.0:
        tags.append(TAG_LOW_DIM)
    if n >= 4.0 and observed_sigma is not None and observed_sigma < thr.sigma_star:
        tags.append(TAG_DECAY)
    if finite_energy:
        tags.append(TAG_FINITE_ENERGY)
    if observed_sigma is not None and observed_sigma <= thr.finite_energy_sigma:
        tags.append(TAG_NATURAL_DECAY)
    if 2.0 < n <= 6.0 and observed_sigma is not None and observed_sigma == 0.0:
        tags.append(TAG_BOUNDED)
    return tags
