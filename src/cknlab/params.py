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
import sys
from dataclasses import dataclass

from .errors import AdmissibilityError

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
        out = {**vars(self), "regime": self.regime.value}
        # JSON has no literal for infinities (n is infinite on the p=2 edge).
        return {key: "inf" if isinstance(val, float) and math.isinf(val) else val
                for key, val in out.items()}

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


#: Default alpha bracket of the threshold search, in units of the closed form.
ALPHA_BRACKET = (0.7, 1.3)


def alpha_bracket(d: int, n: float) -> tuple[float, float]:
    """ALPHA_BRACKET times the closed-form threshold of the fixed-(d, n) path."""
    formula = felli_schneider_threshold(d, n)
    return ALPHA_BRACKET[0] * formula, ALPHA_BRACKET[1] * formula


def derive_params(a: float, b: float, d: int, strict_subcritical: bool = False) -> ParamSet:
    """Derive the full ParamSet for weights (a, b) in ambient dimension d.

    With ``strict_subcritical`` the endpoint exponents p = 2 (b = a+1) and
    p = 2* (a = b, d >= 3) are rejected with AdmissibilityError; by default
    they are admissible-for-parameters and it is up to the caller to demand
    strictness where an operation needs p in the open range.  Off the p = 2
    edge, an n or p that overflows a double is refused, as is a p that rounds
    to 2 and an alpha whose square is not a positive normal double.
    """
    a, b = float(a), float(b)  # numpy scalars would turn overflow into inf
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    try:
        integral = float(d).is_integer()
    except OverflowError:   # an int past the largest double; d enters float arithmetic
        raise ValueError(f"ambient dimension d is too large for a double: got {d}") from None
    if not integral:
        raise ValueError(f"ambient dimension d must be an integer: got {d}")
    d = int(d)
    if d < 2:
        raise ValueError("ambient dimension d must be >= 2")

    a_c = (d - 2) / 2.0
    if d >= 3:
        if not (a <= b <= a + 1):
            raise AdmissibilityError(f"requires a <= b <= a+1 for d >= 3: got a = {a}, b = {b}")
    else:
        if not (a < b <= a + 1):
            raise AdmissibilityError(f"requires a < b <= a+1 for d = 2: got a = {a}, b = {b}")
    if a >= a_c:
        raise AdmissibilityError(f"requires a < a_c = (d-2)/2: got a = {a}, a_c = {a_c}")

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
            raise AdmissibilityError(
                f"b - a = {b - a!r} is below the resolution of 1 + a - b = "
                f"{one_ab!r} at d = 2, so n = d/(1+a-b) is not above 2: "
                f"got a = {a}, b = {b}"
            )
        p = 2.0 * d / (d - 2.0 + 2.0 * (b - a))
        if not (math.isfinite(n) and math.isfinite(p)):
            raise AdmissibilityError(f"n = {n!r} or p = {p!r} overflows a double: got d = {d}")
        if p == 2.0:   # off the edge, so p - 2 = 4 (1+a-b) / (d-2+2(b-a)) rounded away
            raise AdmissibilityError(
                f"p - 2 is below double precision: got d = {d}, b - a = {b - a!r}")
        alpha = one_ab * kappa / (kappa + b)
        if not alpha**2 >= sys.float_info.min:   # alpha^2 divides the radial equation
            raise AdmissibilityError(
                f"alpha = {alpha!r} has a square below the smallest normal double "
                f"{sys.float_info.min!r}: got a = {a}, b = {b}, d = {d}"
            )
        fs_threshold = felli_schneider_threshold(d, n)
        # scaled by 2/(n-2), the condition number of 2n/(n-2), large as p -> inf at d = 2
        p_check = 2.0 * n / (n - 2.0)
        if abs(p - p_check) > REL_TOL * max(1.0, 2.0 / (n - 2.0)) * abs(p):
            raise AssertionError(
                f"internal inconsistency: p = {p!r} vs 2n/(n-2) = {p_check!r}"
            )

    regime = Regime.SYMMETRIC if alpha <= fs_threshold else Regime.SYMMETRY_BREAKING
    ps = ParamSet(
        a=float(a), b=float(b), d=d, a_c=a_c, p_exp=p, alpha=alpha,
        n=n, fs_threshold=fs_threshold, regime=regime, kappa=kappa,
    )
    if strict_subcritical and not ps.strictly_subcritical:
        raise AdmissibilityError(f"requires p strictly inside (2, 2*): got p = {p}"
                                 + (f", 2* = {2.0 * d / (d - 2)}" if d >= 3 else ""))
    return ps


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
