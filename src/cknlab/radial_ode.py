"""Singular shooting for the radial cylinder equation and radial rigidity.

The radial reduction  alpha^2 w'' + alpha^2 (n-1) w'/s + w^(p-1) = 0 with
w(0) = w0, w'(0) = 0 has a removable singular point at s = 0; integration
starts from the two-term series w = w0 - w0^(p-1) s^2 / (2 n alpha^2) at
s0 = 1e-6 and proceeds in the log variable t = ln s, where the system reads

    d2w/dt2 = -(n-2) dw/dt - e^(2t) w^(p-1) / alpha^2.

Every decaying profile should match a rescaled extremal; the sweep measures
that directly, as a desk-scale witness of radial rigidity.  The intrinsic
dimension n is generically fractional and enters the ODE as a real number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bubble import bubble_cylinder_values, cylinder_amplitude
from .errors import NotDecaying, StepFailure, SubcriticalRange
from .params import ParamSet

BLOWUP_FACTOR = 1e6     # BlowsUp when w > 1e6 * w0
TOUCH_FACTOR = 1e-12    # TouchesZero when w < 1e-12 * w0
SERIES_START = 1e-6


class Classification(enum.Enum):
    DECAYS_LIKE_BUBBLE = "DecaysLikeBubble"
    BLOWS_UP = "BlowsUp"
    TOUCHES_ZERO = "TouchesZero"


@dataclass(frozen=True)
class RadialProfile:
    ps: ParamSet
    w0: float
    s: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
    classification: Classification


# scipy is imported on first call, so commands that never shoot do not pay
# its import time; both forwarders return scipy's result object unchanged.
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)


def series_start(ps: ParamSet, w0: float, s: float) -> tuple[float, float]:
    """Two-term series value and derivative near the singular point."""
    c2 = -(w0 ** (ps.p_exp - 1.0)) / (2.0 * ps.n * ps.alpha**2)
    return w0 + c2 * s**2, 2.0 * c2 * s


def family_scale(ps: ParamSet, w0: float) -> float:
    """Cylinder scaling mu = (w0/c0)^(2/(n-2)) of the family member with w(0) = w0."""
    return (w0 / cylinder_amplitude(ps)) ** (2.0 / (ps.n - 2.0))


DECAY_DECADES = 5.0  # default integration horizon: ~5 decades of amplitude


def decay_horizon(ps: ParamSet, w0: float) -> float:
    """s_max at which a family profile of amplitude w0 has decayed ~10^-DECAY_DECADES.

    Forward integration cannot track the decaying tail below the roundoff
    excitation of the constant homogeneous mode (~1e-13 w0 at the default
    tolerance), so the horizon is capped where the profile still carries
    about ``DECAY_DECADES`` orders of dynamic range; beyond that, pointwise
    relative comparisons are meaningless in double precision.
    """
    s_nominal = 10.0 ** (DECAY_DECADES / (ps.n - 2.0)) / family_scale(ps, w0)
    return float(min(max(s_nominal, 10.0), 1e3))


def shoot(
    ps: ParamSet,
    w0: float,
    s_max: float | None = None,
    rtol: float = 1e-10,
    s_eval=None,
) -> RadialProfile:
    """Integrate the radial cylinder equation from a series start at SERIES_START.

    ``s_max = None`` uses the amplitude-aware horizon of `decay_horizon`.
    """
    if not w0 > 0:
        raise ValueError("w0 must be positive")
    if not ps.p_exp > 2.0:
        raise SubcriticalRange("shooting needs p > 2")
    if s_max is None:
        s_max = decay_horizon(ps, w0)
    elif not s_max > SERIES_START:
        raise ValueError(f"s_max must exceed the series start {SERIES_START:g}: got {s_max}")
    n, alpha, p = ps.n, ps.alpha, ps.p_exp

    def rhs(t, y):
        w, v = y
        wp = max(w, 0.0) ** (p - 1.0)
        return (v, -(n - 2.0) * v - math.exp(2.0 * t) * wp / alpha**2)

    def blow_up(t, y):
        return y[0] - BLOWUP_FACTOR * w0

    def touch_zero(t, y):
        return y[0] - TOUCH_FACTOR * w0

    blow_up.terminal = True
    blow_up.direction = 1.0
    touch_zero.terminal = True
    touch_zero.direction = -1.0

    s0 = SERIES_START
    w_start, wp_start = series_start(ps, w0, s0)
    t0, t1 = math.log(s0), math.log(s_max)
    t_eval = np.log(np.asarray(s_eval, dtype=float)) if s_eval is not None else None
    sol = solve_ivp(
        rhs, (t0, t1), [w_start, s0 * wp_start],
        method="DOP853", rtol=rtol, atol=1e-20 * w0,
        events=(blow_up, touch_zero), t_eval=t_eval, dense_output=False,
    )
    if sol.status == -1:
        raise StepFailure(f"integrator failed: {sol.message}")
    if sol.status == 1:
        cls = (Classification.BLOWS_UP if len(sol.t_events[0])
               else Classification.TOUCHES_ZERO)
    else:
        cls = Classification.DECAYS_LIKE_BUBBLE
    s = np.exp(sol.t)
    w = sol.y[0]
    w_prime = sol.y[1] / s  # w' = (dw/dt)/s
    return RadialProfile(ps=ps, w0=float(w0), s=s, w=w, w_prime=w_prime,
                         classification=cls)


@dataclass(frozen=True)
class BubbleMatch:
    lambda_fit: float
    sup_rel_error: float


def match_bubble(profile: RadialProfile) -> BubbleMatch:
    """Least-squares fit of the scaling parameter over the extremal family.

    The model is w_mu(s) = c0 (1/mu + mu s^2)^(-(n-2)/2); the fit minimizes
    the mean squared log-deviation and reports the sup relative error.
    """
    if profile.classification is not Classification.DECAYS_LIKE_BUBBLE:
        raise NotDecaying(f"profile classified {profile.classification.value}")
    ps = profile.ps
    mu0 = family_scale(ps, profile.w0)
    s, w = profile.s, profile.w
    log_w = np.log(w)

    def objective(log_mu):
        model = bubble_cylinder_values(ps, s, lam=math.exp(log_mu / ps.alpha))
        diff = log_w - np.log(model)
        return float(np.mean(diff**2))

    span = math.log(4.0)
    res = minimize_scalar(
        objective,
        bracket=(math.log(mu0) - span, math.log(mu0), math.log(mu0) + span),
        method="brent", options={"xtol": 1e-14},
    )
    mu = math.exp(res.x)
    lam = mu ** (1.0 / ps.alpha)
    model = bubble_cylinder_values(ps, s, lam=lam)
    sup_rel = float(np.max(np.abs(w / model - 1.0)))
    return BubbleMatch(lambda_fit=lam, sup_rel_error=sup_rel)


@dataclass(frozen=True)
class SweepEntry:
    w0: float
    classification: str
    lambda_fit: float | None
    sup_rel_error: float | None
    matched: bool


@dataclass(frozen=True)
class SweepReport:
    ps: ParamSet
    tol: float
    entries: tuple[SweepEntry, ...]
    regime: str

    @property
    def all_matched(self) -> bool:
        return all(e.matched for e in self.entries)

    @property
    def matched_count(self) -> int:
        return sum(e.matched for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "params": self.ps.to_dict(),
            "regime": self.regime,
            "tol": self.tol,
            "matched": f"{self.matched_count}/{len(self.entries)}",
            "all_matched": self.all_matched,
            "entries": [
                {
                    "w0": e.w0,
                    "classification": e.classification,
                    "lambda_fit": e.lambda_fit,
                    "sup_rel_error": e.sup_rel_error,
                    "matched": e.matched,
                }
                for e in self.entries
            ],
        }


def radial_rigidity_sweep(ps: ParamSet, w0_grid=None, tol: float = 1e-6) -> SweepReport:
    """Shoot + match across amplitudes; failures are enumerated, not raised.

    Radial rigidity is blind to the angular regime, so the sweep runs in
    either regime and simply records the flag in the report.
    """
    c0 = cylinder_amplitude(ps)
    if w0_grid is None:
        w0_grid = c0 * np.logspace(-0.5, 0.5, 10)
    entries = []
    for w0 in np.asarray(w0_grid, dtype=float):
        profile = shoot(ps, float(w0))
        if profile.classification is Classification.DECAYS_LIKE_BUBBLE:
            m = match_bubble(profile)
            entries.append(SweepEntry(
                w0=float(w0), classification=profile.classification.value,
                lambda_fit=m.lambda_fit, sup_rel_error=m.sup_rel_error,
                matched=m.sup_rel_error < tol,
            ))
        else:
            entries.append(SweepEntry(
                w0=float(w0), classification=profile.classification.value,
                lambda_fit=None, sup_rel_error=None, matched=False,
            ))
    return SweepReport(ps=ps, tol=tol, entries=tuple(entries),
                       regime=ps.regime.value)
