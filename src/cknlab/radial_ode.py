"""Singular shooting for the radial cylinder equation and radial rigidity.

The radial reduction  alpha^2 w'' + alpha^2 (n-1) w'/s + w^(p-1) = 0 with
w(0) = w0, w'(0) = 0 has a removable singular point at s = 0; integration
starts from the two-term series w = w0 - w0^(p-1) s^2 / (2 n alpha^2) at
s0 = 1e-6 and proceeds in the log variable t = ln s, where the system reads

    d2w/dt2 = -(n-2) dw/dt - e^(2t) w^(p-1) / alpha^2.

The integrator is scipy's DOP853 (tableau, initial step, error norm and
dense output), driven by our own step loop on Python floats: the profile is
bit-identical to ``solve_ivp(..., method="DOP853")`` without its per-step
interpreter work.  A shot ends at s_max or where w falls to TOUCH_FACTOR * w0
(TouchesZero).  It cannot blow up: dw/dt starts negative and cannot turn
positive, since d2w/dt2 <= 0 wherever dw/dt = 0, so w never exceeds w0.

Every decaying profile should match a rescaled extremal; the sweep measures
that directly, as a desk-scale witness of radial rigidity.  The intrinsic
dimension n is generically fractional and enters the ODE as a real number.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bubble import bubble_cylinder_values, cylinder_amplitude
from .errors import NotDecaying, StepFailure, SubcriticalRange
from .params import ParamSet

TOUCH_FACTOR = 1e-12    # TouchesZero when w < 1e-12 * w0
SERIES_START = 1e-6
EPS = float(np.finfo(float).eps)


class Classification(enum.Enum):
    DECAYS_LIKE_BUBBLE = "DecaysLikeBubble"
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
# `shoot` no longer calls solve_ivp.  It stays because perfbench/tracer.py
# binds `radial_ode.solve_ivp` by name (its install() fails without it) and
# tests/test_radial_ode.py takes its shot through it as the bitwise oracle.
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


@functools.cache
def _float_dop853():
    """scipy's DOP853 with the step arithmetic of `shoot` on two Python floats.

    Only `_step_impl`, the `OdeSolver` extension point, is overridden; it is
    `RungeKutta._step_impl` with `rk_step` inlined.  The stage sums, the
    final B-sum and the inherited error norm stay numpy calls: they go
    through BLAS, whose FMA order plain Python cannot reproduce.  The rest
    (``y + dy*h``, ``t + c*h``, the RHS, the error scale and the step
    factor) is IEEE arithmetic on floats, which gives the bits numpy gives
    on 2-element arrays, so a profile is bit-identical to
    ``solve_ivp(..., method="DOP853")``.  `K`, `f`, `y_old` and
    `h_previous` are set as scipy sets them, so the inherited
    `dense_output` stays valid.  The caller sets ``rhs(t, w, v)``, the
    float form of `fun`, on the instance before the first step.
    """
    from scipy.integrate import DOP853
    from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

    stage_rows = [(s, DOP853.A[s, :s], float(DOP853.C[s])) for s in range(1, DOP853.n_stages)]

    class FloatDOP853(DOP853):
        def _step_impl(self):
            rhs, K, B = self.rhs, self.K, self.B
            t, direction, t_bound = self.t, float(self.direction), self.t_bound
            w, v = self.y.tolist()
            rtol, atol = float(self.rtol), float(self.atol)

            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = min(max(float(self.h_abs), min_step), self.max_step)

            K[0] = self.f
            step_rejected = False
            while True:
                if h_abs < min_step:
                    return False, self.TOO_SMALL_STEP
                t_new = t + h_abs * direction
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)

                for s, a, c in stage_rows:
                    dw, dv = np.dot(K[:s].T, a).tolist()
                    K[s] = rhs(t + c * h, w + dw * h, v + dv * h)
                bw, bv = np.dot(K[:-1].T, B).tolist()
                w_new, v_new = w + h * bw, v + h * bv
                f_new = rhs(t + h, w_new, v_new)
                K[-1] = f_new
                scale = np.array((atol + max(abs(w), abs(w_new)) * rtol,
                                  atol + max(abs(v), abs(v_new)) * rtol))
                error_norm = float(self._estimate_error_norm(K, h, scale))

                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR,
                                     SAFETY * error_norm ** self.error_exponent)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

            self.h_previous = h
            self.y_old = self.y
            self.t = t_new
            self.y = np.array((w_new, v_new))
            self.h_abs = h_abs
            self.f = np.array(f_new)
            return True, None

    return FloatDOP853


def shoot(
    ps: ParamSet,
    w0: float,
    s_max: float | None = None,
    rtol: float = 1e-10,
) -> RadialProfile:
    """Integrate the radial cylinder equation from a series start at SERIES_START.

    ``s_max = None`` uses the amplitude-aware horizon of `decay_horizon`.
    Integration ends at ``s_max`` or where ``w`` falls to ``TOUCH_FACTOR * w0``
    (TouchesZero); that crossing is located on DOP853's dense output by
    `brentq`, as `solve_ivp` locates a terminal event.
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

    def rhs(t, w, v):
        wp = max(w, 0.0) ** (p - 1.0)
        return (v, -(n - 2.0) * v - math.exp(2.0 * t) * wp / alpha**2)

    s0 = SERIES_START
    w_start, wp_start = series_start(ps, w0, s0)
    t0, t1 = math.log(s0), math.log(s_max)
    ts, ws, vs = [t0], [w_start], [s0 * wp_start]
    floor = TOUCH_FACTOR * w0
    solver = _float_dop853()(lambda t, y: rhs(t, *y.tolist()), t0, (ws[0], vs[0]), t1,
                             rtol=rtol, atol=1e-20 * w0)
    solver.rhs = rhs
    cls = Classification.DECAYS_LIKE_BUBBLE
    while solver.status == "running" and cls is Classification.DECAYS_LIKE_BUBBLE:
        message = solver.step()
        if solver.status == "failed":
            raise StepFailure(f"integrator failed: {message}")
        t = solver.t
        w, v = solver.y.tolist()
        if ws[-1] - floor >= 0 >= w - floor:  # find_active_events, direction -1
            from scipy.optimize import brentq
            sol = solver.dense_output()
            t = brentq(lambda tt: sol(tt)[0] - floor, solver.t_old, t,
                       xtol=4 * EPS, rtol=4 * EPS)
            w, v = sol(t).tolist()
            cls = Classification.TOUCHES_ZERO
        ts.append(t)
        ws.append(w)
        vs.append(v)
    s = np.exp(np.array(ts))
    return RadialProfile(ps=ps, w0=float(w0), s=s, w=np.array(ws),
                         w_prime=np.array(vs) / s,  # w' = (dw/dt)/s
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
