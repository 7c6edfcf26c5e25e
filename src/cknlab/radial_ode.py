"""Singular shooting for the radial cylinder equation and radial rigidity.

The radial reduction  alpha^2 w'' + alpha^2 (n-1) w'/s + w^(p-1) = 0 with
w(0) = w0, w'(0) = 0 has a removable singular point at s = 0; integration
starts from the two-term series w = w0 - w0^(p-1) s^2 / (2 n alpha^2) at
s0 = 1e-6 and proceeds in the log variable t = ln s, where the system reads

    d2w/dt2 = -(n-2) dw/dt - e^(2t) w^(p-1) / alpha^2.

The integrator is DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10) with
scipy's tableau, initial step and error norm, copied here and run on Python
floats: every step is bit-identical to ``solve_ivp(..., method="DOP853")``
without its per-step interpreter work, and a shot loads no scipy module.  A
shot ends at s_max or where w falls to TOUCH_FACTOR * w0 (TouchesZero), a
crossing found by bisecting the length of the step that reached it.  A shot
cannot blow up: dw/dt starts negative and cannot turn positive, since
d2w/dt2 <= 0 wherever dw/dt = 0, so w never exceeds w0.

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
from .errors import AdmissibilityError, CknLabError
from .params import ParamSet

TOUCH_FACTOR = 1e-12    # TouchesZero when w < 1e-12 * w0
SERIES_START = 1e-6
MATCH_TOL = 1e-6        # a sweep's shot matches when its sup relative error is below this
MAX_SHOT_STEPS = 100_000  # DOP853 steps a shot may take; the suites' shots take at most ~200
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


# `shoot` does not call solve_ivp, and scipy comes only with the `test` extra.  It stays
# because perfbench/tracer.py binds `radial_ode.solve_ivp` by name (its install() fails
# without it), and tests/test_radial_ode.py takes its shot through it as the oracle.
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


BRENT_MAXITER = 500
BRENT_MINTOL = 1.0e-11
BRENT_CG = 0.3819660    # golden-section fraction


@dataclass(frozen=True)
class ScalarMinimum:
    x: float
    fun: float
    nit: int
    nfev: int


def minimize_scalar(fun, bracket, xtol: float = 1.48e-8) -> ScalarMinimum:
    """Brent's minimizer of fun from a bracket (xa, xb, xc) with f(xb) below f(xa), f(xc).

    A port of scipy.optimize's `Brent` (the 3-point `get_bracket_info` and
    `optimize`) in scipy's operation order on Python floats: the iterates,
    nit, nfev and the ValueError texts are those of
    ``scipy.optimize.minimize_scalar(fun, bracket, method="brent",
    options={"xtol": xtol})``, and no scipy module is loaded.
    """
    if xtol < 0:
        raise ValueError(f'tolerance should be >= 0, got {xtol!r}')
    xa, xb, xc = bracket
    if xa > xc:
        xc, xa = xa, xc
    if not ((xa < xb) and (xb < xc)):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill this "
                         "requirement: (xa < xb) and (xb < xc)")
    fa, fb, fc = fun(xa), fun(xb), fun(xc)
    if not ((fb < fa) and (fb < fc)):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill this "
                         "requirement: (f(xb) < f(xa)) and (f(xb) < f(xc))")
    nfev = 3
    x = w = v = xb
    fw = fv = fx = fb
    a, b = xa, xc
    deltax = rat = 0.0
    nit = 0
    while nit < BRENT_MAXITER:
        tol1 = xtol * abs(x) + BRENT_MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:  # golden-section step (always on the first pass)
            deltax = a - x if x >= xmid else b - x
            rat = BRENT_CG * deltax
        else:                    # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if ((p > tmp2 * (a - x)) and (p < tmp2 * (b - x)) and
                    (abs(p) < abs(0.5 * tmp2 * dx_temp))):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = BRENT_CG * deltax
        if abs(rat) < tol1:      # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = fun(u)
        nfev += 1
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v, w, fv, fw = w, u, fw, fu
            elif (fu <= fv) or (v == x) or (v == w):
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        nit += 1
    return ScalarMinimum(x=x, fun=fx, nit=nit, nfev=nfev)


def series_start(ps: ParamSet, w0: float, s: float) -> tuple[float, float]:
    """Two-term series value and derivative near the singular point."""
    try:
        c2 = -(w0 ** (ps.p_exp - 1.0)) / (2.0 * ps.n * ps.alpha**2)
    except OverflowError:
        c2 = -math.inf
    if math.isinf(c2):
        raise CknLabError(
            f"the series coefficient w0^(p-1)/(2 n alpha^2) overflows double "
            f"precision at w0 = {w0:.6g} (p = {ps.p_exp:.6g})"
        )
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
    try:
        s_nominal = 10.0 ** (DECAY_DECADES / (ps.n - 2.0)) / family_scale(ps, w0)
    except (OverflowError, ZeroDivisionError):  # mu = (w0/c0)^(2/(n-2)) underflows to 0
        raise CknLabError(
            f"the decay horizon 10^({DECAY_DECADES:g}/(n-2))/mu overflows double "
            f"precision at n = {ps.n:.6g}, w0 = {w0:.6g}"
        ) from None
    return float(min(max(s_nominal, 10.0), 1e3))


# The DOP853 tableau of Hairer, Norsett & Wanner (Solving ODEs I, II.10) as
# scipy.integrate's DOP853 stores it, and scipy's step-size factors: row s of
# A holds the weights of stages 0..s-1 for stage s, zeros included, since
# they are part of each stage sum's BLAS call.
DOP853_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
            0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
            0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, -0.4226823213237919,
             -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
             -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
             0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / (7 + 1)  # -1/(q+1) for the order-7 error estimator

_ROOT2 = 2 ** 0.5  # scipy's RMS norm divides by x.size ** 0.5
_STAGES = tuple((s, np.array(DOP853_A[s]), DOP853_C[s]) for s in range(1, 12))
_B, _E3, _E5 = np.array(DOP853_B), np.array(DOP853_E3), np.array(DOP853_E5)


class _Dop853:
    """scipy's DOP853, forward in t, on the state (w, v) held as two Python floats.

    The initial step is scipy's `select_initial_step`, `step` its
    `RungeKutta._step_impl` and the error norm DOP853's
    `_estimate_error_norm`, each in scipy's operation order, so a profile has
    the bits of ``solve_ivp(..., method="DOP853")``.  The stage sums, the
    B-sum, the two error sums and the norms' dots stay numpy calls
    (``ndarray.dot`` is ``np.dot``) on views of K built once per shot: BLAS
    sets their bits, and a plain float sum does not repeat its FMA order.
    The rest is IEEE arithmetic on floats, with numpy's bits on 2-element
    arrays.  ``rhs(t, w, v)`` returns the pair (dw/dt, dv/dt).
    """

    def __init__(self, rhs, t, w, v, t_bound, rtol, atol):
        self.rhs, self.t_bound, self.rtol, self.atol = rhs, t_bound, rtol, atol
        self.t, self.w, self.v = t, w, v
        self.f = rhs(t, w, v)
        K = np.empty((13, 2))
        self.K_flat = K.reshape(-1)  # stage s stores K_flat[2s] and K_flat[2s + 1]
        self.stages = tuple((2 * s, 2 * s + 1, K[:s].T, a, c) for s, a, c in _STAGES)
        self.K_B, self.K_E = K[:12].T, K.T
        self._e = np.empty(2)  # _norm's operand; per stepper, since the pool runs threads
        self.h_abs = self._initial_step()

    def _norm(self, x: float, y: float) -> float:
        """np.linalg.norm((x, y)): numpy's own dot, whose FMA order floats cannot repeat."""
        e = self._e
        e[0], e[1] = x, y
        return math.sqrt(e.dot(e))

    def _initial_step(self) -> float:
        t0, w0, v0, (fw0, fv0) = self.t, self.w, self.v, self.f
        rtol, atol = self.rtol, self.atol
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        sw, sv = atol + abs(w0) * rtol, atol + abs(v0) * rtol
        d0 = self._norm(w0 / sw, v0 / sv) / _ROOT2
        d1 = self._norm(fw0 / sw, fv0 / sv) / _ROOT2
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        fw1, fv1 = self.rhs(t0 + h0, w0 + h0 * fw0, v0 + h0 * fv0)
        d2 = self._norm((fw1 - fw0) / sw, (fv1 - fv0) / sv) / _ROOT2 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)  # 1/(q+1), q = 7
        return min(100 * h0, h1, interval_length)

    def _error_norm(self, h: float, sw: float, sv: float) -> float:
        K_E = self.K_E
        e5w, e5v = K_E.dot(_E5).tolist()
        e3w, e3v = K_E.dot(_E3).tolist()
        err5_norm_2 = self._norm(e5w / sw, e5v / sv) ** 2
        err3_norm_2 = self._norm(e3w / sw, e3v / sv) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * 2)

    def advance(self, t: float, w: float, v: float, h: float) -> tuple[float, float]:
        """The 8th-order solution a step h from (t, w, v); K's row 0 holds f(t, w, v)."""
        rhs, K = self.rhs, self.K_flat
        for i, j, K_s, a, c in self.stages:
            dw, dv = K_s.dot(a).tolist()
            K[i], K[j] = rhs(t + c * h, w + dw * h, v + dv * h)
        bw, bv = self.K_B.dot(_B).tolist()
        return w + h * bw, v + h * bv

    def step(self) -> None:
        """One accepted step; CknLabError where the step falls below its floor."""
        rhs, K, rtol, atol = self.rhs, self.K_flat, self.rtol, self.atol
        t, w, v = self.t, self.w, self.v
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        K[0], K[1] = self.f
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise CknLabError("integrator failed: Required step size is less "
                                  "than spacing between numbers.")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            w_new, v_new = self.advance(t, w, v, h)
            K[24], K[25] = f_new = rhs(t + h, w_new, v_new)
            error_norm = self._error_norm(h, atol + max(abs(w), abs(w_new)) * rtol,
                                          atol + max(abs(v), abs(v_new)) * rtol)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        self.t, self.w, self.v = t_new, w_new, v_new
        self.h_abs = h_abs
        self.f = f_new


def shoot(
    ps: ParamSet,
    w0: float,
    s_max: float | None = None,
    rtol: float = 1e-10,
) -> RadialProfile:
    """Integrate the radial cylinder equation from a series start at SERIES_START.

    ``s_max = None`` uses the amplitude-aware horizon of `decay_horizon`.  A
    series start at or below ``TOUCH_FACTOR * w0`` raises CknLabError.
    Integration ends at ``s_max`` or where ``w`` falls to ``TOUCH_FACTOR * w0``
    (TouchesZero).  Every sample before that crossing has the bits of
    `solve_ivp`'s.  The crossing comes from the same stepper: the length of
    the step that reached the floor is bisected down to adjacent floats, each
    probe one step from the sample before, and the last sample is the end of
    the shortest probe with ``w`` at or below the floor.
    """
    w0 = float(w0)
    if not 1e-20 * w0 > 0:   # 1e-20 w0 is the stepper's absolute tolerance, a divisor
        raise ValueError(f"w0 must be positive, with 1e-20 w0 above 0: got {w0!r}")
    if not ps.p_exp > 2.0:
        raise AdmissibilityError("shooting needs p > 2")
    if s_max is None:
        s_max = decay_horizon(ps, w0)
    elif not (s_max > SERIES_START and math.log(s_max) > math.log(SERIES_START)):
        raise ValueError(f"s_max must exceed the series start {SERIES_START:g} "
                         f"after taking logs: got {s_max!r}")
    power, damping, alpha2 = ps.p_exp - 1.0, -(ps.n - 2.0), ps.alpha**2

    def rhs(t, w, v):
        wp = (0.0 if w < 0.0 else w) ** power  # max(w, 0.0), without a builtin call
        return (v, damping * v - math.exp(2.0 * t) * wp / alpha2)

    s0 = SERIES_START
    w_start, wp_start = series_start(ps, w0, s0)
    floor = TOUCH_FACTOR * w0
    if not w_start > floor:  # the TouchesZero crossing could never fire
        raise CknLabError(f"the series start w({s0:g}) = {w_start:.6g} is not above the "
                          f"touch floor {floor:.6g} at w0 = {w0:.6g} (p = {ps.p_exp:.6g})")
    t0, t1 = math.log(s0), math.log(s_max)
    ts, ws, vs = [t0], [w_start], [s0 * wp_start]
    # scipy floors rtol at 100 eps (with a warning)
    stepper = _Dop853(rhs, t0, ws[0], vs[0], t1, max(rtol, 100 * EPS), 1e-20 * w0)
    cls = Classification.DECAYS_LIKE_BUBBLE
    while True:  # one step even at t0 == t1, where solve_ivp repeats the start
        if len(ts) > MAX_SHOT_STEPS:   # ts holds the start and one sample per step
            raise CknLabError(
                f"the shot at w0 = {w0:.6g} reached its ceiling of {MAX_SHOT_STEPS} steps at "
                f"s = {math.exp(stepper.t):.6g}, short of s_max = {s_max:.6g} "
                f"(alpha = {ps.alpha:.6g})")
        stepper.step()
        t, w, v = stepper.t, stepper.w, stepper.v
        if ws[-1] - floor >= 0 >= w - floor:  # find_active_events, direction -1
            # bisect the step length down to adjacent floats, each probe one
            # step from the last sample; the crossing is the end at the floor
            lo, hi = 0.0, t - ts[-1]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                w_mid, v_mid = stepper.advance(ts[-1], ws[-1], vs[-1], mid)
                if w_mid - floor > 0:
                    lo = mid
                else:
                    hi, w, v = mid, w_mid, v_mid
            t = ts[-1] + hi
            cls = Classification.TOUCHES_ZERO
        ts.append(t)
        ws.append(w)
        vs.append(v)
        if cls is Classification.TOUCHES_ZERO or stepper.t >= t1:
            break
    s = np.exp(np.array(ts))
    return RadialProfile(ps=ps, w0=w0, s=s, w=np.array(ws),
                         w_prime=np.array(vs) / s,  # w' = (dw/dt)/s
                         classification=cls)


@dataclass(frozen=True)
class BubbleMatch:
    lambda_fit: float
    sup_rel_error: float


def scale_bracket(ps: ParamSet, w0: float) -> tuple[float, float, float]:
    """Brent bracket on log mu of the scale fit at amplitude w0: log mu0 and log(4) either
    side, mu0 = `family_scale`.  CknLabError where the scale lambda = mu^(1/alpha) of
    the bracket leaves double range: at small alpha it underflows to 0 (a division by
    it follows) or overflows exp."""
    try:
        log_mu0 = math.log(family_scale(ps, w0))
    except (OverflowError, ValueError):   # mu0 overflows, or underflows to 0
        raise CknLabError(f"the family scale mu0 = (w0/c0)^(2/(n-2)) leaves double range "
                          f"at n = {ps.n:.6g}, w0 = {w0:.6g}") from None
    span = math.log(4.0)
    bracket = (log_mu0 - span, log_mu0, log_mu0 + span)
    lo, hi = bracket[0] / ps.alpha, bracket[2] / ps.alpha
    if not math.log(np.finfo(float).tiny) <= lo < hi <= math.log(np.finfo(float).max):
        raise CknLabError(
            f"the scale fit at w0 = {w0:.6g} leaves double range: its scale lambda = "
            f"exp(log mu / alpha) spans exp({lo:.6g}) to exp({hi:.6g}) at alpha = {ps.alpha:.6g}")
    return bracket


def match_bubble(profile: RadialProfile) -> BubbleMatch:
    """Least-squares fit of the scaling parameter over the extremal family.

    The model is w_mu(s) = c0 (1/mu + mu s^2)^(-(n-2)/2); the fit minimizes
    the mean squared log-deviation and reports the sup relative error.
    """
    if profile.classification is not Classification.DECAYS_LIKE_BUBBLE:
        raise CknLabError(f"profile classified {profile.classification.value}")
    ps = profile.ps
    bracket = scale_bracket(ps, profile.w0)
    s, w = profile.s, profile.w
    log_w = np.log(w)

    def objective(log_mu):
        model = bubble_cylinder_values(ps, s, lam=math.exp(log_mu / ps.alpha))
        diff = log_w - np.log(model)
        return float(np.mean(diff**2))

    try:
        res = minimize_scalar(objective, bracket, xtol=1e-14)
    except ValueError as exc:  # the family scale mu0 is not the bracket's lowest point
        raise CknLabError(
            f"the scale fit at w0 = {profile.w0:.6g} has no Brent bracket on log mu = "
            f"({bracket[0]:.6g}, {bracket[1]:.6g}, {bracket[2]:.6g}): {exc}"
        ) from None
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
            "tol": MATCH_TOL,
            "matched": f"{self.matched_count}/{len(self.entries)}",
            "all_matched": self.all_matched,
            "entries": [dict(vars(e)) for e in self.entries],  # SweepEntry's fields in order
        }


def radial_rigidity_sweep(ps: ParamSet, w0_grid=None) -> SweepReport:
    """Shoot + match across amplitudes; failures are enumerated, not raised.

    ``w0_grid = None`` takes ten amplitudes c0 * 10^[-0.5, 0.5].  A shot
    matches when its sup relative error is below MATCH_TOL.  Radial rigidity
    is blind to the angular regime, so the sweep runs in either regime and
    simply records the flag in the report.  An amplitude that `scale_bracket`
    refuses raises CknLabError before any shot.
    """
    c0 = cylinder_amplitude(ps)
    if w0_grid is None:
        w0_grid = c0 * np.logspace(-0.5, 0.5, 10)
    w0_grid = np.asarray(w0_grid, dtype=float)
    for w0 in w0_grid:
        scale_bracket(ps, float(w0))
    entries = []
    for w0 in w0_grid:
        profile = shoot(ps, float(w0))
        decays = profile.classification is Classification.DECAYS_LIKE_BUBBLE
        m = match_bubble(profile) if decays else BubbleMatch(None, None)
        entries.append(SweepEntry(
            w0=float(w0), classification=profile.classification.value,
            lambda_fit=m.lambda_fit, sup_rel_error=m.sup_rel_error,
            matched=decays and m.sup_rel_error < MATCH_TOL,
        ))
    return SweepReport(ps=ps, entries=tuple(entries), regime=ps.regime.value)
