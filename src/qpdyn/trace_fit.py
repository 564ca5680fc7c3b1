"""Four-parameter fits of qubit decay-rate traces.

The measured qubit decay rate after a QP injection pulse follows

    Gamma(t) = A (1 - r') / (exp(t/tau_ss) - r') + Gamma0,

where A = C x_i is the injected density expressed as a rate, r' the shape
parameter, tau_ss the tail time constant, and Gamma0 the background rate.
The law and the rate map live in dynamics (decay_shape, _rate_map); this
module evaluates, fits and propagates errors through them.
fit_gamma_trace performs the nonlinear least-squares fit; extract_rates
maps the fitted parameters onto the physical rate triple with bounds;
fit_t1_vs_tau performs the steady-state linear fit

    1/T1 = C g tau_ss + Gamma_ex

whose slope reveals the stray generation rate g.

A and Gamma0 enter linearly: the trace fit profiles them out on a
(logit r', log tau_ss) grid for a global start (variable projection,
Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), then polishes with
a numpy Levenberg-Marquardt loop (_lm) in (A, logit r', log tau_ss,
Gamma0), again with Gamma0 pinned at 0 if it ends at Gamma0 < 0.  The
module loads no scipy.  The default weighting is relative (residuals of
log Gamma) because traces span several decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_T_MIN
from .dynamics import (SolutionParams, _rate_map, decay_shape,
                       extraction_bounds, xqp_analytic)
from .errors import (DegenerateTraceError, InsufficientDataError,
                     InsufficientSpreadError, InvalidParameterError,
                     NonConvergenceError, _log_debug, check_finite,
                     check_time_grid)

# _lm's stopping tolerances: relative step, relative cost decrease,
# largest cosine between the residual and a Jacobian column; and the
# residual evaluations of one polish.
_XTOL = 1e-10
_FTOL = 1e-12
_GTOL = 1e-12
_MAX_NFEV = 500

# Grid of the global start: logit r' from -4 to 7 (r' 0.018 to 0.999) by
# 40 geometric steps of tau_ss from the finest sample spacing to ten times
# the time span of the trace.
_GRID_LOGIT_RP = np.linspace(-4.0, 7.0, 24)


@dataclass(frozen=True)
class DecayTrace:
    """A measured (or synthetic) Gamma(t) trace.

    t     : sample times, s, strictly increasing
    gamma : decay rates, 1/s, all positive
    sigma : optional per-sample uncertainties, 1/s, all positive
    """

    t: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        t = check_time_grid("t", self.t)
        object.__setattr__(self, "t", t)
        for name in ("gamma", "sigma"):
            v = getattr(self, name)
            if v is None and name == "sigma":
                continue
            v = np.asarray(v, dtype=float)
            object.__setattr__(self, name, v)
            if v.shape != t.shape:
                raise InvalidParameterError(f"{name} must match t in length")
            check_finite(name, v, ">")

    @property
    def n(self) -> int:
        return self.t.size

    def truncated(self, t_min: float) -> "DecayTrace":
        check_finite("t_min", t_min)
        keep = self.t >= t_min
        return DecayTrace(t=self.t[keep], gamma=self.gamma[keep],
                          sigma=None if self.sigma is None
                          else self.sigma[keep])


@dataclass(frozen=True)
class FitResult:
    """Optimum of the four-parameter decay fit.

    covariance is the 4x4 matrix over (amplitude, r_prime, tau_ss, gamma0);
    residual_norm is the RMS residual in the weighting used (dimensionless).
    """

    amplitude: float
    r_prime: float
    tau_ss: float
    gamma0: float
    covariance: np.ndarray = field(
        default_factory=lambda: np.zeros((4, 4)))
    residual_norm: float = 0.0
    n_used: int = 0
    t_min_applied: float = 0.0

    def __post_init__(self):
        check_finite("amplitude", self.amplitude, ">=")
        if not (0 <= self.r_prime < 1):
            raise InvalidParameterError(
                f"r_prime must lie in [0, 1), got {self.r_prime}")
        check_finite("tau_ss", self.tau_ss, ">")
        check_finite("gamma0", self.gamma0, ">=")
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (4, 4):
            raise InvalidParameterError("covariance must be 4x4")
        check_finite("covariance", cov)
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-300):
            raise InvalidParameterError("covariance must be symmetric")
        if np.linalg.eigvalsh(0.5 * (cov + cov.T)).min() < -1e-10 * max(
                1.0, float(np.abs(cov).max())):
            raise InvalidParameterError(
                "covariance must be positive semidefinite")

    @classmethod
    def from_params(cls, amplitude, r_prime, tau_ss, gamma0) -> "FitResult":
        return cls(amplitude=amplitude, r_prime=r_prime, tau_ss=tau_ss,
                   gamma0=gamma0)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


@dataclass(frozen=True)
class SteadyStatePoint:
    """One (tau_ss, 1/T1) point of the steady-state linear fit."""

    tau_ss: float
    inv_t1: float
    sigma_inv_t1: float | None = None

    def __post_init__(self):
        check_finite("tau_ss", self.tau_ss, ">")
        check_finite("inv_t1", self.inv_t1, ">")
        if self.sigma_inv_t1 is not None:
            check_finite("sigma_inv_t1", self.sigma_inv_t1, ">")


def gamma_model(t, f: FitResult):
    """A * decay_shape + Gamma0 at times t >= 0, through xqp_analytic."""
    return xqp_analytic(t, SolutionParams(f.amplitude, f.r_prime, f.tau_ss,
                                          f.gamma0))


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)); 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _lm(resid_jac, x0):
    """Levenberg-Marquardt minimum of 0.5 |f(x)|^2 from x0.

    resid_jac(x) returns the residuals f and their Jacobian J.  Each trial
    step h solves [J; sqrt(lam) D] h = [-f; 0] in the least-squares sense,
    with D the largest column norms of J met so far (More, Lecture Notes
    in Math. 630, 105 (1978); scipy's x_scale="jac").  A trial is accepted
    when its gain ratio rho, actual over predicted cost decrease, exceeds
    1e-4; lam then shrinks by max(1/3, 1 - (2 rho - 1)^3), and otherwise
    grows by nu = 2, 4, 8, ... (Madsen, Nielsen & Tingleff, Methods for
    non-linear least squares problems, 2004, eq. 3.16).  A trial whose f
    or J is not finite is rejected.  MINPACK's stops end the loop: gtol,
    every column of J at cosine <= _GTOL to f; ftol, both decreases <=
    _FTOL of the cost; xtol, a step |D h| <= _XTOL |D x|.  It never
    evaluates f more than _MAX_NFEV times.

    Returns a dict: x, cost, the start's cost0, nfev, njev (the Jacobians
    of accepted points, the start's included) and status ("gtol", "ftol",
    "xtol", or "max_nfev" when the budget ran out first).  A start whose
    f or J is not finite raises InvalidParameterError.
    """
    x = np.asarray(x0, dtype=float)
    f, jac = resid_jac(x)
    if not (np.isfinite(f).all() and np.isfinite(jac).all()):
        raise InvalidParameterError(
            "cannot start the fit: the residuals or their Jacobian are not "
            "finite at the start")
    cost = cost0 = 0.5 * float(f @ f)
    nfev = njev = 1
    scale, lam, nu, fresh = np.zeros(x.size), 1e-3, 2.0, True
    while True:
        if fresh:  # a new Jacobian: widen D, test the gradient
            norms = np.linalg.norm(jac, axis=0)
            scale = np.maximum(scale, np.where(norms > 0, norms, 1.0))
            if np.all(np.abs(jac.T @ f)
                      <= _GTOL * norms * math.sqrt(2.0 * cost)):
                status = "gtol"
                break
        if nfev >= _MAX_NFEV:
            status = "max_nfev"
            break
        step = np.linalg.lstsq(
            np.vstack([jac, np.diag(math.sqrt(lam) * scale)]),
            np.concatenate([-f, np.zeros(x.size)]), rcond=None)[0]
        # predicted relative decrease, (|J h|^2 / 2 + lam |D h|^2) / cost
        pred = (0.5 * float(np.sum((jac @ step) ** 2))
                + lam * float(np.sum((scale * step) ** 2))) / cost
        f_new, jac_new = resid_jac(x + step)
        nfev += 1
        cost_new = 0.5 * float(f_new @ f_new)
        if math.isfinite(cost_new) and np.isfinite(jac_new).all():
            actual = 1.0 - cost_new / cost
        else:
            actual = -math.inf
        rho = actual / pred if pred > 0 else -math.inf
        fresh = rho > 1e-4
        if fresh:
            x, f, jac, cost = x + step, f_new, jac_new, cost_new
            njev += 1
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
        if abs(actual) <= _FTOL and pred <= _FTOL and rho <= 2.0:
            status = "ftol"
            break
        if np.linalg.norm(scale * step) <= _XTOL * np.linalg.norm(scale * x):
            status = "xtol"
            break
    return {"x": x, "cost": cost, "cost0": cost0, "nfev": nfev,
            "njev": njev, "status": status}


def _grid_start(t: np.ndarray, gamma: np.ndarray, unit: np.ndarray):
    """Best (A, logit r', log tau_ss, Gamma0) on the profile grid.

    At each (logit r', log tau_ss) node, (A, Gamma0 >= 0) solves the 2x2
    normal equations of the residuals (A f + Gamma0 - gamma) / unit; the
    node of least cost with A > 0 wins.
    """
    tau = np.geomspace(float(np.diff(t).min()), 10.0 * (t[-1] - t[0]),
                       40)[:, None]
    f = decay_shape(t, _expit(_GRID_LOGIT_RP)[:, None, None], tau)
    w2 = unit ** -2.0
    s_ff, s_f, s_1 = (f * f) @ w2, f @ w2, w2.sum()
    b_f, b_1 = f @ (w2 * gamma), w2 @ gamma
    with np.errstate(all="ignore"):
        det = s_ff * s_1 - s_f * s_f
        g0 = (s_ff * b_1 - s_f * b_f) / det
        clamp = g0 < 0  # then Gamma0 = 0 and A is fit alone
        amp = np.where(clamp, b_f / s_ff, (s_1 * b_f - s_f * b_1) / det)
        g0 = np.where(clamp, 0.0, g0)
        res = amp[..., None] * f + g0[..., None] - gamma
        cost = np.where(amp > 0, (res * res) @ w2, np.nan)
    if np.all(np.isnan(cost)):
        raise DegenerateTraceError(
            "trace has no decaying component: every start has amplitude <= 0")
    i, j = np.unravel_index(np.nanargmin(cost), cost.shape)
    return np.array([amp[i, j], _GRID_LOGIT_RP[i], math.log(tau[j, 0]),
                     g0[i, j]])


def fit_gamma_trace(trace: DecayTrace, t_min: float = DEFAULT_T_MIN,
                    weighting: str = "relative", full_output: bool = False):
    """Least-squares fit of a decay trace to the four-parameter model.

    Samples with t < t_min are excluded (diffusion transients); at least 6
    must remain.  weighting is 'relative' (log-residuals, the default),
    'absolute', or 'sigma' (per-sample uncertainties, which the trace must
    carry).  The fit is global and deterministic: it starts from the best
    node of a 24 x 40 (logit r', log tau_ss) grid, with (A, Gamma0 >= 0)
    profiled out by linear least squares under weights 1/gamma, 1 or
    1/sigma, then runs one Levenberg-Marquardt polish in
    (A, logit r', log tau_ss, Gamma0).  If that polish ends at Gamma0 < 0,
    a second one in (A, logit r', log tau_ss) with Gamma0 pinned at 0 gives
    the optimum under Gamma0 >= 0.

    Each polish may evaluate the residuals 500 times; a fit that exhausts
    them raises NonConvergenceError carrying the best parameters and
    cost.  A fit with r' = 1 within one standard deviation raises
    DegenerateTraceError.  With full_output=True returns (FitResult, info)
    where info carries the cost history ([initial, final]) and the number
    of Jacobian evaluations.  Each fit that ends its polish logs one DEBUG
    record on the qpdyn.trace_fit logger, its args a dict: the weighting,
    per polish its status, nfev and njev, the initial and final cost, and
    whether the Gamma0 = 0 refit ran.
    """
    cut = trace.truncated(t_min)
    t, gamma = cut.t, cut.gamma
    if t.size < 6:
        raise InsufficientDataError(
            f"need >= 6 samples after t_min cut, have {t.size}")
    spread = float(gamma.max() - gamma.min())
    if cut.sigma is not None and spread <= 4.0 * float(np.median(cut.sigma)):
        raise DegenerateTraceError(
            "trace is constant within noise; only gamma0 is identifiable "
            f"(spread {spread:.3g} vs median sigma {np.median(cut.sigma):.3g})")
    if spread <= 1e-9 * float(gamma.max()):
        raise DegenerateTraceError(
            "trace is constant; only gamma0 is identifiable")
    if weighting not in ("relative", "absolute", "sigma"):
        raise InvalidParameterError(
            f"weighting must be relative|absolute|sigma, got {weighting!r}")
    if weighting == "sigma" and cut.sigma is None:
        raise InvalidParameterError("sigma weighting requires trace.sigma")
    unit = {"relative": gamma, "absolute": np.ones_like(gamma),
            "sigma": cut.sigma}[weighting]

    def params(x):  # (A, r', tau_ss, Gamma0); Gamma0 = 0 when x omits it
        return x[0], _expit(x[1]), math.exp(x[2]), x[3] if len(x) > 3 else 0.0

    def resid_jac(x):  # log m - log gamma, or (m - gamma) / unit
        amp, rp, tau, g0 = params(x)
        with np.errstate(all="ignore"):
            f, df_u, df_v = decay_shape(t, rp, tau, jac=True)
            m = amp * f + g0
            jac = np.column_stack([f, amp * df_u, amp * df_v,
                                   np.ones_like(t)])[:, :len(x)]
            if weighting == "relative":
                m = np.maximum(m, 1e-300)
                return np.log(m) - np.log(gamma), jac / m[:, None]
            return (m - gamma) / unit, jac / unit[:, None]

    def polish(start):
        sol = _lm(resid_jac, start)
        if sol["status"] == "max_nfev":
            raise NonConvergenceError(
                f"fit did not converge in {_MAX_NFEV} evaluations",
                best_params=np.array(params(sol["x"])),
                best_cost=sol["cost"])
        return sol

    sols = [polish(_grid_start(t, gamma, unit))]
    if sols[0]["x"][3] < 0:  # Gamma0 >= 0 is active: the optimum has 0
        sols.append(polish(sols[0]["x"][:3]))
    x = sols[-1]["x"]
    amp, rp, tau, g0 = params(x)
    costs = [sols[0]["cost0"], sols[-1]["cost"]]
    _log_debug(
        __name__, "trace fit (%(weighting)s): cost %(cost0).6g -> "
        "%(cost).6g, Gamma0 = 0 refit %(refit)s",
        lambda: {"weighting": weighting, "cost0": costs[0],
                 "cost": costs[1], "refit": len(sols) == 2,
                 "polishes": [{k: sol[k] for k in ("status", "nfev", "njev")}
                              for sol in sols]})

    # covariance from the weighted Jacobian, its columns scaled to unit
    # norm for the rank cut, mapped from (A, logit r', log tau_ss, Gamma0)
    # to (A, r', tau_ss, Gamma0)
    res_w, jac_w = resid_jac(np.array([amp, x[1], x[2], g0]))
    rss = float(res_w @ res_w)
    norms = np.linalg.norm(jac_w, axis=0)
    norms[norms == 0] = 1.0
    _, sv, vt = np.linalg.svd(jac_w / norms, full_matrices=False)
    inv_s2 = np.where(sv > sv[0] * 1e-13, sv, np.inf) ** -2.0
    d = np.array([1.0, rp * (1.0 - rp), tau, 1.0]) / norms
    cov = (vt.T * inv_s2) @ vt * np.outer(d, d) * (
        1.0 if weighting == "sigma" else rss / (t.size - 4))
    cov = 0.5 * (cov + cov.T)
    sigma_rp = math.sqrt(cov[1, 1])
    if 1.0 - rp <= sigma_rp:
        raise DegenerateTraceError(
            "r' is not identifiable from this trace: r' = 1 lies within one "
            f"standard deviation (r' = {rp:.6g} +- {sigma_rp:.3g})")

    if weighting == "absolute":
        resid_norm = math.sqrt(rss / t.size) / math.sqrt(
            float(gamma @ gamma) / t.size)
    else:
        resid_norm = math.sqrt(rss / t.size)
    result = FitResult(amplitude=amp, r_prime=rp, tau_ss=tau, gamma0=g0,
                       covariance=cov, residual_norm=resid_norm,
                       n_used=int(t.size), t_min_applied=float(t_min))
    if full_output:
        return result, {"cost_history": costs,
                        "n_iterations": sum(sol["njev"] for sol in sols)}
    return result


@dataclass(frozen=True)
class ExtractedRates:
    """Physical rates from a FitResult, with bounds from the unknown x0.

    Only an upper bound x0 <= gamma0/C exists, so s and g come as ranges:
    s in [s_min, s_max] and g in [0, g_max].  g_bound is the unconditional
    bound 1/(4 r tau_ss^2); g_max additionally respects x0 <= gamma0/C.
    """

    x_i: float
    x_i_sigma: float
    x0_max: float
    r: float
    r_sigma: float
    s_min: float
    s_max: float
    s_min_sigma: float
    s_max_sigma: float
    g_max: float
    g_bound: float


def _complex_step_sigmas(fn, theta, steps, cov) -> list[float]:
    """Standard deviations of the outputs of fn(*theta) under cov, by
    complex step: d fn/d theta_k = Im fn(theta + i h_k e_k) / h_k, exact to
    rounding as nothing is subtracted (Squire & Trapp, SIAM Rev. 40, 110
    (1998)).  A nonzero Im below the normal float64 range has lost its
    bits and raises NonConvergenceError."""
    im = np.array([[complex(v).imag for v in fn(
        *theta[:k], theta[k] + 1j * h, *theta[k + 1:])]
        for k, h in enumerate(steps)])
    if np.any((im != 0) & (np.abs(im) < np.finfo(float).tiny)):
        raise NonConvergenceError("complex-step derivative underflows; the "
                                  "error bars are below float64 range")
    return [math.sqrt(max(float(g @ cov @ g), 0.0))
            for g in (im / steps[:, None]).T]


def extract_rates(f: FitResult, coupling: float) -> ExtractedRates:
    """Map fitted parameters to (r, s-range, g-range) with propagated errors.

    Error bars below the float64 range raise NonConvergenceError."""
    check_finite("coupling", coupling, ">")
    check_finite("amplitude", f.amplitude, ">")
    amp, rp, tau, g0 = f.amplitude, f.r_prime, f.tau_ss, f.gamma0
    cov = f.covariance
    x_i = amp / coupling
    x0_max = g0 / coupling
    p = SolutionParams(x_i=x_i, r_prime=rp, tau_ss=tau, x0=x0_max)
    bounds = extraction_bounds(p, gamma0=g0, coupling=coupling)
    # g(x0) grows on [0, x0_peak]; the reachable maximum caps at x0_max
    x0_at = x0_max if rp == 0 else min(x0_max,
                                       (1.0 - rp) * x_i / (2.0 * rp))
    r, _, g_max = _rate_map(rp, tau, x_i, x0_at)

    def r_s_min_s_max(amp, rp, tau, g0):
        r, s_min, _ = _rate_map(rp, tau, amp / coupling, g0 / coupling)
        return r, s_min, 1.0 / tau

    # steps of 1e-20 on each parameter's scale; Gamma0 is on A's scale
    r_sigma, s_min_sigma, s_max_sigma = _complex_step_sigmas(
        r_s_min_s_max, (amp, rp, tau, g0),
        1e-20 * np.array([amp, 1.0, tau, amp]), cov)
    return ExtractedRates(
        x_i=x_i, x_i_sigma=math.sqrt(max(cov[0, 0], 0.0)) / coupling,
        x0_max=x0_max, r=r, r_sigma=r_sigma,
        s_min=bounds.s_min, s_max=bounds.s_max,
        s_min_sigma=s_min_sigma, s_max_sigma=s_max_sigma,
        g_max=g_max, g_bound=bounds.g_max)


@dataclass(frozen=True)
class T1TauFit:
    """Result of the steady-state line fit 1/T1 = C g tau_ss + Gamma_ex."""

    g: float
    g_sigma: float
    gamma_ex: float
    gamma_ex_sigma: float
    n_points: int


def fit_t1_vs_tau(points, coupling: float) -> T1TauFit:
    """Weighted linear regression of 1/T1 against tau_ss.

    Needs at least 3 points whose tau_ss values span a factor >= 3, with
    sigma_inv_t1 on all (weights 1/sigma^2, each and their sum inside the
    normal float64 range) or none (error bars scaled by chi^2 / (N - 2)),
    a weighted squared spread of tau_ss inside the normal float64 range,
    and inv_t1 values whose weighted sums (the slope, the intercept and,
    without sigmas, chi^2) and error bars stay finite.  slope/C is the
    generation rate g; the intercept is Gamma_ex.
    """
    check_finite("coupling", coupling, ">")
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need >= 3 steady-state points, have {len(pts)}")
    sigmas = [p.sigma_inv_t1 for p in pts]
    missing = sigmas.count(None)
    if 0 < missing < len(pts):
        raise InvalidParameterError(
            f"sigma_inv_t1 is given for {len(pts) - missing} of {len(pts)} "
            "points; give it for every point or for none")
    tau = np.array([p.tau_ss for p in pts])
    y = np.array([p.inv_t1 for p in pts])
    if tau.max() / tau.min() < 3.0:
        raise InsufficientSpreadError(
            f"tau_ss spans only a factor {tau.max() / tau.min():.2f}; "
            "need >= 3 for a stable slope")
    with np.errstate(over="ignore", divide="ignore"):  # refused below
        w = np.ones_like(y) if missing else 1.0 / np.array(sigmas) ** 2
        sw = w.sum()
    if not (np.all((np.finfo(float).tiny <= w) & (w < math.inf))
            and sw < math.inf):
        raise InvalidParameterError(
            "the weights 1/sigma_inv_t1^2 leave the normal float64 range; "
            "the line fit cannot weight sigma_inv_t1 values of "
            f"{min(sigmas):.3g} to {max(sigmas):.3g} 1/s")
    tbar = float(w @ tau) / sw
    with np.errstate(over="ignore"):  # refused below
        stt = float(w @ (tau - tbar) ** 2)
    if not np.finfo(float).tiny <= stt < math.inf:
        raise InvalidParameterError(
            f"the weighted squared spread of tau_ss, {stt:.3g}, leaves the "
            "normal float64 range; the line fit cannot resolve tau_ss "
            f"values of {tau.min():.3g} to {tau.max():.3g} s")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ybar = float(w @ y) / sw
        slope = float(w @ ((tau - tbar) * (y - ybar))) / stt
        intercept = ybar - slope * tbar
        resid = y - slope * tau - intercept
        scale = float(w @ resid**2) / max(len(pts) - 2, 1) if missing \
            else 1.0
    if not all(map(math.isfinite, (slope, intercept, scale))):
        raise InvalidParameterError(
            "the weighted sums of inv_t1 leave the float64 range; the line "
            f"fit cannot resolve inv_t1 values of {y.min():.3g} to "
            f"{y.max():.3g} 1/s")
    slope_sigma = math.sqrt(scale / stt)
    intercept_sigma = math.sqrt(scale * (1.0 / sw + tbar**2 / stt))
    if not (slope_sigma < math.inf and intercept_sigma < math.inf):
        raise InvalidParameterError(
            "the error bars of the line fit leave the float64 range; it "
            f"cannot bound inv_t1 values of {y.min():.3g} to {y.max():.3g} "
            f"1/s over tau_ss values of {tau.min():.3g} to {tau.max():.3g} s")
    return T1TauFit(g=slope / coupling, g_sigma=slope_sigma / coupling,
                    gamma_ex=intercept, gamma_ex_sigma=intercept_sigma,
                    n_points=len(pts))


def synth_trace(f: FitResult, t_grid, noise_rel: float,
                seed: int) -> DecayTrace:
    """Synthetic trace: model values with multiplicative Gaussian noise.

    Gamma_k = model(t_k) * (1 + eps_k), eps_k iid normal(0, noise_rel),
    drawn from a counter-based Philox generator so identical seeds give
    bit-identical traces.  sigma is set to model * noise_rel (omitted when
    noise_rel = 0).
    """
    check_finite("noise_rel", noise_rel, ">=")
    t = check_time_grid("t_grid", t_grid)
    m = gamma_model(t, f)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if noise_rel == 0:
        return DecayTrace(t=t, gamma=m.copy(), sigma=None)
    rng = np.random.Generator(np.random.Philox(seed))
    gamma = m * (1.0 + noise_rel * rng.standard_normal(t.size))
    if np.any(gamma <= 0):
        raise InvalidParameterError(
            "noise realization produced non-positive Gamma; lower noise_rel")
    return DecayTrace(t=t, gamma=gamma, sigma=m * noise_rel)
