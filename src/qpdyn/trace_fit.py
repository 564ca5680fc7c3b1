"""Four-parameter fits of qubit decay-rate traces.

The measured qubit decay rate after a QP injection pulse follows

    Gamma(t) = A (1 - r') / (exp(t/tau_ss) - r') + Gamma0,

where A = C x_i is the injected density expressed as a rate, r' the shape
parameter, tau_ss the tail time constant, and Gamma0 the background rate.
fit_gamma_trace performs the nonlinear least-squares fit; extract_rates
maps the fitted parameters onto the physical rate triple with bounds;
fit_t1_vs_tau performs the steady-state linear fit

    1/T1 = C g tau_ss + Gamma_ex

whose slope reveals the stray generation rate g.

A and Gamma0 enter linearly: the trace fit profiles them out on a
(logit r', log tau_ss) grid for a global start (variable projection,
Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), then polishes with
scipy's Levenberg-Marquardt least_squares (MINPACK lmder) in
(A, logit r', log tau_ss, Gamma0) on the model written in exp(-t/tau_ss).
The default weighting is relative (residuals of log Gamma) because traces
span several decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ExtractionBounds, SolutionParams, extraction_bounds
from .errors import (DegenerateTraceError, InsufficientDataError,
                     InsufficientSpreadError, InvalidParameterError,
                     NonConvergenceError, check_finite, check_time_grid)

DEFAULT_T_MIN = 200e-6  # s, early-time truncation of trace fits

# least_squares stopping tolerances: relative step, relative cost
# decrease, scaled gradient.  Variables are scaled by the Jacobian column
# norms (x_scale="jac"), pinned because scipy's default changed in 1.16.
_XTOL = 1e-10
_FTOL = 1e-12
_GTOL = 1e-12

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
    label: str = ""

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
                          sigma=None if self.sigma is None else self.sigma[keep],
                          label=self.label)


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
    """Evaluate the decay model; equals amplitude + gamma0 at t = 0.

    The denominator is computed as (1 - r') + expm1(t/tau_ss), exact at
    t = 0 and stable as r' -> 1.
    """
    ts = np.asarray(t, dtype=float)
    check_finite("t", ts)
    one_minus = 1.0 - f.r_prime
    # expm1 overflows to inf once t/tau_ss > 709, which gives the exact
    # limit: the decaying term is 0
    with np.errstate(over="ignore"):
        out = f.amplitude * one_minus \
            / (one_minus + np.expm1(ts / f.tau_ss)) + f.gamma0
    return float(out) if np.isscalar(t) else out


def _shape(t, rp, tau, jac: bool = False):
    """Shape f = (1 - r') e / (1 - r' e), e = exp(-t/tau_ss), of the model
    A f + Gamma0, broadcast over rp and tau; with jac=True also df/d logit
    r' and df/d log tau_ss.  Nothing overflows for t >= 0, and the
    denominator (1 - r') - r' expm1(-t/tau_ss) >= 0 is exact as r' -> 1.
    """
    em = np.expm1(-t / tau)
    den = (1.0 - rp) - rp * em
    f = (1.0 - rp) * (1.0 + em) / den
    if not jac:
        return f
    return f, f * rp * em / den, f * (t / tau) / den


def _grid_start(t: np.ndarray, gamma: np.ndarray, unit: np.ndarray):
    """Best (A, logit r', log tau_ss, Gamma0) on the profile grid.

    At each (logit r', log tau_ss) node, (A, Gamma0 >= 0) solves the 2x2
    normal equations of the residuals (A f + Gamma0 - gamma) / unit; the
    node of least cost with A > 0 wins.
    """
    from scipy.special import expit
    tau = np.geomspace(float(np.diff(t).min()), 10.0 * (t[-1] - t[0]),
                       40)[:, None]
    f = _shape(t, expit(_GRID_LOGIT_RP)[:, None, None], tau)
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
                    weighting: str = "relative",
                    max_iter: int = 500,
                    full_output: bool = False):
    """Least-squares fit of a decay trace to the four-parameter model.

    Samples with t < t_min are excluded (diffusion transients); at least 6
    must remain.  weighting is 'relative' (log-residuals, the default),
    'absolute', or 'sigma' (per-sample uncertainties, which the trace must
    carry).  The fit is global and deterministic: it starts from the best
    node of a 24 x 40 (logit r', log tau_ss) grid, with (A, Gamma0 >= 0)
    profiled out by linear least squares under weights 1/gamma, 1 or
    1/sigma, then runs one Levenberg-Marquardt polish in
    (A, logit r', log tau_ss, Gamma0).

    max_iter bounds the residual evaluations; a fit that exhausts it raises
    NonConvergenceError carrying the best parameters and cost.  A fit with
    r' = 1 within one standard deviation raises DegenerateTraceError.  With
    full_output=True returns (FitResult, info) where info carries the cost
    history ([initial, final]) and the number of Jacobian evaluations.
    """
    from scipy.optimize import least_squares
    from scipy.special import expit

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

    def resid_jac(x):  # log m - log gamma, or (m - gamma) / unit
        amp, rp, tau, g0 = x[0], expit(x[1]), math.exp(x[2]), x[3]
        with np.errstate(all="ignore"):
            f, df_u, df_v = _shape(t, rp, tau, jac=True)
            m = amp * f + g0
            jac = np.column_stack([f, amp * df_u, amp * df_v,
                                   np.ones_like(t)])
            if weighting == "relative":
                m = np.maximum(m, 1e-300)
                return np.log(m) - np.log(gamma), jac / m[:, None]
            return (m - gamma) / unit, jac / unit[:, None]

    x0 = _grid_start(t, gamma, unit)
    try:
        sol = least_squares(lambda x: resid_jac(x)[0], x0,
                            jac=lambda x: resid_jac(x)[1], method="lm",
                            xtol=_XTOL, ftol=_FTOL, gtol=_GTOL,
                            x_scale="jac", max_nfev=max_iter)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot start the fit: {exc}") from None
    amp, rp, tau, g0 = (sol.x[0], expit(sol.x[1]), math.exp(sol.x[2]),
                        sol.x[3])
    if sol.status == 0:
        raise NonConvergenceError(
            f"fit did not converge in {max_iter} evaluations",
            best_params=np.array([amp, rp, tau, g0]),
            best_cost=float(sol.cost))
    g0 = max(g0, 0.0)

    # covariance from the weighted Jacobian, its columns scaled to unit
    # norm for the rank cut, mapped from (A, logit r', log tau_ss, Gamma0)
    # to (A, r', tau_ss, Gamma0)
    res_w, jac_w = resid_jac(np.array([amp, sol.x[1], sol.x[2], g0]))
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
        res0 = resid_jac(x0)[0]
        cost0 = 0.5 * float(res0 @ res0)
        return result, {"cost_history": [cost0, float(sol.cost)],
                        "n_iterations": int(sol.njev)}
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
    bounds: ExtractionBounds


def extract_rates(f: FitResult, coupling: float) -> ExtractedRates:
    """Map fitted parameters to (r, s-range, g-range) with propagated errors."""
    check_finite("coupling", coupling, ">")
    check_finite("amplitude", f.amplitude, ">")
    amp, rp, tau, g0 = f.amplitude, f.r_prime, f.tau_ss, f.gamma0
    cov = f.covariance
    x_i = amp / coupling
    x0_max = g0 / coupling
    p = SolutionParams(x_i=x_i, r_prime=rp, tau_ss=tau, x0=x0_max)
    bounds = extraction_bounds(p, gamma0=g0, coupling=coupling)

    ratio = rp / (1.0 - rp)
    r = ratio / (tau * x_i)
    grad_r = np.array([-r / amp, 1.0 / ((1.0 - rp) ** 2 * tau * x_i),
                       -r / tau, 0.0])
    r_sigma = math.sqrt(max(float(grad_r @ cov @ grad_r), 0.0))

    # s_max = 1/tau; s_min = (1/tau)(1 - 2 ratio g0 / amp), clamped at 0
    grad_smax = np.array([0.0, 0.0, -1.0 / tau**2, 0.0])
    s_max_sigma = math.sqrt(max(float(grad_smax @ cov @ grad_smax), 0.0))
    if rp == 0:
        s_min_sigma = s_max_sigma
    else:
        q = 2.0 * ratio * g0 / amp
        grad_smin = np.array([
            q / (amp * tau),
            -2.0 * g0 / (amp * tau * (1.0 - rp) ** 2),
            -(1.0 - q) / tau**2,
            -2.0 * ratio / (amp * tau)])
        s_min_sigma = math.sqrt(max(float(grad_smin @ cov @ grad_smin), 0.0))

    # g(x0) grows on [0, x0_peak]; the reachable maximum caps at x0_max
    if rp == 0:
        g_max = x0_max / tau
    else:
        x0_peak = (1.0 - rp) * x_i / (2.0 * rp)
        x0_at = min(x0_max, x0_peak)
        g_max = x0_at / tau * (1.0 - ratio * x0_at / x_i)
    return ExtractedRates(
        x_i=x_i, x_i_sigma=math.sqrt(max(cov[0, 0], 0.0)) / coupling,
        x0_max=x0_max, r=r, r_sigma=r_sigma,
        s_min=bounds.s_min, s_max=bounds.s_max,
        s_min_sigma=s_min_sigma, s_max_sigma=s_max_sigma,
        g_max=g_max, g_bound=bounds.g_max, bounds=bounds)


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

    Needs at least 3 points whose tau_ss values span a factor >= 3.
    slope/C is the generation rate g; the intercept is Gamma_ex.
    """
    check_finite("coupling", coupling, ">")
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need >= 3 steady-state points, have {len(pts)}")
    tau = np.array([p.tau_ss for p in pts])
    y = np.array([p.inv_t1 for p in pts])
    if tau.max() / tau.min() < 3.0:
        raise InsufficientSpreadError(
            f"tau_ss spans only a factor {tau.max() / tau.min():.2f}; "
            "need >= 3 for a stable slope")
    sigmas = [p.sigma_inv_t1 for p in pts]
    have_sigma = all(s is not None for s in sigmas)
    w = 1.0 / np.array(sigmas, dtype=float) ** 2 if have_sigma \
        else np.ones_like(y)
    sw = w.sum()
    tbar = float(w @ tau) / sw
    ybar = float(w @ y) / sw
    stt = float(w @ (tau - tbar) ** 2)
    slope = float(w @ ((tau - tbar) * (y - ybar))) / stt
    intercept = ybar - slope * tbar
    resid = y - slope * tau - intercept
    if have_sigma:
        scale = 1.0
    else:
        dof = max(len(pts) - 2, 1)
        scale = float(w @ resid**2) / dof
    slope_sigma = math.sqrt(scale / stt)
    intercept_sigma = math.sqrt(scale * (1.0 / sw + tbar**2 / stt))
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
        return DecayTrace(t=t, gamma=m.copy(), sigma=None, label="synthetic")
    rng = np.random.Generator(np.random.Philox(seed))
    gamma = m * (1.0 + noise_rel * rng.standard_normal(t.size))
    if np.any(gamma <= 0):
        raise InvalidParameterError(
            "noise realization produced non-positive Gamma; lower noise_rel")
    return DecayTrace(t=t, gamma=gamma, sigma=m * noise_rel,
                      label="synthetic")
