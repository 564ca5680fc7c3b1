"""Zero-dimensional quasiparticle rate equation and its closed-form solution.

The near-junction density x_qp(t) obeys

    dx/dt = -r x^2 - s x + g

with recombination constant r, single-QP trapping rate s, and generation
rate g (all 1/s).  The decay from an injected density x_i toward the steady
state x0 is

    x(t) = x_i (1 - r') / (exp(t/tau_ss) - r') + x0

with steady state x0 = (sqrt(s^2 + 4 g r) - s) / (2 r), exponential-tail
time constant 1/tau_ss = 2 r x0 + s, and shape parameter
r' = r tau_ss x_i / (1 + r tau_ss x_i) in [0, 1):  r' = 0 is a pure
exponential, r' -> 1 the pure-recombination hyperbola.

All algebraic relations here are exact; integrate_ode provides an
independent numerical oracle for them (scipy's DOP853 Runge-Kutta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CODATA
from .errors import (DegenerateSystemError, InvalidParameterError,
                     NegativeRateError, StepSizeUnderflowError, check_finite,
                     check_time_grid)


@dataclass(frozen=True)
class RateParams:
    """Physical rate triple of the 0-D model.

    r : recombination constant, 1/s
    s : trapping rate, 1/s (homogeneous background, or the vortex
        eigenmode rate when vortices are modeled)
    g : generation rate, 1/s
    """

    r: float
    s: float
    g: float

    def __post_init__(self):
        for name in ("r", "s", "g"):
            check_finite(name, getattr(self, name), ">=")


@dataclass(frozen=True)
class SolutionParams:
    """Parameters of the closed-form decay.

    x_i     : injected density above steady state at t = 0 (dimensionless)
    r_prime : shape parameter in [0, 1)
    tau_ss  : exponential-tail time constant, s
    x0      : steady-state density (dimensionless)
    """

    x_i: float
    r_prime: float
    tau_ss: float
    x0: float

    def __post_init__(self):
        check_finite("x_i", self.x_i, ">=")
        if not (0 <= self.r_prime < 1):
            raise InvalidParameterError(
                f"r_prime must lie in [0, 1), got {self.r_prime}")
        check_finite("tau_ss", self.tau_ss, ">")
        check_finite("x0", self.x0, ">=")


class SteadyState(NamedTuple):
    x0: float
    tau_ss: float


class ExtractionBounds(NamedTuple):
    s_min: float
    s_max: float
    g_max: float


def xqp_analytic(t, p: SolutionParams):
    """Evaluate the closed-form decay at time(s) t >= 0.

    The denominator is computed as (1 - r') + expm1(t/tau_ss), which is
    exact at t = 0 and avoids the cancellation between exp(t/tau_ss) and
    r' as r' -> 1, so the pure-recombination limit needs no separate
    branch.
    """
    ts = np.asarray(t, dtype=float)
    check_finite("t", ts, ">=")
    one_minus = 1.0 - p.r_prime
    # expm1 overflows to inf once t/tau_ss > 709, which gives the exact
    # limit: the decaying term is 0
    with np.errstate(over="ignore"):
        out = p.x_i * one_minus / (one_minus + np.expm1(ts / p.tau_ss)) + p.x0
    return float(out) if np.isscalar(t) else out


def xqp_recombination_only(t, x_init: float, r: float):
    """Pure-recombination decay x(t) = x_init / (1 + r * x_init * t).

    Closed form of dx/dt = -r x^2; the s -> 0, g -> 0 limit of the general
    solution, exposed directly because the (r', tau_ss) parametrization
    degenerates there.
    """
    ts = np.asarray(t, dtype=float)
    check_finite("t", ts, ">=")
    check_finite("x_init", x_init, ">=")
    check_finite("r", r, ">=")
    out = x_init / (1.0 + r * x_init * ts)
    return float(out) if np.isscalar(t) else out


def steady_state(rp: RateParams) -> SteadyState:
    """Steady state x0 and tail time constant tau_ss of the rate triple.

    x0 solves r x0^2 + s x0 = g; tau_ss = 1/(2 r x0 + s).  The r = 0 limit
    (x0 = g/s, tau_ss = 1/s) is an explicit branch, and x0 is evaluated in
    the conjugate form 2g / (sqrt(s^2 + 4 g r) + s) which is stable when
    4 g r << s^2.
    """
    if rp.r == 0 and rp.s == 0:
        raise DegenerateSystemError(
            "r = s = 0: no decay channel, steady state undefined")
    if rp.r == 0:
        x0 = rp.g / rp.s
        return SteadyState(x0=x0, tau_ss=1.0 / rp.s)
    if rp.g == 0:
        return SteadyState(x0=0.0, tau_ss=1.0 / rp.s if rp.s > 0 else math.inf)
    disc = math.sqrt(rp.s * rp.s + 4.0 * rp.g * rp.r)
    x0 = 2.0 * rp.g / (disc + rp.s)
    return SteadyState(x0=x0, tau_ss=1.0 / (2.0 * rp.r * x0 + rp.s))


def solution_from_rates(rp: RateParams, x_i: float) -> SolutionParams:
    """Closed-form solution parameters for a decay starting at x0 + x_i."""
    check_finite("x_i", x_i, ">=")
    x0, tau = steady_state(rp)
    if not math.isfinite(tau):
        raise DegenerateSystemError(
            "pure recombination with g = 0 has tau_ss = inf; "
            "use xqp_recombination_only")
    q = rp.r * tau * x_i
    return SolutionParams(x_i=x_i, r_prime=q / (1.0 + q), tau_ss=tau, x0=x0)


def rates_from_solution(p: SolutionParams) -> RateParams:
    """Invert the solution parameters back to the rate triple.

    r  = r' / ((1 - r') tau_ss x_i)
    s  = (1/tau_ss) [1 - 2 r' x0 / ((1 - r') x_i)]
    g  = (x0/tau_ss) [1 - r' x0 / ((1 - r') x_i)]

    Raises NegativeRateError if the parameters imply s < 0 or g < 0.
    """
    if not (p.x_i > 0):
        raise InvalidParameterError("x_i must be > 0 to extract rates")
    ratio = p.r_prime / (1.0 - p.r_prime)
    r = ratio / (p.tau_ss * p.x_i)
    s = (1.0 - 2.0 * ratio * p.x0 / p.x_i) / p.tau_ss
    g = p.x0 / p.tau_ss * (1.0 - ratio * p.x0 / p.x_i)
    if s < 0:
        raise NegativeRateError("s", s)
    if g < 0:
        raise NegativeRateError("g", g)
    return RateParams(r=r, s=s, g=g)


def extraction_bounds(p: SolutionParams, gamma0: float,
                      coupling: float) -> ExtractionBounds:
    """Bounds on (s, g) when only gamma0 >= C*x0 is known, not x0 itself.

    Sweeping the unobservable x0 over [0, gamma0/C] gives

        s_min = (1/tau_ss) [1 - 2 r' gamma0 / ((1 - r') x_i C)]  (clamped at 0)
        s_max = 1/tau_ss
        g_max = (1 - r') x_i / (4 r' tau_ss)  =  1/(4 r tau_ss^2)

    the last being the maximum of g(x0) over all admissible x0.  For
    r' = 0 the model is a pure exponential with g = x0/tau_ss exactly, so
    g_max = gamma0 / (C tau_ss).
    """
    check_finite("gamma0", gamma0, ">=")
    check_finite("coupling", coupling, ">")
    s_max = 1.0 / p.tau_ss
    if p.r_prime == 0:
        g_max = (gamma0 / coupling) / p.tau_ss
        return ExtractionBounds(s_min=s_max, s_max=s_max, g_max=g_max)
    ratio = p.r_prime / (1.0 - p.r_prime)
    s_min = (1.0 - 2.0 * ratio * gamma0 / (p.x_i * coupling)) / p.tau_ss
    den = 4.0 * ratio * p.tau_ss  # underflows to 0 for a subnormal r'
    g_max = p.x_i / den if den > 0 else math.inf
    return ExtractionBounds(s_min=max(s_min, 0.0), s_max=s_max, g_max=g_max)


def recombination_theory(phonon_factor: float, tau0: float, delta: float,
                         t_c: float) -> float:
    """Theoretical recombination constant r = 4 (Delta/(k_B T_c))^3 / (F tau0).

    phonon_factor F >= 1 accounts for recombination phonons re-breaking
    pairs before escaping the film; tau0 is the characteristic
    electron-phonon time of the material.  With the canonical weak-coupling
    gap ratio the prefactor 4 (Delta/(k_B T_c))^3 evaluates to about 21.8.
    """
    if not (1 <= phonon_factor < math.inf):
        raise InvalidParameterError(
            f"phonon factor must lie in [1, inf), got {phonon_factor}")
    check_finite("tau0", tau0, ">")
    check_finite("delta", delta, ">")
    check_finite("t_c", t_c, ">")
    gap_ratio = delta / (CODATA.k_B * t_c)
    return 4.0 * gap_ratio**3 / (phonon_factor * tau0)


# gap ratio for which 4*(Delta/k_B T_c)^3 equals 21.8 exactly
CANONICAL_GAP_RATIO = (21.8 / 4.0) ** (1.0 / 3.0)


def integrate_ode(rp: RateParams, x_init: float, t_grid,
                  rel_tol: float = 1e-10) -> np.ndarray:
    """Numerical oracle: integrate dx/dt = -r x^2 - s x + g on t_grid.

    scipy's DOP853 (Dormand-Prince 8(5,3)) at relative tolerance rel_tol,
    with an absolute floor of 1e-6 * rel_tol * x_init; output times are
    read off its dense output.  t_grid must be strictly increasing with
    t_grid[0] >= 0 (integration starts at t_grid[0] with x = x_init).

    Raises StepSizeUnderflowError if the tolerance cannot be met.
    """
    from scipy.integrate import solve_ivp

    t = check_time_grid("t_grid", t_grid, from_zero=True)
    check_finite("x_init", x_init, ">=")
    if not (0 < rel_tol < 1):
        raise InvalidParameterError(
            f"rel_tol must lie in (0, 1), got {rel_tol}")
    if t.size == 1:
        return np.array([float(x_init)])

    sol = solve_ivp(lambda _, x: -rp.r * x * x - rp.s * x + rp.g,
                    (t[0], t[-1]), [float(x_init)], method="DOP853",
                    t_eval=t, rtol=rel_tol,
                    atol=1e-6 * rel_tol * x_init or np.finfo(float).tiny)
    if not sol.success:
        raise StepSizeUnderflowError(
            f"ODE oracle failed on [{t[0]:.6g}, {t[-1]:.6g}] s: "
            f"{sol.message}")
    return sol.y[0]
