"""Closed-form auxiliary estimators.

Order-of-magnitude quantities surrounding the main dynamics model: the
microwave power required to drive the junction above the pair-breaking
voltage, the resulting QP injection rate, the microscopic estimate of the
per-vortex trapping power, the density profile around a vortex, and the
QP-induced qubit frequency shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CODATA, QubitParams, _check_xqp, qp_coupling_constant
from .errors import InvalidParameterError, check_finite


@dataclass(frozen=True)
class CavityQs:
    """Quality factors of the readout cavity loaded with the junction.

    q_in / q_out : input and output coupling Qs
    q_w          : cavity wall (and dielectric) Q
    q_j          : Q due to dissipation in the normal-state junction
    """

    q_in: float
    q_out: float
    q_w: float
    q_j: float

    def __post_init__(self):
        for name in ("q_in", "q_out", "q_w", "q_j"):
            check_finite(name, getattr(self, name), ">")

    @property
    def q_tot(self) -> float:
        """Total Q: harmonic combination of all four channels."""
        return 1.0 / (1.0 / self.q_in + 1.0 / self.q_out + 1.0 / self.q_j
                      + 1.0 / self.q_w)


@dataclass(frozen=True)
class VortexMicro:
    """Microscopic vortex-trap parameters.

    r_core : normal-core radius R_c, m (of order the coherence length)
    tau_n  : electron relaxation time inside the core, s
             (1/tau_n = 1/tau_ee + 1/tau_ep)
    """

    r_core: float
    tau_n: float

    def __post_init__(self):
        check_finite("r_core", self.r_core, ">")
        check_finite("tau_n", self.tau_n, ">")


def junction_power(r_j: float, delta: float) -> float:
    """Power dissipated in the junction at the pair-breaking RMS voltage.

    P_j = V_j^2 / R_j with V_j = 2 Delta / e, i.e. 4 Delta^2 / (e^2 R_j).
    """
    check_finite("r_j", r_j, ">")
    check_finite("delta", delta, ">")
    v_j = 2.0 * delta / CODATA.e_charge
    return v_j * v_j / r_j


def injection_power(r_j: float, delta: float, qs: CavityQs) -> float:
    """Input power needed to reach the pair-breaking junction voltage, W.

    The incident power couples to the junction as
    P_j / P_in = 4 Q_tot^2 / (Q_in Q_j), so
    P_in = P_j Q_in Q_j / (4 Q_tot^2).  A 4 Q_tot^2 that underflows to 0
    raises InvalidParameterError.
    """
    q_tot = qs.q_tot
    den = 4.0 * (q_tot * q_tot)
    if den == 0:
        raise InvalidParameterError(
            f"4 Q_tot^2 underflows to 0 (Q_tot = {q_tot:.6g})")
    return junction_power(r_j, delta) * qs.q_in * qs.q_j / den


def qp_injection_rate(r_j: float, delta: float) -> float:
    """QP creation rate of the saturated injection drive, QPs per second.

    Each tunneling electron breaks one pair: G = 2 V_j/(R_j e) with
    V_j = 2 Delta/e, giving G = 4 Delta / (e^2 R_j).  An e^2 R_j that
    underflows to 0 raises InvalidParameterError.
    """
    check_finite("r_j", r_j, ">")
    check_finite("delta", delta, ">=")
    den = CODATA.e_charge**2 * r_j
    if den == 0:
        raise InvalidParameterError(
            f"e^2 R_j underflows to 0 (r_j = {r_j:.6g} ohm)")
    return 4.0 * delta / den


def microscopic_trapping_power(v: VortexMicro) -> float:
    """Trapping power of a normal-core disk trap: P = pi R_c^2 / tau_n, m^2/s.

    R_c^2 is R_c * R_c, so a core beyond the float64 range gives inf."""
    return math.pi * (v.r_core * v.r_core) / v.tau_n


def vortex_profile(rho, trapping_power: float, diffusivity: float,
                   r_core: float):
    """Normalized QP density x(rho)/x(0) around a single vortex.

    First order in P/D: inside the core (rho <= R_c)

        1 + (P / 4 pi D) (rho/R_c)^2

    and outside an upper bound

        1 + (P / 2 pi D) [1/2 + ln(rho/R_c)],

    continuous at rho = R_c.  The expansion assumes P/D << 1; a warning is
    emitted above 0.1.  The formula is evaluated with math, one radius at
    a time, so a scalar rho needs no numpy; an array rho gives an array of
    the same shape.
    """
    check_finite("trapping_power", trapping_power, ">=")
    check_finite("diffusivity", diffusivity, ">")
    check_finite("r_core", r_core, ">")
    pd = trapping_power / diffusivity
    if pd > 0.1:
        import warnings
        warnings.warn(f"P/D = {pd:.3g} > 0.1; first-order profile is "
                      "unreliable", stacklevel=2)

    def profile(r: float) -> float:
        q = r / r_core
        if r <= r_core:
            return 1.0 + pd / (4.0 * math.pi) * (q * q)
        return 1.0 + pd / (2.0 * math.pi) * (0.5 + math.log(q))

    if isinstance(rho, (int, float)):
        check_finite("rho", rho, ">=")
        return profile(float(rho))
    import numpy as np
    rr = np.asarray(rho, dtype=float)
    check_finite("rho", rr, ">=")
    return np.array([profile(r) for r in rr.ravel().tolist()],
                    dtype=float).reshape(rr.shape)


# measured frequency-shift slopes fall below the theory by roughly this factor
EMPIRICAL_SHIFT_FACTOR = 1.7


def frequency_shift(gamma: float, omega: float, delta: float,
                    empirical_factor: float = 1.0) -> float:
    """QP-induced qubit angular frequency shift from the decay rate, rad/s.

    delta_omega = -(Gamma/2) [1 + pi sqrt(hbar omega / (2 Delta))],
    divided by empirical_factor when a measured calibration is applied
    (EMPIRICAL_SHIFT_FACTOR holds the observed value).  A qubit at or
    above the pair-breaking threshold, hbar omega >= 2 Delta, is refused
    by QubitParams' rule.
    """
    check_finite("gamma", gamma, ">=")
    check_finite("omega", omega, ">")
    check_finite("delta", delta, ">")
    check_finite("empirical_factor", empirical_factor, ">")
    QubitParams(omega_q=omega, delta_gap=delta)  # below pair breaking
    shift = -0.5 * gamma * (
        1.0 + math.pi * math.sqrt(CODATA.hbar * omega / (2.0 * delta)))
    return shift / empirical_factor + 0.0  # + 0.0: no -0.0 at gamma = 0


def frequency_shift_from_xqp(x_qp: float, omega: float, delta: float) -> float:
    """Frequency shift directly from the QP density, rad/s.

    frequency_shift at Gamma = C x_qp, C = qp_coupling_constant, which is
    delta_omega/omega = -(x_qp/2) [(1/pi) sqrt(2 Delta/(hbar omega)) + 1];
    refused likewise at hbar omega >= 2 Delta.
    """
    _check_xqp(x_qp)
    check_finite("omega", omega, ">")
    check_finite("delta", delta, ">")
    q = QubitParams(omega_q=omega, delta_gap=delta)  # below pair breaking
    return frequency_shift(qp_coupling_constant(q) * x_qp, omega, delta)
