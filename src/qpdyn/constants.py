"""Physical constants and the quasiparticle-to-decay-rate coupling.

The coupling constant C converts the dimensionless quasiparticle density
x_qp (normalized by the Cooper-pair density) into the qubit energy decay
rate it induces, Gamma = C * x_qp, with

    C = sqrt(2 * omega_q * Delta / (pi^2 * hbar)).

C depends only on the qubit angular frequency omega_q and the
superconducting gap Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, check_finite


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 fundamental constants, SI units (exact by definition)."""

    hbar: float = 1.054571817e-34      # reduced Planck constant, J s
    e_charge: float = 1.602176634e-19  # elementary charge, C
    k_B: float = 1.380649e-23          # Boltzmann constant, J/K


CODATA = PhysicalConstants()

EV = CODATA.e_charge  # 1 eV in joules


@dataclass(frozen=True)
class QubitParams:
    """Transmon parameters entering the QP decay coupling.

    omega_q   : qubit angular frequency, rad/s
    delta_gap : superconducting gap of the electrode film, J
    t_c       : critical temperature, K (optional; used by the
                recombination-theory estimate)

    The qubit must sit below the pair-breaking threshold,
    hbar*omega_q < 2*delta_gap.
    """

    omega_q: float
    delta_gap: float
    t_c: float | None = None

    def __post_init__(self):
        check_finite("omega_q", self.omega_q, ">")
        check_finite("delta_gap", self.delta_gap, ">")
        if CODATA.hbar * self.omega_q >= 2 * self.delta_gap:
            raise InvalidParameterError(
                "hbar*omega_q must be below the pair-breaking threshold "
                f"2*Delta (got hbar*omega = {CODATA.hbar * self.omega_q:.4g} J, "
                f"2*Delta = {2 * self.delta_gap:.4g} J)")
        if self.t_c is not None:
            check_finite("t_c", self.t_c, ">")

    @classmethod
    def from_lab(cls, freq_ghz: float, gap_uev: float,
                 t_c: float | None = None) -> "QubitParams":
        """Build from lab units: qubit frequency in GHz, gap in micro-eV."""
        return cls(omega_q=2 * math.pi * freq_ghz * 1e9,
                   delta_gap=gap_uev * 1e-6 * EV, t_c=t_c)


def qp_coupling_constant(q: QubitParams) -> float:
    """Return C = sqrt(2*omega_q*Delta/(pi^2*hbar)) in 1/s.

    C is the decay rate induced per unit normalized QP density.
    """
    return math.sqrt(2 * q.omega_q * q.delta_gap / (math.pi**2 * CODATA.hbar))


def gamma_from_xqp(x_qp, q: QubitParams):
    """Qubit decay rate Gamma = C * x_qp, in 1/s.

    x_qp is the dimensionless near-junction density, 0 <= x_qp <= 1; scalar
    or array.  Identical to Gamma/omega = (x_qp/pi) * sqrt(2*Delta/(hbar*omega)).
    """
    x = np.asarray(x_qp, dtype=float)
    if not np.all((x >= 0) & (x <= 1)):
        raise DomainError(f"x_qp must lie in [0, 1], got {x_qp}")
    out = qp_coupling_constant(q) * x
    return float(out) if np.isscalar(x_qp) else out
