import math

import numpy as np
import pytest

from qpdyn.constants import (CODATA, EV, QubitParams, gamma_from_xqp,
                             qp_coupling_constant)
from qpdyn.errors import DomainError, InvalidParameterError


def test_coupling_value_at_reference_parameters(qubit):
    # omega = 2*pi*6 GHz, gap 180 ueV
    assert qp_coupling_constant(qubit) == pytest.approx(4.6e10, rel=0.02)


def test_coupling_sqrt_homogeneity(qubit):
    q4 = QubitParams(omega_q=qubit.omega_q, delta_gap=4 * qubit.delta_gap)
    assert qp_coupling_constant(q4) == pytest.approx(
        2 * qp_coupling_constant(qubit), rel=1e-14)


def test_invalid_qubit_params():
    with pytest.raises(InvalidParameterError):
        QubitParams(omega_q=0.0, delta_gap=180e-6 * EV)
    with pytest.raises(InvalidParameterError):
        QubitParams(omega_q=2 * math.pi * 6e9, delta_gap=-1e-23)
    # above the pair-breaking threshold: hbar*omega >= 2*delta
    with pytest.raises(InvalidParameterError):
        QubitParams(omega_q=2 * math.pi * 200e9, delta_gap=180e-6 * EV)


def test_gamma_from_xqp_values(qubit):
    assert gamma_from_xqp(0.0, qubit) == 0.0
    g = gamma_from_xqp(1e-6, qubit)
    assert g == pytest.approx(4.6e4, rel=0.02)
    assert 1.0 / g == pytest.approx(22e-6, rel=0.02)


def test_gamma_from_xqp_domain(qubit):
    with pytest.raises(DomainError):
        gamma_from_xqp(-1e-9, qubit)
    with pytest.raises(DomainError):
        gamma_from_xqp(1.5, qubit)


def test_gamma_matches_spectral_form_for_random_x(qubit):
    # Gamma/omega = (x/pi) sqrt(2 Delta/(hbar omega)), identically C*x
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.uniform(0.0, 1.0, size=100)
    lhs = gamma_from_xqp(x, qubit) / qubit.omega_q
    rhs = x / math.pi * math.sqrt(
        2 * qubit.delta_gap / (CODATA.hbar * qubit.omega_q))
    assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)


def test_coupling_identity_random_inputs():
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(50):
        omega = 2 * math.pi * rng.uniform(1e9, 20e9)
        delta = rng.uniform(100e-6, 300e-6) * EV
        q = QubitParams(omega_q=omega, delta_gap=delta)
        c = qp_coupling_constant(q)
        assert c * c * math.pi**2 * CODATA.hbar == pytest.approx(
            2 * omega * delta, rel=1e-13)


def test_gamma_linearity(qubit):
    x = 3.7e-5
    assert gamma_from_xqp(5 * x, qubit) == pytest.approx(
        5 * gamma_from_xqp(x, qubit), rel=1e-14)


def test_from_lab_conversion():
    q = QubitParams.from_lab(5.712, 180.0)
    assert q.omega_q == pytest.approx(2 * math.pi * 5.712e9, rel=1e-15)
    assert q.delta_gap == pytest.approx(180e-6 * EV, rel=1e-15)
