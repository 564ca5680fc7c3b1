import math

import numpy as np
import pytest

from qpdyn.constants import EV, QubitParams, gamma_from_xqp
from qpdyn.errors import InvalidParameterError
from qpdyn.estimates import (EMPIRICAL_SHIFT_FACTOR, CavityQs, VortexMicro,
                             frequency_shift, frequency_shift_from_xqp,
                             injection_power, junction_power,
                             microscopic_trapping_power, qp_injection_rate,
                             vortex_profile)

DELTA = 180e-6 * EV
R_J = 8e3

AL_QS = CavityQs(q_in=2e6, q_out=1e5, q_w=1e8, q_j=1.1e4)
CU_QS = CavityQs(q_in=3e5, q_out=1.5e4, q_w=1.5e4, q_j=1.1e4)


def dbm(p_w):
    return 10 * math.log10(p_w / 1e-3)


class TestInjectionPower:
    def test_aluminum_cavity(self):
        p = injection_power(R_J, DELTA, AL_QS)
        assert dbm(p) == pytest.approx(-60.0, abs=2.0)

    def test_copper_cavity(self):
        assert CU_QS.q_tot == pytest.approx(4.5e3, rel=0.05)
        p = injection_power(R_J, DELTA, CU_QS)
        assert dbm(p) == pytest.approx(-60.0, abs=2.0)

    def test_junction_q_dominated_limit(self):
        qs = CavityQs(q_in=1e10, q_out=1e13, q_w=1e13, q_j=1.1e4)
        expect = qs.q_in / (4 * qs.q_j) * junction_power(R_J, DELTA)
        assert injection_power(R_J, DELTA, qs) == pytest.approx(
            expect, rel=1e-5)

    def test_added_loss_never_increases_qtot(self):
        base = CavityQs(q_in=2e6, q_out=1e5, q_w=1e8, q_j=1.1e4)
        lossier = CavityQs(q_in=2e6, q_out=1e5, q_w=1e5, q_j=1.1e4)
        assert lossier.q_tot < base.q_tot

    def test_injection_needs_a_gap(self):
        # zero input power has no dBm value
        with pytest.raises(InvalidParameterError, match="delta"):
            injection_power(R_J, 0.0, AL_QS)


class TestQpInjectionRate:
    def test_reference_value(self):
        g = qp_injection_rate(R_J, DELTA)
        assert g * 1e-6 == pytest.approx(5e5, rel=0.2)

    def test_inverse_proportionality(self):
        assert qp_injection_rate(2 * R_J, DELTA) == pytest.approx(
            qp_injection_rate(R_J, DELTA) / 2, rel=1e-14)

    def test_vanishing_gap(self):
        assert qp_injection_rate(R_J, 0.0) == 0.0


class TestTrappingPower:
    def test_coherence_length_core(self):
        p = microscopic_trapping_power(VortexMicro(r_core=100e-9,
                                                   tau_n=1 / 1.2e7))
        assert p * 1e4 == pytest.approx(0.004, rel=0.1)

    def test_gap_suppression_core(self):
        p = microscopic_trapping_power(VortexMicro(r_core=270e-9,
                                                   tau_n=1 / 1.2e7))
        assert p * 1e4 == pytest.approx(0.027, rel=0.1)
        # within a factor 3 of the measured 0.067 cm^2/s
        assert 0.067 / 3 < p * 1e4 < 0.067 * 3

    def test_quadratic_in_radius(self):
        p1 = microscopic_trapping_power(VortexMicro(100e-9, 83e-9))
        p2 = microscopic_trapping_power(VortexMicro(200e-9, 83e-9))
        assert p2 == pytest.approx(4 * p1, rel=1e-14)


class TestVortexProfile:
    P, D, RC = 0.067e-4, 18e-4, 100e-9

    def test_center_value(self):
        assert vortex_profile(0.0, self.P, self.D, self.RC) == 1.0

    def test_core_edge_below_bound(self):
        v = vortex_profile(self.RC, self.P, self.D, self.RC)
        assert v == pytest.approx(1 + self.P / (4 * math.pi * self.D),
                                  rel=1e-12)
        assert v < 1.001

    def test_far_field_below_bound(self):
        v = vortex_profile(800 * self.RC, self.P, self.D, self.RC)
        assert v < 1.01

    def test_continuous_at_core_edge(self):
        inside = vortex_profile(self.RC * (1 - 1e-9), self.P, self.D, self.RC)
        outside = vortex_profile(self.RC * (1 + 1e-9), self.P, self.D,
                                 self.RC)
        assert inside == pytest.approx(outside, rel=1e-8)

    def test_monotone_and_at_least_one(self):
        rho = np.linspace(0.0, 1000 * self.RC, 400)
        v = vortex_profile(rho, self.P, self.D, self.RC)
        assert np.all(v >= 1.0)
        assert np.all(np.diff(v) >= 0)

    def test_strong_trapping_warns(self):
        with pytest.warns(UserWarning, match="P/D"):
            vortex_profile(1e-6, 0.2 * self.D, self.D, self.RC)


class TestFrequencyShift:
    OMEGA = 2 * math.pi * 6e9

    def test_reference_ratio(self):
        shift = frequency_shift(1e5, self.OMEGA, DELTA)
        assert shift / 1e5 == pytest.approx(-0.91, abs=0.01)

    def test_zero_rate(self):
        assert frequency_shift(0.0, self.OMEGA, DELTA) == 0.0

    def test_ratio_independent_of_rate_and_negative(self):
        r1 = frequency_shift(1e3, self.OMEGA, DELTA) / 1e3
        r2 = frequency_shift(1e7, self.OMEGA, DELTA) / 1e7
        assert r1 == pytest.approx(r2, rel=1e-14)
        assert r1 < 0

    def test_consistency_with_density_form(self):
        q = QubitParams(omega_q=self.OMEGA, delta_gap=DELTA)
        for x in (1e-7, 3e-6, 1e-4):
            via_gamma = frequency_shift(gamma_from_xqp(x, q), self.OMEGA,
                                        DELTA)
            direct = frequency_shift_from_xqp(x, self.OMEGA, DELTA)
            assert via_gamma == pytest.approx(direct, rel=1e-12)

    def test_empirical_factor(self):
        pure = frequency_shift(1e5, self.OMEGA, DELTA)
        scaled = frequency_shift(1e5, self.OMEGA, DELTA,
                                 empirical_factor=EMPIRICAL_SHIFT_FACTOR)
        assert scaled == pytest.approx(pure / 1.7, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            frequency_shift(-1.0, self.OMEGA, DELTA)
        with pytest.raises(InvalidParameterError):
            CavityQs(q_in=0.0, q_out=1e5, q_w=1e5, q_j=1e4)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_inputs(self, bad):
        with pytest.raises(InvalidParameterError, match="gamma"):
            frequency_shift(bad, self.OMEGA, DELTA)
        with pytest.raises(InvalidParameterError, match="omega"):
            frequency_shift(1e5, bad, DELTA)
        with pytest.raises(InvalidParameterError, match="delta"):
            frequency_shift(1e5, self.OMEGA, bad)
        with pytest.raises(InvalidParameterError, match="empirical_factor"):
            frequency_shift(1e5, self.OMEGA, DELTA, empirical_factor=bad)
        for name in ("q_in", "q_out", "q_w", "q_j"):
            fields = dict(q_in=2e6, q_out=1e5, q_w=1e8, q_j=1.1e4)
            fields[name] = bad
            with pytest.raises(InvalidParameterError, match=name):
                CavityQs(**fields)
        with pytest.raises(InvalidParameterError, match="delta"):
            qp_injection_rate(R_J, bad)
        with pytest.raises(InvalidParameterError, match="r_j"):
            junction_power(bad, DELTA)
