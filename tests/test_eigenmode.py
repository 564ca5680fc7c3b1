import math
from dataclasses import replace

import numpy as np
import pytest

from qpdyn.eigenmode import (ModeSolution, TransportParams, VortexConfig,
                             capacitor_denominator, capacitor_substitution,
                             eigen_residual, field_sweep, large_p_z,
                             small_p_rate, smallest_root, step_sequence)
from qpdyn.errors import InvalidParameterError
from qpdyn.geometry import DeviceGeometry, derive

P_REF = 0.067e-4  # m^2/s
D_REF = 18e-4     # m^2/s


def transfer_matrix_tan(z, geom):
    """Independent oracle: chain two segments as diffusion two-ports.

    State (density, width * slope / k) propagates from the free outer end
    of the wide arm through the thin arm; the effective tan is
    -flux/(W * k * density) at the cross point.
    """
    def segment(width, length_ratio):
        a = z * length_ratio
        return np.array([[math.cos(a), math.sin(a) / width],
                         [-width * math.sin(a), math.cos(a)]])
    state = np.array([1.0, 0.0])  # zero flux at the free end
    state = segment(geom.w_cap, geom.l_cap / geom.l_wire) @ state
    state = segment(geom.w_wire, geom.h_cap / geom.l_wire) @ state
    return -state[1] / (geom.w_wire * state[0])


class TestCapacitorSubstitution:
    def test_reduces_to_thin_arm(self, b1_geom):
        g = replace(b1_geom, l_cap=0.0)
        for z in (0.1, 0.5, 1.2):
            assert capacitor_substitution(z, g) == pytest.approx(
                math.tan(z * g.h_cap / g.l_wire), rel=1e-12)

    def test_uniform_width_concatenates(self, b1_geom):
        g = replace(b1_geom, w_cap=b1_geom.w_wire)
        for z in (0.05, 0.3, 0.9):
            expect = math.tan(z * (g.h_cap + g.l_cap) / g.l_wire)
            assert capacitor_substitution(z, g) == pytest.approx(
                expect, rel=1e-12)

    def test_transfer_matrix_oracle(self, b1_geom, b2_geom):
        rng = np.random.Generator(np.random.Philox(5))
        for geom in (b1_geom, b2_geom):
            for _ in range(30):
                z = rng.uniform(0.01, 1.5)
                if abs(capacitor_denominator(z, geom)) < 1e-3:
                    continue
                assert capacitor_substitution(z, geom) == pytest.approx(
                    transfer_matrix_tan(z, geom), rel=1e-9)


class TestEigenResidual:
    def test_no_trapping_zero_mode(self, b1_geom, transport):
        vc = VortexConfig(0, 0, 0.0)
        assert eigen_residual(0.0, b1_geom, vc, transport) == 0.0

    def test_symmetric_vortices_even_in_dn(self, b1_geom, transport):
        a = VortexConfig(3, 1, P_REF)
        b = VortexConfig(1, 3, P_REF)
        for z in (0.05, 0.2, 0.6):
            assert eigen_residual(z, b1_geom, a, transport) == \
                eigen_residual(z, b1_geom, b, transport)

    def test_symmetric_equals_factor_product(self, b1_geom, transport):
        # with n_left = n_right the cross term vanishes; the residual is
        # the product of the two factors, so it changes sign exactly once
        # per simple root
        vc = VortexConfig(2, 2, P_REF)
        der = derive(b1_geom, transport.d)
        eps = P_REF * der.tau_d / der.a_w
        for z in (0.1, 0.4):
            t_cap = capacitor_substitution(z, b1_geom)
            q = der.aspect_a * z * z - 2.0 * eps
            f1 = z - math.tan(z) * q
            f2 = z * (math.tan(z) + 2 * t_cap) + q * (
                1 - 2 * t_cap * math.tan(z))
            assert eigen_residual(z, b1_geom, vc, transport) == \
                pytest.approx(f1 * f2, rel=1e-12)

    def test_sign_change_across_first_root(self, b1_geom, transport):
        vc = VortexConfig(1, 0, P_REF)
        sol = smallest_root(b1_geom, vc, transport)
        lo = eigen_residual(0.5 * sol.z, b1_geom, vc, transport)
        hi = eigen_residual(min(1.5 * sol.z, 0.99 * math.pi / 2),
                            b1_geom, vc, transport)
        assert lo * hi < 0

    def test_form_validation(self, b1_geom, transport):
        with pytest.raises(InvalidParameterError):
            eigen_residual(0.1, b1_geom, VortexConfig(1, 0, P_REF),
                           transport, form="bogus")

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_parameter_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            VortexConfig(1, 0, bad)
        with pytest.raises(InvalidParameterError):
            TransportParams(d=bad)
        with pytest.raises(InvalidParameterError):
            TransportParams(d=D_REF, s0=bad)
        with pytest.raises(InvalidParameterError):
            VortexConfig(-1, 0, P_REF)


class TestSmallestRoot:
    def test_no_vortices(self, b1_geom, transport):
        sol = smallest_root(b1_geom, VortexConfig(0, 0, P_REF), transport)
        assert isinstance(sol, ModeSolution)
        assert sol.z == 0.0
        assert sol.s == transport.s0

    def test_zero_power(self, b1_geom, transport):
        sol = smallest_root(b1_geom, VortexConfig(3, 2, 0.0), transport)
        assert sol.z == 0.0 and sol.s == transport.s0

    def test_residual_small_at_root(self, b1_geom, transport):
        sol = smallest_root(b1_geom, VortexConfig(2, 1, P_REF), transport)
        assert abs(sol.residual_at_root) < 1e-10
        assert sol.bracket[0] <= sol.z <= sol.bracket[1]
        assert 0 < sol.z < math.pi / 2

    def test_small_p_limit(self, b1_geom, b2_geom):
        tp = TransportParams(d=D_REF, s0=5.0)
        for geom in (b1_geom, b2_geom):
            der = derive(geom, tp.d)
            p_small = 1e-4 * der.a_w / der.tau_d
            for n in range(1, 7):
                vc = VortexConfig((n + 1) // 2, n // 2, p_small)
                s_root = smallest_root(geom, vc, tp).s
                s_lin = small_p_rate(geom, vc, tp)
                assert abs(s_root - s_lin) / (s_lin - tp.s0) < 0.01

    def test_large_p_limit_small_capacitor(self):
        geom = DeviceGeometry(w_wire=12e-6, l_wire=400e-6, h_cap=4e-6,
                              l_half_gap=1e-6, w_cap=12e-6, l_cap=2e-6,
                              s_pad=6400e-12, label="small-cap")
        tp = TransportParams(d=D_REF, s0=0.0)
        z_inf = large_p_z(geom)
        z = smallest_root(geom, VortexConfig(3, 3, 1e-2), tp).z
        assert z == pytest.approx(z_inf, rel=0.01)

    def test_full_vs_reduced_small_gap(self, b1_geom, transport):
        vc = VortexConfig(2, 1, P_REF)
        for ratio in (1e-6, 1e-5, 1e-4):
            g = replace(b1_geom, l_half_gap=b1_geom.l_wire * ratio)
            zr = smallest_root(g, vc, transport, form="reduced").z
            zf = smallest_root(g, vc, transport, form="full").z
            assert abs(zf - zr) / zr < 1e-4

    def test_monotone_in_p_and_counts(self, b1_geom, transport):
        prev = 0.0
        for p in (0.01e-4, 0.03e-4, 0.1e-4, 0.3e-4, 1e-4):
            s = smallest_root(b1_geom, VortexConfig(1, 1, p), transport).s
            assert s >= prev
            prev = s
        prev = 0.0
        for n in range(7):
            s = smallest_root(b1_geom, VortexConfig(n, 2, P_REF),
                              transport).s
            assert s >= prev
            prev = s

    def test_pad_exchange_symmetry(self, b1_geom, transport):
        a = smallest_root(b1_geom, VortexConfig(4, 1, P_REF), transport)
        b = smallest_root(b1_geom, VortexConfig(1, 4, P_REF), transport)
        assert a.z == b.z

    def test_trapping_bound(self, b1_geom, transport):
        der = derive(b1_geom, transport.d)
        for n in (1, 3, 8, 20):
            vc = VortexConfig(n, n, P_REF)
            s = smallest_root(b1_geom, vc, transport).s
            assert s * der.a_total <= 2 * n * P_REF \
                + transport.s0 * der.a_total


class TestSmallPRate:
    def test_formula_arithmetic(self, b1_geom):
        # one vortex of 0.067 cm^2/s over 6.7e-4 cm^2 adds exactly 100 1/s
        tp = TransportParams(d=D_REF, s0=12.0)
        der = derive(b1_geom, tp.d)
        vc = VortexConfig(1, 0, P_REF)
        expected = P_REF / der.a_total + tp.s0
        assert small_p_rate(b1_geom, vc, tp) == pytest.approx(
            expected, rel=1e-14)
        assert 0.067e-4 / 6.7e-8 == pytest.approx(100.0, rel=1e-12)

    def test_no_vortices(self, b1_geom):
        tp = TransportParams(d=D_REF, s0=77.0)
        assert small_p_rate(b1_geom, VortexConfig(0, 0, P_REF), tp) == 77.0


class TestStepSequence:
    def test_step_zero_is_background(self, b1_geom, transport):
        rows = step_sequence(b1_geom, transport, P_REF, max_steps=2)
        nl, nr, s, s_a = rows[0]
        assert (nl, nr) == (0, 0)
        assert s == transport.s0

    def test_alternating_series_counts(self, b1_geom, transport):
        rows = step_sequence(b1_geom, transport, P_REF, max_steps=4)
        assert [(r[0], r[1]) for r in rows] == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]

    def test_pairs_doubles_increment(self, b1_geom, transport):
        alt = step_sequence(b1_geom, transport, P_REF, max_steps=1)
        pairs = step_sequence(b1_geom, transport, P_REF,
                              series="pairs", max_steps=1)
        inc_alt = alt[1][3] - alt[0][3]
        inc_pairs = pairs[1][3] - pairs[0][3]
        assert inc_pairs == pytest.approx(2 * inc_alt, rel=0.05)

    def test_monotone_rates(self, b1_geom, transport):
        rows = step_sequence(b1_geom, transport, P_REF, max_steps=6)
        s_vals = [r[2] for r in rows]
        assert all(b > a for a, b in zip(s_vals, s_vals[1:]))


class TestFieldSweep:
    def test_below_entry_field(self, b1_geom, transport):
        rows = field_sweep(b1_geom, transport, P_REF,
                           [0.0, 5e-7], b_k=11e-7,
                           vortex_density_slope=0.45 / 1e-7)
        assert all(r[3] == transport.s0 for r in rows)
        assert all(r[1] == r[2] == 0 for r in rows)

    def test_monotone_in_field(self, b1_geom, transport):
        b = np.linspace(0.0, 200e-7, 21)
        rows = field_sweep(b1_geom, transport, P_REF, b, b_k=11e-7,
                           vortex_density_slope=0.45 / 1e-7)
        s_vals = [r[3] for r in rows]
        assert all(b >= a for a, b in zip(s_vals, s_vals[1:]))

    def test_alternating_fill(self, b1_geom, transport):
        rows = field_sweep(b1_geom, transport, P_REF,
                           [14e-7], b_k=11e-7,
                           vortex_density_slope=0.5 / 1e-7,
                           pads="alternating")
        b, nl, nr, s = rows[0]
        assert (nl, nr) == (2, 1)

    def test_equal_fill_counts(self, b1_geom, transport):
        rows = field_sweep(b1_geom, transport, P_REF,
                           [31e-7], b_k=11e-7,
                           vortex_density_slope=0.45 / 1e-7)
        b, nl, nr, s = rows[0]
        assert nl == nr == round(0.45 * 20)

    def test_high_field_saturates_higher_for_smaller_capacitor(
            self, b1_geom, b2_geom):
        tp = TransportParams(d=D_REF, s0=0.0)
        s1 = smallest_root(b1_geom, VortexConfig(60, 60, P_REF), tp).s
        s2 = smallest_root(b2_geom, VortexConfig(60, 60, P_REF), tp).s
        assert s2 > s1
