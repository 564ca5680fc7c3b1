import math
from dataclasses import replace

import numpy as np
import pytest

from qpdyn.eigenmode import (ModeSolution, TransportParams, VortexConfig,
                             eigen_residual, field_sweep, large_p_z,
                             small_p_rate, smallest_root, step_sequence)
from qpdyn.errors import InvalidParameterError
from qpdyn.geometry import DeviceGeometry, derive

P_REF = 0.067e-4  # m^2/s
D_REF = 18e-4     # m^2/s


@pytest.mark.parametrize("form", ["reduced", "full"])
@pytest.mark.parametrize("geom_name", ["b1", "b2"])
def test_capacitor_plate_roots(geom_name, form, request, transport):
    """The wide capacitor arm joins the thin one at a degree-2 vertex.  Of
    equal widths that vertex is transparent, so the arm is one thin arm of
    length h + L_c; and the root tends to the thin arm's as L_c -> 0."""
    geom = request.getfixturevalue(f"{geom_name}_geom")
    vc = VortexConfig(2, 1, P_REF)

    def root(**dims):
        return smallest_root(replace(geom, **dims), vc, transport, form).z

    assert root(w_cap=geom.w_wire) == pytest.approx(
        root(h_cap=geom.h_cap + geom.l_cap, l_cap=0.0), rel=1e-13, abs=0)
    z0 = root(l_cap=0.0)
    moves = [abs(root(l_cap=f * geom.h_cap) - z0) / z0
             for f in (1e-2, 1e-4, 1e-6, 1e-8)]
    # first order in L_c: each factor 100 shorter moves z 100 times less
    assert moves[0] < 0.1
    for longer, shorter in zip(moves, moves[1:]):
        assert shorter == pytest.approx(longer / 100, rel=0.05)


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
        # also where tau_D = L^2 / D overflows and eps = 0 inf is nan
        tp = TransportParams(d=5e-324, s0=transport.s0)
        for form in ("reduced", "full"):
            sol = smallest_root(b1_geom, VortexConfig(3, 2, 0.0), tp, form)
            assert sol.z == 0.0 and sol.s == transport.s0
            assert sol.branch_note == f"{form}: no trapping, uniform mode"

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

    @pytest.mark.parametrize("d_cm2", [1e12, 1e16, 1e20])
    @pytest.mark.parametrize("counts", [(1, 0), (2, 2)])
    @pytest.mark.parametrize("form", ["reduced", "full"])
    def test_unresolvable_weak_trapping_refused(self, b1_geom, d_cm2,
                                                counts, form):
        # z_w = sqrt(N P tau_D / A_total) < 1e-6: the scan from z = 1e-9
        # would miss or misplace the root
        with pytest.raises(InvalidParameterError, match="z_w = .* weak-"
                           "trapping limit"):
            smallest_root(b1_geom, VortexConfig(*counts, P_REF),
                          TransportParams(d=d_cm2 * 1e-4), form=form)

    @pytest.mark.parametrize("form", ["reduced", "full"])
    def test_refusal_quotes_the_limit_of_its_form(self, b1_geom, form):
        """The reduced form drops the central wire, so its weak-trapping
        limit has the area A_total - 2 l W."""
        tp = TransportParams(d=1e16 * 1e-4)
        a = derive(b1_geom, tp.d).a_total
        area = "A_total"
        if form == "reduced":
            a -= 2.0 * b1_geom.l_half_gap * b1_geom.w_wire
            area = "(A_total - 2 l W)"
        with pytest.raises(InvalidParameterError) as exc:
            smallest_root(b1_geom, VortexConfig(1, 0, P_REF), tp, form=form)
        assert str(exc.value).endswith(
            f"limit s = (N_L + N_R) P / {area} + s0 = {P_REF / a:.6g} 1/s")

    def test_weak_trapping_at_resolvable_edge(self, b1_geom):
        # D = 1e10 cm^2/s gives z ~ 2.2e-6, still above the 1e-6 limit
        vc, tp = VortexConfig(1, 0, P_REF), TransportParams(d=1e6)
        sol = smallest_root(b1_geom, vc, tp, form="full")
        assert sol.s == pytest.approx(small_p_rate(b1_geom, vc, tp),
                                      rel=1e-3)

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
