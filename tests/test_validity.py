"""The one validity rule for numeric parameters, and where it applies."""

import math

import numpy as np
import pytest

from qpdyn.constants import EV, QubitParams, gamma_from_xqp
from qpdyn.dynamics import (RateParams, SolutionParams, extraction_bounds,
                            integrate_ode, recombination_theory, xqp_analytic,
                            xqp_recombination_only)
from qpdyn.eigenmode import TransportParams, VortexConfig, eigen_residual
from qpdyn.errors import (InvalidParameterError, InvalidResolutionError,
                          QpdynError, check_finite, check_time_grid,
                          finite_violation)
from qpdyn.estimates import (CavityQs, VortexMicro, frequency_shift_from_xqp,
                             vortex_profile)
from qpdyn.geometry import DeviceGeometry, derive
from qpdyn.pde_sim import EvolveSpec, build
from qpdyn.trace_fit import (DecayTrace, FitResult, SteadyStatePoint,
                             extract_rates, fit_t1_vs_tau, gamma_model)

NAN, INF = math.nan, math.inf
C = 4.6e10
GEOM = dict(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6, l_half_gap=7.5e-6,
            w_cap=15e-6, l_cap=600e-6, s_pad=6400e-12)
FIT = dict(amplitude=1e5, r_prime=0.9, tau_ss=18e-3, gamma0=4e4)
SOL = SolutionParams(x_i=3e-5, r_prime=0.7, tau_ss=5e-3, x0=1e-6)
QUBIT = QubitParams.from_lab(6.0, 180.0)
POINTS = [SteadyStatePoint(2e-3, 1e5), SteadyStatePoint(9e-3, 2e5),
          SteadyStatePoint(16e-3, 3e5)]
DELTA = 180e-6 * EV


def _fit(**kw):
    return FitResult(**{**FIT, **kw})


# (function, argument, call with the argument set to v, values of v)
NON_FINITE = [
    ("gamma_from_xqp", "x_qp", lambda v: gamma_from_xqp(v, QUBIT), [NAN]),
    ("FitResult", "amplitude", lambda v: _fit(amplitude=v), [NAN, INF]),
    ("FitResult", "tau_ss", lambda v: _fit(tau_ss=v), [INF]),
    ("FitResult", "gamma0", lambda v: _fit(gamma0=v), [INF]),
    ("SteadyStatePoint", "tau_ss", lambda v: SteadyStatePoint(v, 1e5), [INF]),
    ("SteadyStatePoint", "sigma_inv_t1",
     lambda v: SteadyStatePoint(2e-3, 1e5, v), [INF]),
    ("fit_t1_vs_tau", "coupling", lambda v: fit_t1_vs_tau(POINTS, v),
     [NAN, INF]),
    ("extraction_bounds", "gamma0", lambda v: extraction_bounds(SOL, v, C),
     [NAN, INF]),
    ("extraction_bounds", "coupling",
     lambda v: extraction_bounds(SOL, 4e4, v), [NAN, INF]),
    ("xqp_analytic", "t", lambda v: xqp_analytic(v, SOL), [NAN, INF]),
    ("xqp_recombination_only", "x_init",
     lambda v: xqp_recombination_only(1e-3, v, 6e6), [NAN, INF]),
    ("recombination_theory", "delta",
     lambda v: recombination_theory(1.0, 438e-9, v, 1.2), [NAN, INF]),
    ("recombination_theory", "phonon_factor",
     lambda v: recombination_theory(v, 438e-9, DELTA, 1.2), [INF]),
    ("recombination_theory", "tau0",
     lambda v: recombination_theory(1.0, v, DELTA, 1.2), [INF]),
    ("QubitParams", "delta_gap", lambda v: QubitParams(QUBIT.omega_q, v),
     [INF]),
    ("QubitParams", "omega_q", lambda v: QubitParams(v, QUBIT.delta_gap),
     [INF]),
    ("derive", "D", lambda v: derive(DeviceGeometry(**GEOM), v), [INF]),
    ("vortex_profile", "rho", lambda v: vortex_profile(v, 6.7e-6, 18e-4, 1e-7),
     [NAN, INF]),
    ("vortex_profile", "P", lambda v: vortex_profile(5e-8, v, 18e-4, 1e-7),
     [INF]),
    ("vortex_profile", "D", lambda v: vortex_profile(5e-8, 6.7e-6, v, 1e-7),
     [INF]),
    ("frequency_shift_from_xqp", "omega",
     lambda v: frequency_shift_from_xqp(1e-6, v, DELTA), [NAN, INF]),
    ("eigen_residual", "z",
     lambda v: eigen_residual(v, DeviceGeometry(**GEOM),
                              VortexConfig(1, 0, 6.7e-6),
                              TransportParams(d=18e-4)), [NAN, INF]),
    ("gamma_model", "t", lambda v: gamma_model(v, _fit()), [NAN, INF]),
    ("EvolveSpec", "t_grid",
     lambda v: EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3, v)), [NAN, INF]),
]
NON_FINITE_CASES = [pytest.param(call, v, id=f"{where}-{arg}-{v}")
                    for where, arg, call, values in NON_FINITE
                    for v in values]


def test_there_are_36_non_finite_cases():
    assert len(NON_FINITE_CASES) == 36


@pytest.mark.parametrize("call, value", NON_FINITE_CASES)
def test_non_finite_argument_raises_typed_error(call, value):
    with pytest.raises(QpdynError):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: extract_rates(_fit(), INF),
    lambda: extract_rates(_fit(amplitude=0.0), C),
    lambda: fit_t1_vs_tau(POINTS, 0.0),
    lambda: integrate_ode(RateParams(6e6, 33.0, 1e-4), INF, (0.0, 1e-3)),
], ids=["extract_rates-coupling-inf", "extract_rates-amplitude-0",
        "fit_t1_vs_tau-coupling-0", "integrate_ode-x_init-inf"])
def test_division_by_a_bad_parameter_raises_typed_error(call):
    with pytest.raises(QpdynError):
        call()


@pytest.mark.parametrize("build, name", [
    (lambda: RateParams(r=NAN, s=1.0, g=0.0), "r"),
    (lambda: SolutionParams(x_i=3e-5, r_prime=0.7, tau_ss=5e-3, x0=NAN),
     "x0"),
    (lambda: _fit(amplitude=NAN), "amplitude"),
    (lambda: DecayTrace(t=[1e-3, 2e-3], gamma=[1e5, NAN]), "gamma"),
    (lambda: SteadyStatePoint(2e-3, NAN), "inv_t1"),
    (lambda: QubitParams(NAN, DELTA), "omega_q"),
    (lambda: VortexConfig(1, 0, NAN), "trapping_power"),
    (lambda: TransportParams(d=NAN), "D"),
    (lambda: EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,), x_init=NAN), "x_init"),
    (lambda: DeviceGeometry(**{**GEOM, "h_cap": NAN}), "h_cap"),
    (lambda: CavityQs(NAN, 1e5, 1e8, 1.1e4), "q_in"),
    (lambda: VortexMicro(r_core=NAN, tau_n=83e-9), "r_core"),
], ids=["RateParams", "SolutionParams", "FitResult", "DecayTrace",
        "SteadyStatePoint", "QubitParams", "VortexConfig", "TransportParams",
        "EvolveSpec", "DeviceGeometry", "CavityQs", "VortexMicro"])
def test_every_record_states_the_rule_alike(build, name):
    with pytest.raises(QpdynError, match=f"{name} must be finite"):
        build()


@pytest.mark.parametrize("resolution", [NAN, INF, -INF, 10.5, 9])
def test_build_rejects_a_bad_resolution(resolution):
    with pytest.raises(InvalidResolutionError,
                       match=f"resolution must be a whole number >= 10 "
                             f"cells per wire length, got {resolution}"):
        build(DeviceGeometry(**GEOM), VortexConfig(1, 0, 6.7e-6),
              TransportParams(d=18e-4), resolution)


def test_build_takes_a_whole_float_resolution():
    args = DeviceGeometry(**GEOM), VortexConfig(1, 0, 6.7e-6), \
        TransportParams(d=18e-4)
    disc, whole = build(*args, 20.0), build(*args, 20)
    assert disc.node_segment == whole.node_segment
    assert np.array_equal(disc.node_y, whole.node_y)
    assert np.array_equal(disc.areas, whole.areas)
    assert (disc.generator != whole.generator).nnz == 0


class TestRule:
    def test_message(self):
        assert finite_violation("tau_ss", INF, ">") == \
            "tau_ss must be finite and > 0, got inf"
        assert finite_violation("x0", -1.0, ">=") == \
            "x0 must be finite and >= 0, got -1.0"
        assert finite_violation("z", NAN) == "z must be finite, got nan"

    @pytest.mark.parametrize("value, bound", [
        (0.0, ">="), (5e-324, ">"), (-1e308, ""), (7, ">"),
        (np.float64(2.0), ">"), (np.array([0.0, 1.0]), ">="), ([], ">"),
        (np.array(3.0), "")])
    def test_accepts(self, value, bound):
        assert finite_violation("v", value, bound) is None
        check_finite("v", value, bound)

    def test_array_names_first_offender(self):
        with pytest.raises(InvalidParameterError,
                           match=r"rho must be finite and >= 0, got -2\.0"):
            check_finite("rho", [1.0, -2.0, NAN], ">=")

    @pytest.mark.parametrize("values, bound", [
        ([1.0, -2.0, NAN], ">="), ([3, 0], ">"), ((INF, 1.0), ""),
        ([1.0, 2], ">"), ((-0.0,), ">="), ([np.float64(-1.0)], "")])
    def test_list_rule_is_the_array_rule(self, values, bound):
        """A flat list or tuple of numbers, checked with math, gets the
        message of the same values as an array."""
        assert finite_violation("v", values, bound) == \
            finite_violation("v", np.array(values, dtype=float), bound)

    @pytest.mark.parametrize("value, bound", [
        (0.0, ">"), (-0.5, ">="), (NAN, ""), (-INF, ""), (INF, ">="),
        (np.int64(0), ">"), ([1.0, NAN], "")])
    def test_rejects(self, value, bound):
        assert finite_violation("v", value, bound).startswith(
            "v must be finite")
        with pytest.raises(InvalidParameterError):
            check_finite("v", value, bound)


class TestTimeGrid:
    def test_returns_float_array(self):
        t = check_time_grid("t", (0, 1, 2), from_zero=True)
        assert t.dtype == float and t.tolist() == [0.0, 1.0, 2.0]

    def test_empty_allowed_unless_from_zero(self):
        assert check_time_grid("t", []).size == 0
        with pytest.raises(InvalidParameterError, match="non-empty"):
            check_time_grid("t", [], from_zero=True)

    @pytest.mark.parametrize("grid, from_zero, match", [
        ([[0.0, 1.0]], False, "1-D"),
        ([0.0, NAN], False, "finite"),
        ([0.0, 0.0], False, "strictly increasing"),
        ([2.0, 1.0], False, "strictly increasing"),
        ([-1.0, 1.0], True, "t >= 0")])
    def test_rejects(self, grid, from_zero, match):
        with pytest.raises(InvalidParameterError, match=match):
            check_time_grid("t_grid", grid, from_zero=from_zero)

    def test_negative_start_allowed_without_from_zero(self):
        assert check_time_grid("t", [-1.0, 1.0])[0] == -1.0
