import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdyn.constants import CODATA
from qpdyn.dynamics import (CANONICAL_GAP_RATIO, RateParams, SolutionParams,
                            extraction_bounds, integrate_ode,
                            rates_from_solution, recombination_theory,
                            solution_from_rates, steady_state, xqp_analytic,
                            xqp_recombination_only)
from qpdyn.errors import (DegenerateSystemError, InvalidParameterError,
                          NegativeRateError)

B1_RATES = RateParams(r=1 / 170e-9, s=1 / 30e-3, g=1e-4)


class TestAnalyticSolution:
    def test_initial_value(self):
        p = SolutionParams(x_i=3e-5, r_prime=0.7, tau_ss=5e-3, x0=1e-6)
        assert xqp_analytic(0.0, p) == p.x_i + p.x0

    def test_pure_exponential_reduction(self):
        p = SolutionParams(x_i=1e-4, r_prime=0.0, tau_ss=2e-3, x0=2e-6)
        assert xqp_analytic(p.tau_ss, p) == pytest.approx(
            p.x_i / math.e + p.x0, rel=1e-14)

    def test_monotone_and_limit(self):
        p = SolutionParams(x_i=1e-4, r_prime=0.93, tau_ss=4e-3, x0=5e-7)
        t = np.linspace(0, 30 * p.tau_ss, 500)
        x = xqp_analytic(t, p)
        assert np.all(np.diff(x) <= 0)
        assert np.all(x > 0)
        assert x[-1] == pytest.approx(p.x0, rel=1e-3)

    def test_near_unity_r_prime_is_stable(self):
        # denominator uses expm1, so r' -> 1 needs no special branch
        r, x_init, rp = 1e7, 1e-4, 1 - 1e-9
        tau = rp / ((1 - rp) * r * x_init)
        p = SolutionParams(x_i=x_init, r_prime=rp, tau_ss=tau, x0=0.0)
        t = 1.0 / (r * x_init)
        hyp = xqp_recombination_only(t, x_init, r)
        assert xqp_analytic(t, p) == pytest.approx(hyp, rel=1e-6)

    def test_matches_ode_oracle_random_params(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(10):
            rp = RateParams(r=10 ** rng.uniform(5, 8),
                            s=10 ** rng.uniform(1, 3),
                            g=10 ** rng.uniform(-5, -3.5))
            x_i = 10 ** rng.uniform(-5, -3.5)
            p = solution_from_rates(rp, x_i)
            t = np.concatenate([[0.0], np.logspace(-6, np.log10(
                8 * p.tau_ss), 40)])
            xa = xqp_analytic(t, p)
            xo = integrate_ode(rp, x_i + p.x0, t)
            assert np.max(np.abs(xo - xa) / xa) < 1e-8


    @pytest.mark.parametrize("field", ["x_i", "tau_ss", "x0"])
    def test_non_finite_rejected(self, field):
        good = dict(x_i=3e-5, r_prime=0.7, tau_ss=5e-3, x0=1e-6)
        with pytest.raises(InvalidParameterError,
                           match=f"{field} must be finite"):
            SolutionParams(**{**good, field: math.inf})


class TestSteadyState:
    def test_reference_values(self):
        ss = steady_state(B1_RATES)
        assert ss.x0 == pytest.approx(2.2e-6, rel=0.02)
        assert ss.tau_ss == pytest.approx(17e-3, rel=0.02)

    def test_zero_generation(self):
        ss = steady_state(RateParams(r=1e6, s=50.0, g=0.0))
        assert ss.x0 == 0.0
        assert ss.tau_ss == 1.0 / 50.0

    def test_linear_balance(self):
        ss = steady_state(RateParams(r=0.0, s=40.0, g=2e-4))
        assert ss.x0 == pytest.approx(2e-4 / 40.0, rel=1e-15)
        assert ss.tau_ss == pytest.approx(1 / 40.0, rel=1e-15)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateSystemError):
            steady_state(RateParams(r=0.0, s=0.0, g=1e-4))

    def test_balance_residual(self):
        rng = np.random.Generator(np.random.Philox(12))
        for _ in range(50):
            rp = RateParams(r=10 ** rng.uniform(3, 8),
                            s=10 ** rng.uniform(0, 4),
                            g=10 ** rng.uniform(-6, -3))
            x0, tau = steady_state(rp)
            assert rp.r * x0**2 + rp.s * x0 == pytest.approx(rp.g, rel=1e-12)
            assert tau == pytest.approx(1 / (2 * rp.r * x0 + rp.s), rel=1e-14)


class TestRatesFromSolution:
    def test_pure_exponential(self):
        p = SolutionParams(x_i=5e-5, r_prime=0.0, tau_ss=3e-3, x0=2e-6)
        rp = rates_from_solution(p)
        assert rp.r == 0.0
        assert rp.s == pytest.approx(1 / p.tau_ss, rel=1e-15)
        assert rp.g == pytest.approx(p.x0 / p.tau_ss, rel=1e-15)

    def test_round_trip_reference(self):
        rp = RateParams(r=1e6, s=100.0, g=1e-4)
        back = rates_from_solution(solution_from_rates(rp, 1e-4))
        assert back.r == pytest.approx(rp.r, rel=1e-10)
        assert back.s == pytest.approx(rp.s, rel=1e-10)
        assert back.g == pytest.approx(rp.g, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(log_r=st.floats(2, 8), log_s=st.floats(0, 6),
           log_g=st.floats(-7, -1), log_xi=st.floats(-6, -3))
    def test_round_trip_identity_property(self, log_r, log_s, log_g, log_xi):
        rp = RateParams(r=10**log_r, s=10**log_s, g=10**log_g)
        back = rates_from_solution(solution_from_rates(rp, 10**log_xi))
        assert back.r == pytest.approx(rp.r, rel=1e-10)
        assert back.s == pytest.approx(rp.s, rel=1e-10)
        assert back.g == pytest.approx(rp.g, rel=1e-10)

    def test_b1_recombination_band(self, coupling):
        amplitude = 3885106.95528956  # C * x_i for r = 1/(170 ns)
        p = SolutionParams(x_i=amplitude / coupling, r_prime=0.9,
                           tau_ss=18e-3, x0=0.0)
        rp = rates_from_solution(p)
        assert 1 / 190e-9 < rp.r < 1 / 150e-9

    def test_negative_rate_error(self):
        # x0 too large for the shape parameters implies s < 0
        p = SolutionParams(x_i=1e-5, r_prime=0.9, tau_ss=1e-3, x0=1e-5)
        with pytest.raises(NegativeRateError) as exc:
            rates_from_solution(p)
        assert exc.value.name == "s"
        assert exc.value.value < 0

    def test_forward_simulation_consistency(self):
        rp = RateParams(r=5e6, s=30.0, g=5e-5)
        p = solution_from_rates(rp, 8e-5)
        t = np.linspace(0.0, 5 * p.tau_ss, 50)
        xa = xqp_analytic(t, p)
        xo = integrate_ode(rp, 8e-5 + p.x0, t)
        assert np.max(np.abs(xo - xa) / xa) < 1e-8


class TestExtractionBounds:
    def test_b1_generation_bound(self):
        r, tau = 1 / 170e-9, 18e-3
        g_max = 1.0 / (4 * r * tau**2)
        # paper-quoted bound is 2e-4 1/s; the closed form lands within x2
        assert 1e-4 < g_max < 2e-4
        p = SolutionParams(x_i=8.5e-5, r_prime=0.9, tau_ss=tau, x0=0.0)
        b = extraction_bounds(p, gamma0=0.0, coupling=4.6e10)
        assert b.g_max == pytest.approx(g_max, rel=1e-12)

    def test_exponential_reduction(self):
        p = SolutionParams(x_i=1e-4, r_prime=0.0, tau_ss=5e-3, x0=0.0)
        b = extraction_bounds(p, gamma0=0.0, coupling=4.6e10)
        assert b.s_min == b.s_max == 1 / p.tau_ss

    def test_clamped_at_zero(self):
        p = SolutionParams(x_i=1e-6, r_prime=0.9, tau_ss=5e-3, x0=0.0)
        b = extraction_bounds(p, gamma0=1e9, coupling=4.6e10)
        assert b.s_min == 0.0
        assert b.s_max == 1 / p.tau_ss

    def test_bracket_always_contains_true_s(self, coupling):
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(200):
            rp = RateParams(r=10 ** rng.uniform(4, 8),
                            s=10 ** rng.uniform(0, 4),
                            g=10 ** rng.uniform(-6, -3))
            x_i = 10 ** rng.uniform(-6, -3)
            p = solution_from_rates(rp, x_i)
            gamma_ex = rng.uniform(0, 3) * coupling * p.x0
            b = extraction_bounds(p, gamma0=coupling * p.x0 + gamma_ex,
                                  coupling=coupling)
            assert b.s_min <= rp.s <= b.s_max
            assert b.g_max >= rp.g or b.g_max == pytest.approx(rp.g, rel=1e-12)


class TestIntegrateOde:
    def test_all_zero_rates(self):
        x = integrate_ode(RateParams(0.0, 0.0, 0.0), 1e-4,
                          np.linspace(0, 1.0, 5))
        assert np.all(x == 1e-4)

    def test_pure_recombination_half_value(self):
        r, x0 = 2e6, 1e-4
        t_half = 1.0 / (r * x0)
        x = integrate_ode(RateParams(r, 0.0, 0.0), x0, [0.0, t_half])
        assert x[-1] == pytest.approx(x0 / 2, rel=1e-9)

    def test_never_crosses_steady_state(self):
        rp = RateParams(r=1e7, s=100.0, g=1e-4)
        x0, tau = steady_state(rp)
        t = np.linspace(0, 20 * tau, 200)
        above = integrate_ode(rp, 5 * x0, t)
        below = integrate_ode(rp, 0.2 * x0, t)
        assert np.all(above >= x0 * (1 - 1e-9))
        assert np.all(below <= x0 * (1 + 1e-9))

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            integrate_ode(B1_RATES, 1e-4, [0.0, 1e-3, 1e-3])
        with pytest.raises(InvalidParameterError):
            integrate_ode(B1_RATES, -1e-4, [0.0, 1e-3])
        for bad in (0.0, -1e-8, np.nan):
            with pytest.raises(InvalidParameterError):
                integrate_ode(B1_RATES, 1e-4, [0.0, 1e-3], rel_tol=bad)


class TestRecombinationTheory:
    DELTA = 180e-6 * 1.602176634e-19

    def tc_for_canonical_ratio(self):
        return self.DELTA / (CODATA.k_B * CANONICAL_GAP_RATIO)

    def test_phonon_factor_five(self):
        t_c = self.DELTA / (CODATA.k_B * 1.764)  # weak-coupling gap ratio
        r = recombination_theory(5.0, 438e-9, self.DELTA, t_c)
        assert 1 / r == pytest.approx(100e-9, rel=0.02)

    def test_phonon_factor_ten(self):
        t_c = self.DELTA / (CODATA.k_B * 1.764)
        r = recombination_theory(10.0, 438e-9, self.DELTA, t_c)
        assert 1 / r == pytest.approx(201e-9, rel=0.02)

    def test_canonical_prefactor_exact(self):
        r = recombination_theory(1.0, 438e-9, self.DELTA,
                                 self.tc_for_canonical_ratio())
        assert r == pytest.approx(21.8 / 438e-9, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            recombination_theory(0.5, 438e-9, self.DELTA, 1.2)
        with pytest.raises(InvalidParameterError):
            recombination_theory(5.0, 0.0, self.DELTA, 1.2)
