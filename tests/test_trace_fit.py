import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdyn import trace_fit
from qpdyn.dynamics import (RateParams, SolutionParams, decay_shape,
                            solution_from_rates, xqp_analytic)
from qpdyn.errors import (DegenerateTraceError, InsufficientDataError,
                          InsufficientSpreadError, InvalidParameterError,
                          NonConvergenceError)
from qpdyn.trace_fit import (DecayTrace, FitResult, SteadyStatePoint,
                             extract_rates, fit_gamma_trace, fit_t1_vs_tau,
                             gamma_model, synth_trace)

from conftest import log_grid

TGRID = log_grid(0.2e-3, 80e-3, 40)


def linear_grid_cases(n_cases):
    """Seeded linear-grid round trips: r' 0.5-0.95, 40-300 samples, tails of
    3-6 tau_ss, the three weightings in turn; every other run of three
    cases carries 2% noise, the rest are noise-free."""
    rng = np.random.Generator(np.random.Philox(0))

    def log_u(lo, hi):
        return float(10 ** rng.uniform(np.log10(lo), np.log10(hi)))

    for k in range(n_cases):
        rp, n = rng.uniform(0.5, 0.95), int(rng.integers(40, 301))
        tail, tau = rng.uniform(3.0, 6.0), log_u(8e-3, 25e-3)
        amp = log_u(3e5, 6e6)
        truth = FitResult.from_params(amp, rp, tau, amp * log_u(3e-3, 0.05))
        yield (truth, np.linspace(0.2e-3, tail * tau, n),
               ("relative", "absolute", "sigma")[k % 3], (k // 3) % 2 == 1)


def noise_free_panel(n_cases):
    """Seeded noise-free traces: r' 0.3-0.98, tau_ss 2-25 ms, Gamma0/A
    3e-3-0.05, 40-300 samples to 3-6 tau_ss on linear and log grids, each
    grid with the three weightings in turn; sigma is 2% of the model."""
    rng = np.random.Generator(np.random.Philox(7))

    def log_u(lo, hi):
        return float(10 ** rng.uniform(np.log10(lo), np.log10(hi)))

    for k in range(n_cases):
        rp, n = rng.uniform(0.3, 0.98), int(rng.integers(40, 301))
        tail, tau = rng.uniform(3.0, 6.0), log_u(2e-3, 25e-3)
        amp = log_u(3e5, 6e6)
        truth = FitResult.from_params(amp, rp, tau, amp * log_u(3e-3, 0.05))
        grid = (np.linspace(0.2e-3, tail * tau, n) if k % 2 == 0
                else log_grid(0.2e-3, tail * tau, n))
        m = gamma_model(grid, truth)
        yield (truth, DecayTrace(t=grid, gamma=m, sigma=0.02 * m),
               ("relative", "absolute", "sigma")[(k // 2) % 3])


def params(f):
    return np.array([f.amplitude, f.r_prime, f.tau_ss, f.gamma0])


def b1_truth(coupling, gamma0=4e4):
    # amplitude chosen so the extracted r is exactly 1/(170 ns)
    x_i = 0.9 / (0.1 * 18e-3 / 170e-9)
    return FitResult.from_params(coupling * x_i, 0.9, 18e-3, gamma0)


class TestGammaModel:
    def test_asymptote(self):
        f = FitResult.from_params(1e5, 0.8, 5e-3, 3e4)
        assert gamma_model(1.0, f) == pytest.approx(3e4, rel=1e-12)

    def test_exponential_half_life(self):
        f = FitResult.from_params(2e5, 0.0, 5e-3, 3e4)
        assert gamma_model(5e-3 * np.log(2), f) == pytest.approx(
            1e5 + 3e4, rel=1e-12)

    def test_negative_time_rejected(self):
        f = FitResult.from_params(1e5, 0.8, 1e-3, 3e4)
        with pytest.raises(InvalidParameterError, match="t must be finite "
                           "and >= 0"):
            gamma_model(np.array([-1.0, 0.0]), f)

    def test_consistency_with_dynamics(self, coupling):
        # Gamma(t) = C * x_qp(t) + (Gamma0 - C x0) for matching parameters
        p = SolutionParams(x_i=8e-5, r_prime=0.85, tau_ss=12e-3, x0=1.5e-6)
        f = FitResult.from_params(coupling * p.x_i, p.r_prime, p.tau_ss, 9e4)
        t = np.linspace(0, 60e-3, 50)
        lhs = gamma_model(t, f)
        rhs = coupling * xqp_analytic(t, p) + (9e4 - coupling * p.x0)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestFitGammaTrace:
    def test_noise_free_exponential(self):
        truth = FitResult.from_params(1e5, 0.0, 18e-3, 4e4)
        f = fit_gamma_trace(synth_trace(truth, TGRID, 0.0, 0))
        assert f.r_prime < 1e-3
        assert f.tau_ss == pytest.approx(18e-3, rel=1e-6)

    def test_round_trip_within_3_sigma(self):
        truth = FitResult.from_params(1e5, 0.9, 18e-3, 4e4)
        f = fit_gamma_trace(synth_trace(truth, TGRID, 0.02, 0))
        sig = f.sigmas
        assert abs(f.amplitude - 1e5) < 3 * sig[0]
        assert abs(f.r_prime - 0.9) < 3 * sig[1]
        assert abs(f.tau_ss - 18e-3) < 3 * sig[2]
        assert abs(f.gamma0 - 4e4) < 3 * sig[3]

    def test_b1_like_tau_recovery(self, coupling):
        truth = b1_truth(coupling)
        hits = sum(
            abs(fit_gamma_trace(synth_trace(truth, TGRID, 0.02, seed)).tau_ss
                - 18e-3) / 18e-3 < 0.05
            for seed in range(40))
        assert hits >= 36  # 90% of seeds

    def test_insufficient_data(self):
        truth = FitResult.from_params(1e5, 0.5, 18e-3, 4e4)
        tr = synth_trace(truth, log_grid(0.3e-3, 50e-3, 5), 0.0, 0)
        with pytest.raises(InsufficientDataError):
            fit_gamma_trace(tr)

    def test_truncation_removes_early_samples(self):
        truth = FitResult.from_params(1e5, 0.5, 18e-3, 4e4)
        tr = synth_trace(truth, log_grid(0.05e-3, 50e-3, 30), 0.0, 0)
        f = fit_gamma_trace(tr, t_min=200e-6)
        assert f.n_used == int(np.sum(tr.t >= 200e-6))
        assert f.t_min_applied == 200e-6

    def test_degenerate_trace(self):
        t = np.linspace(1e-3, 50e-3, 20)
        gamma = np.full(20, 5e4)
        with pytest.raises(DegenerateTraceError):
            fit_gamma_trace(DecayTrace(t=t, gamma=gamma))
        noisy = 5e4 * (1 + 1e-4 * np.sin(np.arange(20.0)))
        with pytest.raises(DegenerateTraceError):
            fit_gamma_trace(DecayTrace(t=t, gamma=noisy,
                                       sigma=np.full(20, 50.0)))

    @pytest.mark.parametrize("weighting", ["relative", "absolute"])
    def test_rising_trace_is_degenerate(self, weighting):
        t = log_grid(0.2e-3, 80e-3, 40)
        rising = DecayTrace(t=t, gamma=1e5 - 5e4 * np.exp(-t / 10e-3))
        with pytest.raises(DegenerateTraceError, match="no decaying"):
            fit_gamma_trace(rising, weighting=weighting)

    @pytest.mark.parametrize("field", ["t", "gamma", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, field, bad):
        cols = {"t": np.linspace(1e-3, 50e-3, 20),
                "gamma": np.linspace(9e4, 5e4, 20), "sigma": np.full(20, 50.0)}
        cols[field][-1] = bad
        with pytest.raises(InvalidParameterError):
            DecayTrace(**cols)

    @pytest.mark.parametrize("field", ["gamma", "sigma"])
    def test_column_length_must_match_t(self, field):
        cols = {"t": np.linspace(1e-3, 50e-3, 20),
                "gamma": np.linspace(9e4, 5e4, 20), "sigma": np.full(20, 50.0)}
        cols[field] = cols[field][:-1]
        with pytest.raises(InvalidParameterError,
                           match=f"{field} must match t in length"):
            DecayTrace(**cols)

    def test_unknown_weighting(self):
        tr = synth_trace(FitResult.from_params(1e5, 0.5, 18e-3, 4e4), TGRID,
                         0.0, 0)
        with pytest.raises(InvalidParameterError,
                           match="weighting must be relative"):
            fit_gamma_trace(tr, weighting="log")

    def test_sigma_weighting_needs_sigma(self):
        truth = FitResult.from_params(1e5, 0.5, 18e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.0, 0)
        with pytest.raises(InvalidParameterError):
            fit_gamma_trace(tr, weighting="sigma")

    def test_weighting_variants_agree_on_clean_data(self):
        truth = FitResult.from_params(2e5, 0.8, 10e-3, 3e4)
        tr = synth_trace(truth, TGRID, 0.01, 5)
        for w in ("relative", "absolute", "sigma"):
            f = fit_gamma_trace(tr, weighting=w)
            assert f.tau_ss == pytest.approx(10e-3, rel=0.1)

    def test_objective_monotone_and_fixed_point(self):
        truth = FitResult.from_params(1e5, 0.9, 18e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.02, 3)
        f1, info = fit_gamma_trace(tr, full_output=True)
        hist = info["cost_history"]
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_linear_grid_round_trips(self):
        misses = []
        for k, (truth, grid, weighting, noisy) in enumerate(
                linear_grid_cases(24)):
            if noisy:
                tr = synth_trace(truth, grid, 0.02, seed=k)
            else:
                m = gamma_model(grid, truth)
                tr = DecayTrace(t=grid, gamma=m, sigma=0.02 * m)
            f = fit_gamma_trace(tr, weighting=weighting)
            if noisy:
                ok = abs(f.tau_ss - truth.tau_ss) <= max(
                    0.05 * truth.tau_ss, 5 * f.sigmas[2])
            else:
                got = np.array([f.amplitude, f.r_prime, f.tau_ss, f.gamma0])
                want = np.array([truth.amplitude, truth.r_prime,
                                 truth.tau_ss, truth.gamma0])
                ok = np.all(np.abs(got / want - 1) <= 1e-6)
            if not ok:
                misses.append((k, weighting, noisy))
        assert misses == []

    def test_global_start_recovers_noise_free_panel(self):
        misses = []
        for k, (truth, tr, weighting) in enumerate(noise_free_panel(300)):
            try:
                err = np.abs(params(fit_gamma_trace(tr, weighting=weighting))
                             / params(truth) - 1).max()
            except DegenerateTraceError:
                err = np.inf
            if not err <= 1e-6:
                misses.append((k, weighting, err))
        assert misses == []

    @pytest.mark.parametrize("t_end", [80e-3, 0.2])
    @pytest.mark.parametrize("weighting", ["relative", "absolute", "sigma"])
    def test_long_tail_trace(self, t_end, weighting):
        # tau_ss = 0.1 ms sampled to 800 and 2000 tau_ss: exp(t/tau_ss)
        # overflows on the tail, exp(-t/tau_ss) does not
        truth = FitResult.from_params(1e5, 0.8, 1e-4, 4e4)
        grid = log_grid(0.2e-3, t_end, 40)
        m = gamma_model(grid, truth)
        f = fit_gamma_trace(DecayTrace(t=grid, gamma=m, sigma=1e-6 * m),
                            t_min=0, weighting=weighting)
        assert np.abs(params(f) / params(truth) - 1).max() <= 1e-6

    def test_saturated_r_prime_is_degenerate(self):
        # pure 1/(exp(t/tau) - 1) shape: the r' -> 1 limit of the model
        t = log_grid(0.2e-3, 80e-3, 40)
        rng = np.random.Generator(np.random.Philox(1))
        gamma = (1e4 / np.expm1(t / 5e-3) + 4e4) * (
            1 + 0.02 * rng.standard_normal(t.size))
        with pytest.raises(DegenerateTraceError, match="r' is not identif"):
            fit_gamma_trace(DecayTrace(t=t, gamma=gamma),
                            weighting="absolute")

    @pytest.mark.parametrize("truth, n, t_end, seed", [
        ((803030.8708436053, 0.4141453127280166, 0.011834337404367548,
          2613.66439982008), 114, 39.779e-3, 706),
        ((1031782.9773902582, 0.6272468398009552, 0.013251717730657885,
          3372.1617285004136), 84, 40.900e-3, 1492)])
    def test_negative_gamma0_refit_is_constrained_optimum(self, truth, n,
                                                          t_end, seed):
        # the unconstrained optimum has Gamma0 < 0; the fit must return the
        # optimum under Gamma0 >= 0, not the clamped unconstrained one
        from scipy.optimize import least_squares
        tr = synth_trace(FitResult.from_params(*truth),
                         np.linspace(0.2e-3, t_end, n), 0.02, seed)
        f = fit_gamma_trace(tr, weighting="absolute")

        def resid(x):
            return gamma_model(tr.t, FitResult.from_params(
                x[0], 1 / (1 + np.exp(-x[1])), np.exp(x[2]), x[3])) - tr.gamma

        ref = least_squares(
            resid, [truth[0], np.log(truth[1] / (1 - truth[1])),
                    np.log(truth[2]), truth[3]],
            bounds=([-np.inf] * 3 + [0.0], np.inf), method="trf",
            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert f.gamma0 == 0.0
        cost = 0.5 * float(np.sum((gamma_model(tr.t, f) - tr.gamma) ** 2))
        assert cost <= ref.cost * (1 + 1e-9)

    def test_evaluation_budget_exhausted(self, monkeypatch):
        truth = FitResult.from_params(1e5, 0.9, 18e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.02, 0)
        monkeypatch.setattr(trace_fit, "_MAX_NFEV", 2)
        with pytest.raises(NonConvergenceError) as exc:
            fit_gamma_trace(tr)
        assert exc.value.best_params.shape == (4,)
        assert np.isfinite(exc.value.best_cost)

    def test_one_debug_record_per_fit(self, caplog):
        caplog.set_level(logging.DEBUG, logger="qpdyn.trace_fit")
        tr = synth_trace(FitResult.from_params(1e5, 0.9, 18e-3, 4e4), TGRID,
                         0.02, 3)
        _, info = fit_gamma_trace(tr, full_output=True)
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("qpdyn.trace_fit",
                                                 logging.DEBUG)
        stats = record.args
        assert (stats["weighting"], stats["refit"]) == ("relative", False)
        assert [stats["cost0"], stats["cost"]] == info["cost_history"]
        (polish,) = stats["polishes"]
        assert polish["status"] in ("gtol", "ftol", "xtol")
        assert polish["nfev"] >= polish["njev"] == info["n_iterations"]
        caplog.clear()
        # a trace whose unconstrained optimum has Gamma0 < 0: two polishes
        refit = synth_trace(FitResult.from_params(
            803030.8708436053, 0.4141453127280166, 0.011834337404367548,
            2613.66439982008), np.linspace(0.2e-3, 39.779e-3, 114), 0.02, 706)
        _, info = fit_gamma_trace(refit, weighting="absolute",
                                  full_output=True)
        (record,) = caplog.records
        assert record.args["refit"] is True
        assert len(record.args["polishes"]) == 2
        assert info["n_iterations"] == sum(
            p["njev"] for p in record.args["polishes"])

    def test_homogeneity_in_gamma_scale(self):
        truth = FitResult.from_params(1e5, 0.85, 15e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.02, 9)
        lam = 7.3
        scaled = DecayTrace(t=tr.t, gamma=lam * tr.gamma,
                            sigma=lam * tr.sigma)
        f1 = fit_gamma_trace(tr)
        f2 = fit_gamma_trace(scaled)
        assert f2.amplitude == pytest.approx(lam * f1.amplitude, rel=1e-6)
        assert f2.gamma0 == pytest.approx(lam * f1.gamma0, rel=1e-6)
        assert f2.r_prime == pytest.approx(f1.r_prime, rel=1e-6)
        assert f2.tau_ss == pytest.approx(f1.tau_ss, rel=1e-6)

    def test_truncation_stability_noise_free(self):
        truth = FitResult.from_params(1e6, 0.9, 18e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.0, 0)
        f_all = fit_gamma_trace(tr, t_min=200e-6)
        f_cut = fit_gamma_trace(tr, t_min=1e-3)
        assert abs(f_cut.tau_ss - f_all.tau_ss) <= max(
            f_all.sigmas[2], 1e-8 * f_all.tau_ss)


def scipy_polish(tr, weighting):
    """least_squares' Levenberg-Marquardt (MINPACK lmder) from the fit's
    grid start, with its tolerances and budget, again with Gamma0 pinned
    at 0 if it ends below 0: the polish fit_gamma_trace ran on scipy."""
    from scipy.optimize import least_squares
    cut = tr.truncated(trace_fit.DEFAULT_T_MIN)
    t, gamma = cut.t, cut.gamma
    unit = {"relative": gamma, "absolute": np.ones_like(gamma),
            "sigma": cut.sigma}[weighting]

    def resid(x):
        rp = 1.0 / (1.0 + math.exp(-x[1]))
        g0 = x[3] if x.size > 3 else 0.0
        f, df_u, df_v = decay_shape(t, rp, math.exp(x[2]), jac=True)
        m = x[0] * f + g0
        jac = np.column_stack([f, x[0] * df_u, x[0] * df_v,
                               np.ones_like(t)])[:, :x.size]
        if weighting == "relative":
            return np.log(m) - np.log(gamma), jac / m[:, None]
        return (m - gamma) / unit, jac / unit[:, None]

    def polish(x0):
        return least_squares(
            lambda x: resid(x)[0], x0, jac=lambda x: resid(x)[1],
            method="lm", xtol=trace_fit._XTOL, ftol=trace_fit._FTOL,
            gtol=trace_fit._GTOL, x_scale="jac",
            max_nfev=trace_fit._MAX_NFEV)

    sol = polish(trace_fit._grid_start(t, gamma, unit))
    if sol.x[3] < 0:
        sol = polish(sol.x[:3])
    return sol.cost, np.array([
        sol.x[0], 1.0 / (1.0 + math.exp(-sol.x[1])), math.exp(sol.x[2]),
        sol.x[3] if sol.x.size > 3 else 0.0])


@settings(max_examples=240, deadline=None, derandomize=True)
@given(grid=st.sampled_from(["linear", "log", "bench"]),
       n=st.integers(40, 300), tail=st.floats(3.0, 6.0),
       r_prime=st.floats(0.5, 0.95), log_tau=st.floats(-2.1, -1.6),
       log_amp=st.floats(5.48, 6.78), log_g0=st.floats(-2.52, -1.3),
       noisy=st.booleans(),
       weighting=st.sampled_from(["relative", "absolute", "sigma"]),
       seed=st.integers(0, 2**32 - 1))
def test_polish_matches_least_squares(grid, n, tail, r_prime, log_tau,
                                      log_amp, log_g0, noisy, weighting,
                                      seed):
    """Over the round-trip ranges (linear and log grids, 40-300 samples,
    tails of 3-6 tau_ss, r' 0.5-0.95) and the benchmark's traces (60
    log-spaced samples to 80 ms, r' 0.7-0.95), with 2% noise the fit ends
    at a cost within 1e-12 relative of scipy's least_squares, or below
    it, and at a tau_ss within 1e-3 sigma of it; noise-free, both recover
    the same parameters to 1e-6."""
    tau, amp = 10.0**log_tau, 10.0**log_amp
    if grid == "bench":
        r_prime = 0.7 + (r_prime - 0.5) * (0.25 / 0.45)
        t = log_grid(0.2e-3, 80e-3, 60)
    else:
        t = (np.linspace if grid == "linear" else np.geomspace)(
            0.2e-3, tail * tau, n)
    truth = FitResult.from_params(amp, r_prime, tau, amp * 10.0**log_g0)
    if noisy:
        tr = synth_trace(truth, t, 0.02, seed)
    else:
        m = gamma_model(t, truth)
        tr = DecayTrace(t=t, gamma=m, sigma=0.02 * m)
    f, info = fit_gamma_trace(tr, weighting=weighting, full_output=True)
    ref_cost, ref_params = scipy_polish(tr, weighting)
    if noisy:
        assert info["cost_history"][1] <= ref_cost * (1 + 1e-12)
        assert abs(f.tau_ss - ref_params[2]) <= 1e-3 * f.sigmas[2]
    else:
        assert np.abs(params(f) / ref_params - 1).max() <= 1e-6


def log_residual(x):
    """log(x) = 0: from x = 10 the first Gauss-Newton step lands at
    x = -13, where the residual is not a number."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(x), np.diag(1.0 / x)


def two_sided_residual(x):
    """x - 1 and x + 1: least cost 1, at x = 0."""
    return np.array([x[0] - 1.0, x[0] + 1.0]), np.ones((2, 1))


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("resid_jac, x0, x_min, status", [
        (lambda x: (x - 1.0, np.eye(1)), 1.0, 1.0, "gtol"),  # zero cost
        (two_sided_residual, 0.3, 0.0, "ftol"),  # the decrease dies out
        # zero residual: each step cuts the cost by half or more, so only
        # the step size can stop it
        (log_residual, 10.0, 1.0, "xtol")], ids=["gtol", "ftol", "xtol"])
    def test_stop_rules(self, resid_jac, x0, x_min, status):
        sol = trace_fit._lm(resid_jac, np.array([x0]))
        assert sol["status"] == status
        assert sol["x"][0] == pytest.approx(x_min, abs=1e-9)

    @pytest.mark.parametrize("poison", ["residual", "jacobian"])
    def test_non_finite_trial_is_rejected(self, poison):
        """A trial with a non-finite residual, or a non-finite Jacobian
        beside a residual of zero cost, is rejected; the loop damps the
        step and converges to x = 1."""
        trials = []

        def resid_jac(x):
            trials.append(float(x[0]))
            f, jac = log_residual(x)
            if x[0] <= 0 and poison == "jacobian":
                return np.zeros(1), np.full((1, 1), np.nan)
            return f, jac

        sol = trace_fit._lm(resid_jac, np.array([10.0]))
        assert trials[1] < 0  # the first trial was poisoned
        assert sol["status"] != "max_nfev"
        assert sol["x"][0] == pytest.approx(1.0, abs=1e-9)
        assert sol["nfev"] == len(trials) > sol["njev"]
        assert sol["cost0"] == 0.5 * math.log(10.0) ** 2
        assert sol["cost"] == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("start", [0.0, -1.0], ids=["inf", "nan"])
    def test_non_finite_start_is_refused(self, start):
        with pytest.raises(InvalidParameterError,
                           match="cannot start the fit: the residuals"):
            trace_fit._lm(log_residual, np.array([start]))

    def test_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(trace_fit, "_MAX_NFEV", 3)
        sol = trace_fit._lm(log_residual, np.array([10.0]))
        assert (sol["status"], sol["nfev"]) == ("max_nfev", 3)
        assert sol["x"][0] == 10.0  # both trials were rejected


@pytest.mark.parametrize("covariance, match", [
    (np.eye(3), "4x4"),
    (np.eye(4) + np.triu(np.full((4, 4), 0.1), 1), "symmetric"),
    (np.diag([1.0, 1.0, 1.0, -1.0]), "positive semidefinite")])
def test_fit_result_refuses_a_bad_covariance(covariance, match):
    with pytest.raises(InvalidParameterError, match=f"covariance must be "
                                                    f"{match}"):
        FitResult(amplitude=1e5, r_prime=0.5, tau_ss=18e-3, gamma0=4e4,
                  covariance=covariance)


class TestExtractRates:
    def test_exponential_zero_width(self, coupling):
        f = FitResult.from_params(1e5, 0.0, 18e-3, 4e4)
        ex = extract_rates(f, coupling)
        assert ex.r == 0.0
        assert ex.s_min == ex.s_max == pytest.approx(1 / 18e-3, rel=1e-14)

    def test_b1_trapping_band(self, coupling):
        # B1 background rate ~ 1/(9.5 us) so gamma0 = C x0 + Gamma_ex
        f = b1_truth(coupling, gamma0=1.05e5)
        ex = extract_rates(f, coupling)
        assert ex.s_min <= 1 / 30e-3 <= ex.s_max
        assert ex.r == pytest.approx(1 / 170e-9, rel=1e-9)

    def test_subnormal_coupling_rejected(self):
        # x_i = A / C overflows to infinity
        f = FitResult.from_params(3.9e6, 0.9, 18e-3, 4e4)
        with pytest.raises(InvalidParameterError, match="x_i must be finite"):
            extract_rates(f, 1e-320)

    def test_sigmas_match_finite_differences(self, coupling):
        sd = np.array([2e4, 0.01, 4e-4, 3e3])
        corr = np.array([[1.0, 0.6, -0.3, 0.2], [0.6, 1.0, 0.5, -0.4],
                         [-0.3, 0.5, 1.0, 0.1], [0.2, -0.4, 0.1, 1.0]])
        theta = np.array([3.9e6, 0.9, 18e-3, 1.05e5])
        f = FitResult(amplitude=theta[0], r_prime=theta[1], tau_ss=theta[2],
                      gamma0=theta[3], covariance=corr * np.outer(sd, sd))
        ex = extract_rates(f, coupling)

        def outputs(th):
            e = extract_rates(FitResult.from_params(*th), coupling)
            return np.array([e.r, e.s_min, e.s_max])

        jac = np.column_stack([
            (outputs(theta + h) - outputs(theta - h)) / (2 * h[k])
            for k, h in enumerate(np.diag(1e-6 * theta))])
        fd = np.sqrt(np.einsum("ik,kl,il->i", jac, f.covariance, jac))
        assert np.allclose([ex.r_sigma, ex.s_min_sigma, ex.s_max_sigma], fd,
                           rtol=1e-6)

    def test_monte_carlo_coverage(self, coupling):
        rng = np.random.Generator(np.random.Philox(21))
        hits = 0
        for k in range(100):
            rp = RateParams(r=10 ** rng.uniform(np.log10(1 / 300e-9),
                                                np.log10(1 / 80e-9)),
                            s=10 ** rng.uniform(1, 2.5),
                            g=10 ** rng.uniform(-4.5, -3.5))
            x_i = 10 ** rng.uniform(-4.5, -3.5)
            sol = solution_from_rates(rp, x_i)
            gamma_ex = rng.uniform(0.3, 3.0) * coupling * sol.x0
            truth = FitResult.from_params(
                coupling * x_i, sol.r_prime, sol.tau_ss,
                coupling * sol.x0 + gamma_ex)
            grid = log_grid(0.2e-3, 5 * sol.tau_ss, 40)
            f = fit_gamma_trace(synth_trace(truth, grid, 0.01, seed=k))
            ex = extract_rates(f, coupling)
            r_ok = abs(ex.r - rp.r) <= 3 * ex.r_sigma
            s_ok = ex.s_min <= rp.s <= ex.s_max
            hits += r_ok and s_ok
        assert hits >= 95


class TestT1VsTau:
    def line_points(self, coupling, g, gamma_ex, noise, seed):
        taus = np.linspace(2e-3, 18e-3, 10)
        rng = np.random.Generator(np.random.Philox(seed))
        pts = []
        for tv in taus:
            y = coupling * g * tv + gamma_ex
            pts.append(SteadyStatePoint(
                tau_ss=tv, inv_t1=y * (1 + noise * rng.standard_normal()),
                sigma_inv_t1=y * noise if noise else None))
        return pts

    def test_b1_values(self, coupling):
        res = fit_t1_vs_tau(
            self.line_points(coupling, 0.7e-4, 1 / 26e-6, 0.01, 2), coupling)
        assert res.g == pytest.approx(0.7e-4, rel=0.05)
        assert res.gamma_ex == pytest.approx(1 / 26e-6, rel=0.05)

    def test_b2_values(self, coupling):
        res = fit_t1_vs_tau(
            self.line_points(coupling, 1.3e-4, 1 / 17e-6, 0.01, 3), coupling)
        assert res.g == pytest.approx(1.3e-4, rel=0.05)
        assert res.gamma_ex == pytest.approx(1 / 17e-6, rel=0.05)

    def test_zero_slope(self, coupling):
        taus = np.linspace(1e-3, 20e-3, 8)
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=5e4) for tv in taus]
        res = fit_t1_vs_tau(pts, coupling)
        assert res.g == pytest.approx(0.0, abs=1e-15)
        assert res.gamma_ex == pytest.approx(5e4, rel=1e-12)

    def test_insufficient_points(self, coupling):
        pts = [SteadyStatePoint(tau_ss=1e-3, inv_t1=1e5),
               SteadyStatePoint(tau_ss=9e-3, inv_t1=2e5)]
        with pytest.raises(InsufficientDataError):
            fit_t1_vs_tau(pts, coupling)

    def test_mixed_sigmas_refused(self, coupling):
        """Points with and without sigma_inv_t1 used to be fitted with
        equal weights, their sigmas dropped."""
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=y, sigma_inv_t1=sig)
               for tv, y, sig in ((2e-3, 1.0e5, 1e3), (6e-3, 1.6e5, 1e3),
                                  (18e-3, 3.1e5, None))]
        with pytest.raises(InvalidParameterError,
                           match="given for 2 of 3 points"):
            fit_t1_vs_tau(pts, coupling)

    @pytest.mark.parametrize("given", [True, False],
                             ids=["known-sigma", "unit-weights"])
    def test_error_bars_are_the_least_squares_standard_errors(
            self, coupling, given):
        """g_sigma and gamma_ex_sigma against the weighted least-squares
        covariance from the normal matrix X^T W X of the design X = [tau, 1]:
        with known sigmas its inverse; without them, with unit weights,
        its inverse scaled by chi^2 / (N - 2)."""
        rng = np.random.Generator(np.random.Philox(25))
        taus = np.sort(rng.uniform(1e-3, 30e-3, 12))
        y = coupling * 0.7e-4 * taus + 1 / 26e-6
        sigma = y * rng.uniform(0.005, 0.05, taus.size)
        y = y + sigma * rng.standard_normal(taus.size)
        res = fit_t1_vs_tau([
            SteadyStatePoint(tau_ss=tv, inv_t1=yv,
                             sigma_inv_t1=sv if given else None)
            for tv, yv, sv in zip(taus, y, sigma)], coupling)
        x = np.column_stack([taus, np.ones_like(taus)])
        w = 1.0 / sigma**2 if given else np.ones_like(taus)
        cov = np.linalg.inv(x.T @ (w[:, None] * x))
        if not given:
            resid = y - x @ (cov @ (x.T @ (w * y)))
            cov *= float(w @ resid**2) / (taus.size - 2)
        assert res.g_sigma == pytest.approx(
            math.sqrt(cov[0, 0]) / coupling, rel=1e-12, abs=0)
        assert res.gamma_ex_sigma == pytest.approx(
            math.sqrt(cov[1, 1]), rel=1e-12, abs=0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e160], ids=["tiny", "huge"])
    def test_weights_beyond_the_float64_range_refused(self, coupling,
                                                       recwarn, sigma):
        """1/sigma^2 overflows or underflows: refused by the name of
        sigma_inv_t1, with no numpy warning, where it blamed tau_ss."""
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=y, sigma_inv_t1=sigma)
               for tv, y in ((2e-3, 1e5), (9e-3, 2e5), (16e-3, 3e5))]
        with pytest.raises(InvalidParameterError,
                           match=r"weights 1/sigma_inv_t1\^2 leave"):
            fit_t1_vs_tau(pts, coupling)
        assert not recwarn.list

    def test_inv_t1_beyond_the_float64_range_refused(self, coupling,
                                                     recwarn):
        """inv_t1 near the float64 limit overflows the weighted mean:
        refused by the name of inv_t1, with no numpy warning, where the fit
        returned NaN."""
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=y)
               for tv, y in ((2e-3, 1e300), (9e-3, 5e307), (16e-3, 1.7e308))]
        with pytest.raises(InvalidParameterError, match=(
                r"^the weighted sums of inv_t1 leave the float64 range; the "
                r"line fit cannot resolve inv_t1 values of 1e\+300 to "
                r"1\.7e\+308 1/s$")):
            fit_t1_vs_tau(pts, coupling)
        assert not recwarn.list

    def test_error_bars_beyond_the_float64_range_refused(self, coupling,
                                                         recwarn):
        """A finite fit whose error bars overflow (chi^2 / (N - 2) over
        the tau_ss spread) is refused by name, where it returned inf."""
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=y) for tv, y in (
            (1e-100, 1e150), (3e-100, 3e150), (9e-100, 5e150))]
        with pytest.raises(InvalidParameterError, match=(
                r"^the error bars of the line fit leave the float64 range; "
                r"it cannot bound inv_t1 values of 1e\+150 to 5e\+150 1/s "
                r"over tau_ss values of 1e-100 to 9e-100 s$")):
            fit_t1_vs_tau(pts, coupling)
        assert not recwarn.list

    def test_insufficient_spread(self, coupling):
        pts = [SteadyStatePoint(tau_ss=tv, inv_t1=1e5)
               for tv in (5e-3, 6e-3, 7e-3)]
        with pytest.raises(InsufficientSpreadError):
            fit_t1_vs_tau(pts, coupling)


class TestSynthTrace:
    def test_zero_noise_exact(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        tr = synth_trace(truth, TGRID, 0.0, 123)
        assert np.array_equal(tr.gamma, gamma_model(TGRID, truth))
        assert tr.sigma is None

    def test_seed_determinism(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        a = synth_trace(truth, TGRID, 0.03, 42)
        b = synth_trace(truth, TGRID, 0.03, 42)
        c = synth_trace(truth, TGRID, 0.03, 43)
        assert np.array_equal(a.gamma, b.gamma)
        assert not np.array_equal(a.gamma, c.gamma)

    def test_sigma_field(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        tr = synth_trace(truth, TGRID, 0.03, 42)
        assert np.allclose(tr.sigma, 0.03 * gamma_model(TGRID, truth))

    @pytest.mark.parametrize("bad", [-0.01, np.nan, np.inf])
    def test_noise_must_be_finite(self, bad):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        with pytest.raises(InvalidParameterError, match="noise_rel"):
            synth_trace(truth, TGRID, bad, 42)

    def test_noise_that_reaches_zero_is_refused(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        with pytest.raises(InvalidParameterError,
                           match="non-positive Gamma; lower noise_rel"):
            synth_trace(truth, TGRID, 5.0, 42)

    def test_law_of_large_numbers(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        t_fix = (5e-3,)
        vals = np.array([synth_trace(truth, t_fix, 0.05, seed).gamma[0]
                         for seed in range(10_000)])
        model = gamma_model(5e-3, truth)
        # standard error of the mean is model*noise/sqrt(N) = model*5e-4
        assert abs(vals.mean() - model) < 3 * model * 0.05 / 100
