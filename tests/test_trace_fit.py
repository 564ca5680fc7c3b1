import numpy as np
import pytest

from qpdyn.dynamics import (RateParams, SolutionParams, solution_from_rates,
                            xqp_analytic)
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

    def test_evaluation_budget_exhausted(self):
        truth = FitResult.from_params(1e5, 0.9, 18e-3, 4e4)
        tr = synth_trace(truth, TGRID, 0.02, 0)
        with pytest.raises(NonConvergenceError) as exc:
            fit_gamma_trace(tr, max_iter=2)
        assert exc.value.best_params.shape == (4,)
        assert np.isfinite(exc.value.best_cost)

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

    def test_law_of_large_numbers(self):
        truth = FitResult.from_params(1e5, 0.7, 9e-3, 2e4)
        t_fix = (5e-3,)
        vals = np.array([synth_trace(truth, t_fix, 0.05, seed).gamma[0]
                         for seed in range(10_000)])
        model = gamma_model(5e-3, truth)
        # standard error of the mean is model*noise/sqrt(N) = model*5e-4
        assert abs(vals.mean() - model) < 3 * model * 0.05 / 100
