import functools
import itertools
import logging
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_geometry, subprocess_env
from qpdyn import pde_sim
from qpdyn.dynamics import RateParams, integrate_ode
from qpdyn.eigenmode import TransportParams, VortexConfig, smallest_root
from qpdyn.errors import (DegenerateSystemError, InvalidParameterError,
                          InvalidResolutionError, NonConvergenceError,
                          StepSizeUnderflowError)
from qpdyn.geometry import edges, load_geometry
from qpdyn.pde_sim import (EvolveSpec, _evolve_states, build, evolve,
                           factorized_dynamics_check, slowest_mode)

P_REF = 0.067e-4
R_B1 = 1 / 170e-9


@pytest.fixture(scope="module")
def disc_one_vortex(b1_geom, transport):
    return build(b1_geom, VortexConfig(1, 0, P_REF), transport,
                 resolution=50)


@pytest.fixture(scope="module")
def disc_free(b1_geom):
    # no trapping, no background decay: pure conservative diffusion
    return build(b1_geom, VortexConfig(0, 0, 0.0),
                 TransportParams(d=18e-4, s0=0.0), resolution=50)


EPS = np.finfo(float).eps


@pytest.fixture(scope="module", params=[
    (1, 0, 0.0, 10, 600e-6), (2, 3, 33.3, 37, 600e-6),
    (0, 4, 250.0, 200, 0.0)], ids=["b1-res10", "b1-res37", "no-wide-arm"])
def mesh(request, b1_geom):
    n_left, n_right, s0, res, l_cap = request.param
    return build(replace(b1_geom, l_cap=l_cap),
                 VortexConfig(n_left, n_right, P_REF),
                 TransportParams(d=18e-4, s0=s0), resolution=res)


def _dx_by_segment(mesh):
    """Each chain's cell width, read off its first interior node (y = dx)."""
    seg = np.array(mesh.node_segment)
    return {name: mesh.node_y[seg == name][0] for name, *_ in edges(mesh.geom)}


def _length(geom, segment):
    """Length of a chain of cells, from its segment name."""
    kind = segment.split("_")[-1 if segment.startswith("arm") else 0]
    return {"wire": geom.l_wire, "center": geom.l_half_gap,
            "thin": geom.h_cap, "wide": geom.l_cap}[kind]


class TestBuild:
    def test_node_order(self, mesh):
        arms = [f"arm_{side}_{part}" for side in ("left", "right")
                for part in ("thin_end", "thin", "wide_end", "wide")
                if mesh.geom.l_cap > 0 or "wide" not in part]
        runs = [seg for seg, _ in itertools.groupby(mesh.node_segment)]
        assert runs == ["pad_left", "pad_right", "cross_left", "cross_right",
                        "junction", "wire_left", "wire_right", "center_left",
                        "center_right", *arms]
        assert (mesh.node_segment.index("pad_left"),
                mesh.node_segment.index("pad_right"),
                mesh.junction_index) == (0, 1, 4)

    def test_nodes_per_segment_follow_the_cells_rule(self, mesh, request):
        geom, res = mesh.geom, request.node.callspec.params["mesh"][3]
        counts = {seg: mesh.node_segment.count(seg)
                  for seg in set(mesh.node_segment)}
        for seg, dx in _dx_by_segment(mesh).items():
            length = _length(geom, seg)
            cells = max(2, int(round(res * length / geom.l_wire)))
            assert counts.pop(seg) == cells - 1
            assert dx == length / cells
        assert set(counts.values()) == {1}  # the lumped nodes

    def test_node_y_is_k_dx_along_each_chain(self, mesh):
        seg = np.array(mesh.node_segment)
        for name, dx in _dx_by_segment(mesh).items():
            y = mesh.node_y[seg == name]
            assert np.array_equal(y, np.arange(1, y.size + 1) * dx)

    def test_pattern_is_diagonal_plus_both_edge_directions(self, mesh):
        gen, n = mesh.generator, mesh.n_nodes
        n_edges = sum(mesh.node_segment.count(seg) + 1
                      for seg in _dx_by_segment(mesh))
        assert gen.nnz == n + 2 * n_edges
        assert np.all(gen.data != 0)
        assert np.all(gen.diagonal() != 0)

    def test_area_weighted_generator_is_symmetric(self, mesh):
        flux = mesh.areas[:, None] * mesh.generator.toarray()
        assert np.all(np.abs(flux - flux.T) <= 4 * EPS * np.abs(flux))

    def test_diagonal_balances_the_row(self, mesh):
        gen, vc = mesh.generator.toarray(), mesh.vortices
        diag = np.diag(gen).copy()
        sink = np.full(mesh.n_nodes, mesh.tp.s0)
        pads = map(mesh.node_segment.index, ("pad_left", "pad_right"))
        for pad, n_vortices in zip(pads, (vc.n_left, vc.n_right)):
            sink[pad] += n_vortices * vc.trapping_power / mesh.areas[pad]
        np.fill_diagonal(gen, 0.0)
        np.testing.assert_allclose(diag, -gen.sum(axis=1) - sink,
                                   rtol=1e-14, atol=0)

    def test_trapping_changes_only_the_pad_entry(self, b1_geom, transport):
        bare, trapped = (build(b1_geom, VortexConfig(n, 0, P_REF), transport,
                               resolution=37) for n in (0, 3))
        pad = bare.node_segment.index("pad_left")
        assert np.array_equal(bare.areas, trapped.areas)
        delta = (trapped.generator - bare.generator).toarray()
        step = delta[pad, pad]
        delta[pad, pad] = 0.0
        assert not delta.any()
        assert abs(step + 3 * P_REF / bare.areas[pad]) \
            <= 4 * EPS * abs(bare.generator[pad, pad])

    def test_resolution_floor(self, b1_geom, transport):
        with pytest.raises(InvalidResolutionError):
            build(b1_geom, VortexConfig(0, 0, 0.0), transport, resolution=5)

    def test_number_conservation_structure(self, disc_free):
        # area-weighted column sums of the generator vanish identically
        col = disc_free.areas @ disc_free.generator.toarray()
        scale = np.abs(disc_free.generator.diagonal()).max() \
            * disc_free.areas.max()
        assert np.abs(col).max() < 1e-12 * scale

    def test_total_area_matches_geometry(self, disc_free, b1_geom):
        from qpdyn.geometry import derive
        der = derive(b1_geom, 18e-4)
        assert disc_free.areas.sum() == pytest.approx(der.a_total, rel=1e-12)

    def test_uniform_decay_at_background_rate(self, b1_geom):
        tp = TransportParams(d=18e-4, s0=250.0)
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), tp, resolution=50)
        t_grid = (1e-3, 4e-3)
        full = _evolve_states(disc, EvolveSpec(r=0.0, g=0.0, t_grid=t_grid,
                                               x_init=1e-4), 1e-8)
        for k, t in enumerate(t_grid):
            expect = 1e-4 * np.exp(-tp.s0 * t)
            assert np.allclose(full[k], expect, rtol=1e-6)

    def test_resolution_doubling_shifts_rate_little(self, b1_geom,
                                                    transport):
        vals = []
        for res in (50, 100):
            disc = build(b1_geom, VortexConfig(1, 0, P_REF), transport,
                         resolution=res)
            vals.append(slowest_mode(disc)[0])
        assert abs(vals[1] - vals[0]) / vals[0] < 0.002


class TestSlowestMode:
    def test_no_vortices_uniform(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), transport)
        s, mode = slowest_mode(disc)
        assert s == transport.s0
        assert np.max(np.abs(mode - 1.0)) < 1e-8

    def test_matches_transcendental_solver(self, disc_one_vortex, b1_geom,
                                           transport):
        s_pde, mode = slowest_mode(disc_one_vortex)
        s_eq = smallest_root(b1_geom, VortexConfig(1, 0, P_REF),
                             transport, form="full").s
        assert abs(s_pde - s_eq) / s_eq < 0.005
        assert np.all(mode >= 0)
        assert mode[disc_one_vortex.junction_index] == 1.0

    def test_pad_depression_with_many_vortices(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(25, 25, P_REF), transport)
        _, mode = slowest_mode(disc)
        pad = mode[disc.node_segment.index("pad_left")]
        assert pad < 0.6  # density at the trapping pads well below junction

    @pytest.mark.parametrize("d_cm2", [1e12, 1e60, 1e300])
    def test_extreme_diffusion_fails_typed(self, b1_geom, d_cm2):
        # the one vortex's sink P / A_total is below 32 eps max|diag G|
        disc = build(b1_geom, VortexConfig(1, 0, P_REF),
                     TransportParams(d=d_cm2 * 1e-4))
        with pytest.raises(NonConvergenceError, match=(
                "^the trapping sink is below round-off of the diffusion "
                r"operator; the weak-trapping limit s = 116\.765 1/s "
                "applies$")):
            slowest_mode(disc)

    def test_rate_below_its_round_off_floor_is_refused(self, b1_geom):
        # at D = 1e9 cm^2/s the sink is above 32 eps max|diag G|, but the
        # rate is not above the rounding error of its Rayleigh quotient
        disc = build(b1_geom, VortexConfig(1, 0, P_REF),
                     TransportParams(d=1e9 * 1e-4))
        with pytest.raises(NonConvergenceError,
                           match="not above the round-off floor") as info:
            slowest_mode(disc)
        assert info.value.best_params.shape == (disc.n_nodes,)

    @pytest.mark.parametrize("routine, fake, match", [
        ("dpttrf", lambda real: lambda d, e: (d, e, 1),
         "Cholesky factorization"),
        ("dpotrf", lambda real: lambda c: (np.full_like(c, np.nan), 0),
         "Cholesky factorization"),
        # the iterate's solves overflow, not the one for Z = T^-1 K
        ("dpttrs", lambda real: lambda d, e, b: (
            np.full_like(b, 1e300), 0) if b.ndim == 1 else real(d, e, b),
         r"norm \(inf\) left the float64 range"),
        ("dpttrf", lambda real: lambda d, e: (d, np.full_like(e, np.inf), 0),
         "Cholesky factorization"),
        ("dpotrf", lambda real: lambda c: (c, 2), "Cholesky factorization")],
        ids=["not-positive-definite", "non-finite-factor", "norm-overflow",
             "non-finite-path-factor", "border-not-positive-definite"])
    def test_lapack_failures_fail_typed(self, disc_one_vortex, monkeypatch,
                                        routine, fake, match):
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, routine,
                            fake(getattr(scipy.linalg.lapack, routine)))
        with pytest.raises(NonConvergenceError, match=match):
            slowest_mode(disc_one_vortex)

    @pytest.mark.parametrize("d", [18e-4, 18 * 1e-4])
    def test_weak_trapping_refusal_ignores_the_last_bit_of_d(self, b1_geom,
                                                              d):
        # 18e-4 and 18 * 1e-4 differ in their last bit; on both meshes the
        # sink is far below 32 eps max|diag G|, so both are refused before
        # anything is factored, with the same message
        assert 18e-4 != 18 * 1e-4
        disc = build(b1_geom, VortexConfig(1, 1, 1e-24),
                     TransportParams(d=d, s0=0.0), resolution=50)
        with pytest.raises(NonConvergenceError, match=(
                r"the weak-trapping limit s = 3\.48554e-17 1/s applies$")):
            slowest_mode(disc)

    def test_iteration_limit_names_the_residual_and_its_bar(
            self, disc_one_vortex, monkeypatch):
        monkeypatch.setattr(pde_sim, "_MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as info:
            slowest_mode(disc_one_vortex)
        message = str(info.value)
        assert "did not converge in 2 iterations" in message
        assert "1e-10 lambda + 32 eps max|diag G|" in message
        got_resid, got_bar = (float(x) for x in re.findall(
            r"residual ([^ ]+) 1/s .* = ([^ ]+) 1/s", message)[0])
        a_op, w = -disc_one_vortex.generator, disc_one_vortex.areas
        v, lam = info.value.best_params, info.value.best_cost
        r = a_op @ v - lam * v
        resid = np.sqrt((w @ (r * r)) / (w @ (v * v)))
        bar = 1e-10 * lam + 32 * np.finfo(float).eps * np.abs(
            a_op.diagonal()).max()
        assert got_resid == pytest.approx(resid, rel=1e-5)
        assert got_bar == pytest.approx(bar, rel=1e-5)
        assert resid > bar

    def test_grid_convergence_second_order(self, b1_geom, transport):
        vc = VortexConfig(2, 1, P_REF)
        s = {res: slowest_mode(build(b1_geom, vc, transport, res))[0]
             for res in (20, 40, 80)}
        order = np.log2((s[20] - s[40]) / (s[40] - s[80]))
        assert 1.5 < order < 2.6


class TestEvolve:
    def test_eigenmode_decays_exponentially(self, disc_one_vortex):
        s, mode = slowest_mode(disc_one_vortex)
        t = np.linspace(0.0, 3 * np.log(10) / s, 30)  # 3 decades
        jj = evolve(disc_one_vortex, EvolveSpec(r=0.0, g=0.0,
                                                t_grid=tuple(t),
                                                x_init=1e-4 * mode))
        rate = -np.polyfit(t, np.log(jj), 1)[0]
        assert rate == pytest.approx(s, rel=0.01)

    def test_uniform_recombination_matches_zero_d(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), transport)
        rp = RateParams(r=R_B1, s=transport.s0, g=1e-4)
        t = np.linspace(0.0, 0.05, 25)
        jj = evolve(disc, EvolveSpec(r=rp.r, g=rp.g, t_grid=tuple(t),
                                     x_init=1e-4), tol=1e-9)
        ode = integrate_ode(rp, 1e-4, t)
        assert np.max(np.abs(jj - ode) / ode) < 1e-6

    def test_positivity(self, disc_one_vortex):
        t = np.linspace(1e-4, 0.1, 20)
        jj = evolve(disc_one_vortex, EvolveSpec(r=R_B1, g=0.0,
                                                t_grid=tuple(t),
                                                x_init=1e-4))
        assert np.all(jj >= 0)

    def test_number_conservation_in_time(self, disc_free):
        rng = np.random.Generator(np.random.Philox(8))
        x0 = rng.uniform(0.5e-4, 1.5e-4, disc_free.n_nodes)
        t_grid = (5e-4, 2e-3)
        full = _evolve_states(disc_free, EvolveSpec(r=0.0, g=0.0,
                                                    t_grid=t_grid, x_init=x0),
                              1e-10)
        n0 = float(disc_free.areas @ x0)
        for k in range(len(t_grid)):
            nk = float(disc_free.areas @ full[k])
            assert abs(nk - n0) / n0 < 1e-10 * max(t_grid[k], 1.0)

    def test_injection_source_fills_then_decays(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), transport)
        t = (50e-6, 100e-6, 400e-6, 2e-3)
        jj = evolve(disc, EvolveSpec(r=R_B1, g=0.0, t_grid=t, x_init=0.0,
                                     injection_rate=1e4, t_inj=100e-6),
                    tol=1e-6)
        assert jj[0] > 0
        assert jj[1] >= jj[0] * 0.9       # still driven
        assert jj[3] < jj[1]              # decays after the pulse

    def test_clamped_injection_holds_density(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), transport)
        t = (20e-6, 80e-6, 1e-3)
        jj = evolve(disc, EvolveSpec(r=0.0, g=0.0, t_grid=t, x_init=0.0,
                                     injection_density=2e-4, t_inj=100e-6),
                    tol=1e-6)
        assert jj[0] == pytest.approx(2e-4, rel=1e-6)
        assert jj[1] == pytest.approx(2e-4, rel=1e-6)
        assert jj[2] < 2e-4

    @pytest.mark.parametrize("drive", ["rate", "clamp"])
    def test_linear_drive_matches_matrix_exponential(self, disc_one_vortex,
                                                     drive):
        # r = g = 0 makes the system affine, so stepping it with the exact
        # propagator expm(h A) is exact; the release right after t_inj is
        # where step control matters most
        from scipy.linalg import expm
        disc, h, t_inj = disc_one_vortex, 0.2e-6, 100e-6
        gen, jj, n = disc.generator.toarray(), disc.junction_index, \
            disc.n_nodes
        steps = (1, 5, 20, 250)  # t_inj + 0.2, 1, 4 and 50 us
        if drive == "rate":
            # dx/dt = G x + a e_jj as a homogeneous system in (x, 1)
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n], aug[jj, n] = gen, 1e4
            y = np.eye(n + 1)[n]
            drive_kw = {"injection_rate": 1e4}
        else:
            # the held junction is G with its row zeroed, started at 2e-4
            aug = gen.copy()
            aug[jj] = 0.0
            y = 2e-4 * np.eye(n)[jj]
            drive_kw = {"injection_density": 2e-4}
        drive_step = expm(h * aug)
        for _ in range(round(t_inj / h)):
            y = drive_step @ y
        release_step, x, ref = expm(h * gen), y[:n], []
        for k in range(1, steps[-1] + 1):
            x = release_step @ x
            if k in steps:
                ref.append(x[jj])
        spec = EvolveSpec(r=0.0, g=0.0,
                          t_grid=tuple(t_inj + h * np.array(steps)),
                          t_inj=t_inj, **drive_kw)
        jj_trace = evolve(disc, spec, tol=1e-8)
        assert np.max(np.abs(jj_trace - ref) / ref) < 1e-6

    def test_invalid_inputs(self, disc_free):
        with pytest.raises(InvalidParameterError):
            EvolveSpec(r=-1.0, g=0.0, t_grid=(1e-3,))
        with pytest.raises(InvalidParameterError):
            EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3, 1e-3))
        with pytest.raises(InvalidParameterError):
            evolve(disc_free, EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,),
                                         x_init=np.ones(3)))
        for bad in (-1e-4, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                evolve(disc_free, EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,)),
                       tol=bad)
            with pytest.raises(InvalidParameterError):
                EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,), t_inj=1e-4,
                           injection_density=bad)
            with pytest.raises(InvalidParameterError):
                EvolveSpec(r=bad, g=0.0, t_grid=(1e-3,))
            with pytest.raises(InvalidParameterError):
                evolve(disc_free, EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,),
                                             x_init=bad))


@pytest.mark.parametrize("drive", [
    {"injection_rate": 1e4, "injection_density": 2e-4, "t_inj": 50e-6},
    {"injection_rate": 1e4}, {"injection_density": 2e-4},
    {"injection_density": 0.0}], ids=["both", "rate", "clamp", "zero-clamp"])
def test_a_drive_evolve_would_ignore_is_refused(drive):
    """One drive at a time, and only with a pulse length t_inj > 0."""
    with pytest.raises(InvalidParameterError, match="drive"):
        EvolveSpec(r=0.0, g=0.0, t_grid=(1e-3,), **drive)


# evolve's drives, each to 200 us: the rate and clamp pulses last 50 us,
# and the clamp starts from half its density
DRIVES = {"rate": {"injection_rate": 1e4, "t_inj": 50e-6},
          "clamp": {"x_init": 1e-4, "injection_density": 2e-4,
                    "t_inj": 50e-6},
          "free": {"x_init": 1e-4}}


def _bundled(name):
    return load_geometry(resources.files("qpdyn.data")
                         / f"geometry_{name}_like.cfg")


def _bundled_mesh(name, resolution):
    return build(_bundled(name), VortexConfig(1, 2, P_REF),
                 TransportParams(d=18e-4, s0=100.0), resolution=resolution)


def _drive(drive):
    return EvolveSpec(r=R_B1, g=1e-4, t_grid=(50e-6, 100e-6, 150e-6, 200e-6),
                      **DRIVES[drive])


# a Latin square: each geometry meets each resolution and each drive once,
# and each resolution meets each drive once
LATIN_SQUARE = [
    ("b1", 20, "rate"), ("b1", 50, "clamp"), ("b1", 200, "free"),
    ("b2", 20, "clamp"), ("b2", 50, "free"), ("b2", 200, "rate"),
    ("b3", 20, "free"), ("b3", 50, "rate"), ("b3", 200, "clamp")]


def _radau_states(disc, spec, tol):
    """The states of _evolve_states(disc, spec, tol) from scipy's Radau IIA
    with the sparse exact Jacobian (SuperLU), a test-only reference: on
    each drive piece, at rtol = tol and evolve's absolute tolerance, with
    a clamped junction held by zeroing its row, and clipped at zero."""
    import scipy.sparse as sp
    from scipy.integrate import solve_ivp

    gen, jj, n = disc.generator, disc.junction_index, disc.n_nodes
    t_grid = np.asarray(spec.t_grid)
    x = np.full(n, float(spec.x_init))
    clamp = spec.injection_density is not None
    if clamp:
        x[jj] = spec.injection_density
    scale = max(x.max(), spec.injection_rate * spec.t_inj,
                spec.g * t_grid[-1])
    states, t0 = [], 0.0
    for t1 in sorted({min(spec.t_inj, t_grid[-1]), t_grid[-1]} - {0.0}):
        src, held = np.full(n, spec.g), np.ones(n)
        if t1 <= spec.t_inj and clamp:
            held[jj] = 0.0
        elif t1 <= spec.t_inj:
            src[jj] += spec.injection_rate
        held = sp.diags(held)

        def fun(t, y, src=src, held=held):
            return held @ (gen @ y - spec.r * y * y + src)

        def jac(t, y, held=held):
            return (held @ (gen - sp.diags(2.0 * spec.r * y))).tocsc()

        piece = t_grid[(t_grid > t0) & (t_grid <= t1)]
        sol = solve_ivp(fun, (t0, t1), x, method="Radau", jac=jac, rtol=tol,
                        atol=1e-3 * tol * scale,
                        t_eval=np.union1d(piece, t1))
        assert sol.success, sol.message
        states.append(sol.y[:, :piece.size].T)
        x, t0 = sol.y[:, -1], t1
    return np.maximum(np.concatenate(states), 0.0)


def _break_superlu(monkeypatch):
    """Make SuperLU's factor routine, which splu calls, raise."""
    from scipy.sparse.linalg._dsolve import _superlu

    def broken(*args, **kwargs):
        raise RuntimeError("SuperLU called")

    monkeypatch.setattr(_superlu, "gstrf", broken)


class TestBandedRadau:
    """evolve's banded Rosenbrock integrator, with scipy's Radau IIA as a
    test-only reference."""

    @pytest.mark.parametrize("name, resolution, drive", LATIN_SQUARE)
    def test_matches_radau_with_the_sparse_jacobian(self, name, resolution,
                                                    drive):
        """At tol 1e-8, evolve's largest error over all nodes and output
        times, against Radau with the sparse Jacobian at rtol 1e-12, is no
        larger than Radau's own at tol 1e-8 (with the same tolerances)."""
        disc, spec = _bundled_mesh(name, resolution), _drive(drive)
        exact = _radau_states(disc, spec, 1e-12)
        ours = _evolve_states(disc, spec, 1e-8)
        radau = _radau_states(disc, spec, 1e-8)
        assert np.abs(ours - exact).max() <= np.abs(radau - exact).max()

    def test_superlu_is_never_called(self, monkeypatch):
        # evolve runs with SuperLU broken, which the reference needs
        _break_superlu(monkeypatch)
        disc = _bundled_mesh("b1", 20)
        for drive in DRIVES:
            assert np.all(np.isfinite(evolve(disc, _drive(drive))))
        with pytest.raises(RuntimeError, match="SuperLU called"):
            _radau_states(disc, _drive("free"), 1e-8)

    @pytest.mark.parametrize("extreme", [
        {"r": 1e300}, {"g": 1e300}, {"x_init": 1e300},
        {"injection_density": 1e300, "injection_rate": 0.0}],
        ids=["r", "g", "x_init", "clamp"])
    def test_non_finite_factors_fail_fast_and_typed(self, monkeypatch,
                                                    extreme):
        # a NaN error estimate or factor must end the step loop at once
        import scipy.linalg.lapack

        factor, calls = scipy.linalg.lapack.dgbtrf, []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) < 1000, "the step loop does not end"
            return factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", counted)
        disc = build(_bundled("b2"), VortexConfig(0, 0, 0.0),
                     TransportParams(d=18e-4, s0=100.0))
        spec = EvolveSpec(**{"r": 6.25e6, "g": 1e-4, "injection_rate": 1e4,
                             "t_inj": 600e-6, "t_grid": (1e-3, 8e-3),
                             **extreme})
        with pytest.raises(StepSizeUnderflowError, match="overflow"):
            evolve(disc, spec)


def test_a_piece_past_the_step_budget_is_refused_typed(monkeypatch):
    """The step loop ends at the budget (100 000 steps; 20 here), with a
    typed error naming the piece and how far it got."""
    from qpdyn import _rodas

    monkeypatch.setattr(_rodas, "_MAX_STEPS", 20)
    with pytest.raises(StepSizeUnderflowError,
                       match=r"undriven piece \[0, 0.0002\] s: 20 steps "
                             r"reached t = "):
        evolve(_bundled_mesh("b1", 20), _drive("free"))


def test_res_200_evolve_stays_banded_and_small(monkeypatch):
    """b1 at res 200 runs with SuperLU and the dense LU broken, and a warm
    evolve's peak stays far below the 25 MB of one dense n x n matrix."""
    import tracemalloc

    import scipy.linalg.lapack

    def broken(*args, **kwargs):
        raise RuntimeError("dense LU called")

    _break_superlu(monkeypatch)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", broken)
    disc = _bundled_mesh("b1", 200)
    assert disc.n_nodes == 1767
    for drive in DRIVES:
        assert np.all(np.isfinite(evolve(disc, _drive(drive))))
    tracemalloc.start()
    try:
        evolve(disc, _drive("rate"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _pieces(caplog):
    """The per-piece counts evolve logged, one dict per drive piece."""
    return [record.args for record in caplog.records
            if record.name == "qpdyn.pde_sim"]


def test_an_output_a_rounding_error_after_t_inj_is_the_state_there():
    """A grid point a few ulp after t_inj (np.linspace(0, 2e-3, 21) puts
    3e-4 + 5e-20 there) is the release piece's first output; evolve
    returns the state at t_inj for it, as it does for t_inj itself."""
    disc = _bundled_mesh("b2", 25)
    t_grid = np.linspace(0.0, 2e-3, 21)[1:]
    assert 0 < t_grid[2] - 300e-6 < 1e-19
    exact = t_grid.copy()
    exact[2] = 300e-6
    got, want = (evolve(disc, EvolveSpec(
        r=R_B1, g=1e-4, t_grid=tuple(t), injection_rate=1e4, t_inj=300e-6))
        for t in (t_grid, exact))
    assert np.array_equal(got, want)


def test_the_coefficients_meet_the_order_conditions():
    """RODAS's table, taken back from the variables u_i of its stages to
    the Rosenbrock form (alpha, Gamma, b) of Hairer & Wanner, Table IV.7.1,
    meets the eight conditions of order 4 with b and the four of order 3
    with the embedded b-hat (and misses order 4 with it), to round-off."""
    from scipy.linalg import solve_triangular

    from qpdyn._rodas import A, C, GAMMA

    g = GAMMA
    # u = Gamma k: Gamma^-1 = I / gamma - C, alpha = A Gamma, b = m Gamma
    gam = solve_triangular(np.eye(6) / g - C, np.eye(6), lower=True)
    alpha = A @ gam
    beta = alpha + gam - np.diag(np.diag(gam))  # below the diagonal
    a_sum, b_sum = alpha.sum(axis=1), beta.sum(axis=1)

    def residuals(m):
        b = m @ gam
        return np.array([
            b.sum() - 1, b @ b_sum - (0.5 - g),
            b @ a_sum ** 2 - 1 / 3, b @ beta @ b_sum - (1 / 6 - g + g * g),
            b @ a_sum ** 3 - 1 / 4,
            (b * a_sum) @ alpha @ b_sum - (1 / 8 - g / 3),
            b @ beta @ a_sum ** 2 - (1 / 12 - g / 3),
            b @ beta @ beta @ b_sum - (1 / 24 - g / 2 + 1.5 * g * g - g ** 3)])

    assert np.array_equal(np.diag(gam), np.full(6, g))
    # stiffly accurate: y1 is the sixth stage's argument plus u_6, and the
    # embedded solution that argument
    main = np.append(A[5, :5], 1.0)
    assert np.abs(residuals(main)).max() < 1e-14
    embedded = residuals(np.append(A[5, :5], 0.0))
    assert np.abs(embedded[:4]).max() < 1e-14
    assert np.abs(embedded[4:]).max() > 1e-3
    np.testing.assert_allclose(a_sum, [0.0, 0.386, 0.21, 0.63, 1.0, 1.0],
                               atol=1e-15)


def test_fixed_steps_converge_at_order_4():
    """On y' = G y + b, G a small tridiagonal band, steps of h = 1e-7 s down
    to h / 8 (each step lands on the next output time, with tolerances so
    loose that none is rejected) leave errors against expm that fall by
    16 per halving."""
    from scipy.linalg import expm

    from qpdyn._rodas import integrate

    n, kl, ku = 6, 1, 1
    gen = 1e6 * (np.diag(np.full(n - 1, 0.5), -1) - np.eye(n)
                 + np.diag(np.full(n - 1, 0.3), 1))
    b, y0 = np.linspace(1.0, 2.0, n) * 1e5, np.linspace(1.0, -1.0, n)
    t_end = 1e-6
    aug = np.zeros((n + 1, n + 1))  # y' = G y + b as a homogeneous system
    aug[:n, :n], aug[:n, n] = gen, b
    exact = (expm(t_end * aug) @ np.append(y0, 1.0))[:n]

    def shifted(fac, y):
        return _banded(fac * np.eye(n) - gen, kl, ku, top=kl).copy(
            order="F")

    errors = []
    for k in range(4):
        h = 1e-7 / 2 ** k
        t_eval = h * np.arange(1, round(t_end / h) + 1)
        ys, counts = integrate(lambda y: gen @ y + b, shifted, y0, 0.0,
                               t_eval, 1e10, 1e10, kl, ku, h_max=h)
        assert (counts["steps"], counts["rejected"]) == (t_eval.size, 0)
        errors.append(np.abs(ys[:, -1] - exact).max())
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((13.0 < ratios) & (ratios < 19.0)), ratios


def test_each_piece_record_counts_its_steps(caplog):
    """A piece's DEBUG record holds the interval, the unknowns, the band
    and the integrator's counts: one factor per step tried,
    and five right-hand sides per step tried, one per accepted step and
    one at the start."""
    caplog.set_level(logging.DEBUG, logger="qpdyn.pde_sim")
    evolve(_bundled_mesh("b2", 50), _drive("clamp"))
    pieces = _pieces(caplog)
    assert [(p["t0"], p["t1"]) for p in pieces] == [(0.0, 50e-6),
                                                    (50e-6, 200e-6)]
    for p in pieces:
        assert set(p) == {"t0", "t1", "unknowns", "kl", "ku", "steps",
                          "rejected", "nfev", "nlu"}
        assert p["nlu"] == p["steps"] + p["rejected"]
        assert p["nfev"] == 1 + 5 * p["nlu"] + p["steps"]


@pytest.mark.parametrize("resolution", [20, 50, 200])
@pytest.mark.parametrize("name", ["b1", "b2", "b3"])
def test_band_widths_on_the_electrode_tree(caplog, name, resolution):
    # a 1 ns clamp, then 1 ns of free decay: the clamped junction stays
    # among the unknowns, so both pieces factor one band
    caplog.set_level(logging.DEBUG, logger="qpdyn.pde_sim")
    disc = _bundled_mesh(name, resolution)
    evolve(disc, EvolveSpec(r=R_B1, g=1e-4, t_grid=(2e-9,),
                            injection_density=2e-4, t_inj=1e-9))
    assert [(piece["unknowns"], piece["kl"], piece["ku"])
            for piece in _pieces(caplog)] == [(disc.n_nodes, 3, 3)] * 2


def _banded(dense, kl, ku, top=0):
    """dense in LAPACK band storage: entry (i, j) at row top + ku + i - j,
    column j, below `top` zero rows; dense must lie within the band."""
    n = dense.shape[0]
    assert not np.any(np.tril(dense, -kl - 1)) \
        and not np.any(np.triu(dense, ku + 1))
    out = np.zeros((top + kl + ku + 1, n))
    for d in range(-kl, ku + 1):  # j - i = d sits at row top + ku - d
        out[top + ku - d, max(d, 0):n + min(d, 0)] = np.diagonal(dense, d)
    return out


def _mesh(disc):
    """The record build attached to disc (`_Template`)."""
    return pde_sim._mesh_of(disc)


def _widths(a, order):
    """The band widths (kl, ku) of a[order][:, order]."""
    rank = np.empty(a.shape[0], np.intp)
    rank[order] = np.arange(order.size)
    a = a.tocoo()
    offset = rank[a.row] - rank[a.col]
    return offset.max(), -offset.min()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_band_holds_the_permuted_matrix_at_lapack_positions(seed, warm):
    """The record of a random box-geometry mesh, cold or kept from an
    earlier build: its band order holds every node, the widths are the
    pattern's in that order, and G[order][:, order]'s entries sit at row
    kl + i - j, column j, zeros elsewhere."""
    rng = np.random.Generator(np.random.Philox(seed))
    geom = box_geometry(rng.uniform(size=7))
    build_it = functools.partial(
        build, geom, VortexConfig(1, 2, 1e-6),
        TransportParams(d=10.0 ** rng.uniform(-4, -2.3), s0=50.0),
        int(rng.integers(10, 60)))
    pde_sim._template.cache_clear()
    if warm:
        build_it()
    disc = build_it()
    assert pde_sim._template.cache_info().hits == warm
    mesh = _mesh(disc)
    assert np.array_equal(np.sort(mesh.order), np.arange(disc.n_nodes))
    dense = disc.generator.toarray()[mesh.order][:, mesh.order]
    i, j = np.nonzero(dense)
    assert (mesh.kl, mesh.kl) == ((i - j).max(), (j - i).max())
    packed = mesh.pack(disc.generator.data)
    assert packed.flags.f_contiguous
    assert np.array_equal(packed, _banded(dense, mesh.kl, mesh.kl))


def _check_orders(disc):
    """The record's band widths are reverse Cuthill-McKee's, and its split
    orders every node: the paths' block is one tridiagonal and the border
    is exactly the nodes of degree >= 3."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    mesh, gen, n = _mesh(disc), disc.generator, disc.n_nodes
    rcm = reverse_cuthill_mckee(gen.tocsr(), symmetric_mode=True)
    assert _widths(gen, mesh.order) == _widths(gen, rcm)
    m, chains = mesh.n_path, mesh.chains
    assert np.array_equal(np.sort(chains), np.arange(n))
    degree = np.diff(gen.indptr) - 1
    assert set(chains[m:]) == set(np.flatnonzero(degree >= 3))
    paths = gen[chains[:m]][:, chains[:m]]
    assert _widths(paths, np.arange(m)) == (1, 1)


@pytest.mark.parametrize("resolution", [10, 20, 50, 200, 333, 800])
@pytest.mark.parametrize("name", ["b1", "b2", "b3"])
def test_orders_of_the_bundled_meshes(name, resolution):
    disc = _bundled_mesh(name, resolution)
    _check_orders(disc)
    assert _mesh(disc).kl == 3


@settings(max_examples=60, deadline=None)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       resolution=st.integers(10, 200))
@example(u=[0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5], resolution=10)  # l_cap = 0
def test_orders_of_random_box_meshes(u, resolution):
    _check_orders(build(box_geometry(u), VortexConfig(1, 0, 1e-6),
                        TransportParams(d=1e-3, s0=0.0), resolution))


def _symmetrised_dense(disc, order):
    """The dense W^1/2 (-G) W^-1/2 in the node order `order`."""
    root_w = np.sqrt(disc.areas)
    s_op = -disc.generator.toarray() * root_w[:, None] / root_w
    return s_op[order][:, order]


@pytest.mark.parametrize("name", ["b1", "b2", "b3"])
def test_slowest_mode_parts_are_the_dense_symmetrised_generator(name):
    """In the record's chains order, the tridiagonal, the border couplings and
    S_bb that slowest_mode works with equal, bit for bit, the dense
    W^1/2 (-G) W^-1/2; the paths' block of it is tridiagonal, and the
    border is the two cross points."""
    disc = _bundled_mesh(name, 50)
    mesh = _mesh(disc)
    order, m = mesh.chains, mesh.n_path
    tri, x, g_diag = mesh.symmetrised(disc.generator.data,
                                      np.sqrt(disc.areas)[order])
    want = _symmetrised_dense(disc, order)
    n = disc.n_nodes
    assert sorted(disc.node_segment[k] for k in order[m:]) == [
        "cross_left", "cross_right"]
    assert not np.triu(want[:m, :m], 2).any()
    assert np.array_equal(tri[1], np.diagonal(want))
    assert np.array_equal(tri[2, :m - 1], np.diagonal(want[:m, :m], 1))
    assert np.array_equal(tri[0, 1:], tri[2, :-1])
    assert not tri[2, m - 1:].any() and tri[0, 0] == tri[2, -1] == 0
    assert np.array_equal(x.T, np.triu(want, 1)[:, m:])  # K, S_bb's upper
    s_bb = np.diag(tri[1, m:]) + x[:, m:] + x[:, m:].T
    assert np.array_equal(s_bb, np.triu(want[m:, m:]) + np.triu(
        want[m:, m:], 1).T)
    assert np.array_equal(g_diag, disc.generator.diagonal()[order])
    assert x.shape == (n - m, n)


def test_slowest_mode_hands_lapack_the_dense_tridiagonal_and_border(
        monkeypatch):
    """?pttrf gets the paths' T - sigma I, bit for bit from the dense
    W^1/2 (-G) W^-1/2, with the identity over the border, as contiguous
    arrays that f2py takes without a copy; ?potrf gets the border's Schur
    complement C = S_bb - sigma I - K^T T^-1 K."""
    import scipy.linalg.lapack

    calls = []
    for name in ("dpttrf", "dpotrf"):
        def recorded(*args, real=getattr(scipy.linalg.lapack, name),
                     name=name):
            calls.append((name, [a.copy() for a in args],
                          all(a.flags.contiguous for a in args)))
            return real(*args)

        monkeypatch.setattr(scipy.linalg.lapack, name, recorded)
    disc = _bundled_mesh("b1", 50)
    slowest_mode(disc)
    mesh = _mesh(disc)
    order, m = mesh.chains, mesh.n_path
    want = _symmetrised_dense(disc, order)
    sigma = max(0.0, disc.tp.s0 - 32 * EPS * np.abs(
        disc.generator.diagonal()).max())
    assert [name for name, _, _ in calls] == ["dpttrf", "dpotrf"]
    (_, (d, e), contiguous), (_, (c,), _) = calls
    assert contiguous
    assert sigma > 0
    assert np.array_equal(d[:m], np.diagonal(want)[:m] - sigma)
    assert np.array_equal(d[m:], np.ones(disc.n_nodes - m))
    assert np.array_equal(e[:m - 1], np.diagonal(want[:m, :m], 1))
    assert not e[m - 1:].any()
    t = want[:m, :m] - sigma * np.eye(m)
    t = np.triu(t) + np.triu(t, 1).T
    k = want[:m, m:]
    schur = want[m:, m:] - sigma * np.eye(disc.n_nodes - m) \
        - k.T @ np.linalg.solve(t, k)
    np.testing.assert_allclose(c, schur, rtol=1e-12)


def _band_layouts(monkeypatch, routines):
    """Record, per call, each LAPACK or BLAS routine's name and whether
    its band argument was Fortran-order: routines maps "blas.dgbmv" to
    the band's position among the arguments."""
    import scipy.linalg.blas
    import scipy.linalg.lapack

    layouts = []
    for path, band_arg in routines.items():
        module, name = path.split(".")
        module = getattr(scipy.linalg, module)

        def recorded(*args, real=getattr(module, name), name=name,
                     band_arg=band_arg, **kwargs):
            layouts.append((name, args[band_arg].flags.f_contiguous))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return layouts


def test_evolve_hands_lapack_fortran_order_bands(monkeypatch):
    """?gbmv, ?gbtrf and ?gbtrs take a Fortran-order band as it is (f2py
    copies any other layout on every call), on the full and the clamped
    generator alike."""
    routines = {"blas.dgbmv": 5, "lapack.dgbtrf": 0, "lapack.dgbtrs": 0}
    layouts = _band_layouts(monkeypatch, routines)
    evolve(_bundled_mesh("b1", 50), _drive("clamp"))
    assert {name for name, _ in layouts} == {
        path.split(".")[1] for path in routines}
    assert all(f_order for _, f_order in layouts)


@pytest.mark.parametrize("drive", ["rate", "clamp"])
def test_each_factored_band_is_the_dense_shifted_jacobian(monkeypatch, drive):
    """Every band ?gbtrf factors is, bit for bit and in the order the steps
    make them, the dense 1/(h gamma) I - (G - 2 r diag(y)) of its piece's
    generator in the record's band order, in LAPACK band storage below kl
    zero fill-in rows; a clamped piece's generator has the junction's row
    zeroed."""
    import scipy.linalg.lapack

    from qpdyn import _rodas

    pieces, factored = [], []

    def recording(fun, shifted, *args, **kwargs):
        made = []
        pieces.append(made)

        def recorded(fac, y):
            band = shifted(fac, y)
            made.append((fac, y.copy(), band.copy()))
            return band

        return integrate(fun, recorded, *args, **kwargs)

    def factor(ab, *args, real=scipy.linalg.lapack.dgbtrf, **kwargs):
        factored.append(ab.copy())
        return real(ab, *args, **kwargs)

    integrate = _rodas.integrate
    monkeypatch.setattr(_rodas, "integrate", recording)
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", factor)
    disc, spec = _bundled_mesh("b1", 50), _drive(drive)
    evolve(disc, spec)
    mesh, gen = _mesh(disc), disc.generator.toarray()
    order, kl = mesh.order, mesh.kl
    held = gen.copy()
    held[disc.junction_index] = 0.0
    gens = (held if drive == "clamp" else gen, gen)
    made = [(g, *m) for g, piece in zip(gens, pieces) for m in piece]
    assert len(pieces) == 2 and kl == 3
    assert len(factored) == len(made)
    for (g, fac, y, got), factor in zip(made, factored):
        dense = g[order][:, order]
        want = fac * np.eye(y.size) - (dense - np.diag(2.0 * spec.r * y))
        assert np.array_equal(got, _banded(want, kl, kl, top=kl))
        assert np.array_equal(factor, got)


def _records_made():
    """How many records the cache has made since it was last cleared."""
    return pde_sim._template.cache_info().misses


def _record_arrays(t):
    """The arrays of a `_Template`."""
    return [x for x in t if isinstance(x, np.ndarray)]


def _template_of(geom, resolution):
    return pde_sim._template(pde_sim._shape(geom, resolution)[0])


def _template_bytes(t):
    """The bytes a `_Template` holds: its arrays and its tuple of names
    (the names themselves are shared)."""
    return 8 * len(t.segment) + sum(x.nbytes for x in _record_arrays(t))


class TestBuildTemplate:
    """The per-shape record (`_Template`) build attaches to a mesh."""

    @pytest.mark.parametrize("resolution", [10, 20, 50, 200, 333])
    @pytest.mark.parametrize("name", ["b1", "b2", "b3"])
    def test_a_cold_and_a_warm_build_are_bit_identical(self, name,
                                                       resolution):
        pde_sim._template.cache_clear()
        builds = [_bundled_mesh(name, resolution) for _ in range(2)]
        info = pde_sim._template.cache_info()
        cached = builds[0].n_nodes + builds[0].generator.nnz \
            <= pde_sim._SHAPE_SIZE
        assert (info.hits, info.misses) == ((1, 1) if cached else (0, 0))
        cold, warm = builds
        assert cold.node_segment == warm.node_segment
        assert cold.junction_index == warm.junction_index == 4
        for array in (lambda d: d.areas, lambda d: d.node_y,
                      lambda d: d.generator.data,
                      lambda d: d.generator.indices,
                      lambda d: d.generator.indptr):
            got, want = array(warm), array(cold)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_one_shape_makes_one_record_reused_bit_for_bit(self, b1_geom):
        """Two meshes of one shape with other P, D, s0 and vortex counts
        share one record; slowest_mode and evolve on a warm record give
        what they give on a cold one, to the bit."""
        pde_sim._template.cache_clear()
        args = [(b1_geom, VortexConfig(1, 0, P_REF),
                 TransportParams(d=18e-4, s0=33.0), 50),
                (b1_geom, VortexConfig(2, 3, 4 * P_REF),
                 TransportParams(d=12e-4, s0=0.0), 50)]
        meshes = [build(*a) for a in args]
        assert _records_made() == 1 and _mesh(meshes[0]) is _mesh(meshes[1])
        spec = _drive("rate")
        warm = [(*slowest_mode(disc), _evolve_states(disc, spec, 1e-6))
                for disc in meshes]
        for a, results in zip(args, warm):
            pde_sim._template.cache_clear()
            disc = build(*a)
            cold = (*slowest_mode(disc), _evolve_states(disc, spec, 1e-6))
            assert cold[0] == results[0]
            for got, want in zip(cold[1:], results[1:]):
                assert np.array_equal(got, want)
            info = pde_sim._template.cache_info()
            assert (info.hits, info.misses) == (0, 1)

    def test_meshes_of_one_shape_share_no_writable_array(self, b1_geom):
        """The record's arrays are read-only int32 and share no memory with
        a mesh's; after one mesh's names and indices are changed, a rebuild
        is unchanged."""
        tp = TransportParams(d=18e-4, s0=33.0)
        first, second = (build(b1_geom, VortexConfig(n, 1, P_REF), tp,
                               resolution=50) for n in (1, 2))
        template = _template_of(b1_geom, 50)
        assert template is _mesh(first) is _mesh(second)
        assert pde_sim._template.cache_info().hits >= 1
        assert first.node_segment is not second.node_segment
        for array in (lambda d: d.generator.data,
                      lambda d: d.generator.indices,
                      lambda d: d.generator.indptr, lambda d: d.areas,
                      lambda d: d.node_y):
            assert not np.shares_memory(array(first), array(second))
            for x in _record_arrays(template):
                assert not np.shares_memory(array(first), x)
        assert all(not x.flags.writeable and x.dtype == np.int32
                   for x in _record_arrays(template))
        indices = second.generator.indices.copy()
        first.node_segment[0] = "changed"
        first.generator.indices[:2] = first.generator.indices[1::-1]
        again = build(b1_geom, VortexConfig(1, 1, P_REF), tp, resolution=50)
        assert again.node_segment == second.node_segment
        assert np.array_equal(again.generator.indices, indices)

    def test_other_cell_counts_or_topology_share_no_template(self,
                                                             b1_geom):
        """Other cell counts or another topology (no wide arm) make other
        records; the geometry's scale does not."""
        pde_sim._template.cache_clear()
        no_wide = replace(b1_geom, l_cap=0.0)
        shapes = [pde_sim._shape(geom, res)[0] for geom, res in (
            (b1_geom, 50), (b1_geom, 51), (no_wide, 50))]
        assert len(set(shapes)) == 3
        templates = [pde_sim._template(shape) for shape in shapes]
        assert len({id(t) for t in templates}) == 3
        assert _records_made() == 3
        # one shape, whatever the rates and the scale of the geometry
        scaled = replace(b1_geom, **{f: getattr(b1_geom, f) * 1.1 for f in (
            "w_wire", "l_wire", "h_cap", "l_half_gap", "w_cap", "l_cap")})
        assert pde_sim._shape(scaled, 50)[0] == shapes[0]
        assert _template_of(scaled, 50) is templates[0]

    def test_the_cache_keeps_its_entry_and_byte_bounds(self, b1_geom):
        """64 shapes of at most _SHAPE_SIZE rows plus stored entries are
        kept, each record in at most 36 bytes per row, 16 per entry and 12
        per chain and border coupling, so at most 36 per row and entry and
        36 x _SHAPE_SIZE x 64 bytes in all.  A larger shape is not kept."""
        pde_sim._template.cache_clear()
        tp = TransportParams(d=18e-4, s0=33.0)
        resolutions = range(10, 15 + pde_sim._SHAPES)
        meshes = [build(b1_geom, VortexConfig(1, 0, P_REF), tp,
                        resolution=res) for res in resolutions]
        assert pde_sim._template.cache_info().currsize == pde_sim._SHAPES
        total = 0
        for res, disc in zip(resolutions[-pde_sim._SHAPES:],
                             meshes[-pde_sim._SHAPES:]):
            size = disc.n_nodes + disc.generator.nnz
            assert size <= pde_sim._SHAPE_SIZE
            t = _template_of(b1_geom, res)
            assert t is _mesh(disc)
            held = _template_bytes(t)
            assert held <= 36 * disc.n_nodes + 16 * disc.generator.nnz \
                + 12 * (t.cells.size + t.couplings.shape[1])
            assert held <= 36 * size
            total += held
        assert total <= 36 * pde_sim._SHAPE_SIZE * pde_sim._SHAPES
        assert _records_made() == len(meshes)
        big = build(b1_geom, VortexConfig(1, 0, P_REF), tp, resolution=300)
        assert big.n_nodes + big.generator.nnz > pde_sim._SHAPE_SIZE
        info = pde_sim._template.cache_info()
        assert (info.currsize, info.misses) == (pde_sim._SHAPES, len(meshes))

    def test_max_nodes_is_refused_before_anything_is_allocated(
            self, b1_geom, transport, monkeypatch):
        import tracemalloc

        def no_template(shape):
            raise AssertionError("a template was made")

        monkeypatch.setattr(pde_sim, "_new_template", no_template)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidResolutionError,
                               match="needs more than 1000000 mesh nodes"):
                build(b1_geom, VortexConfig(1, 0, P_REF), transport,
                      resolution=10**13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def _solver_bytes(t):
    """The bytes of the record's solver part, what the pattern-keyed plans
    held without their key: the band order and scatter index and the
    split's chains, slots and couplings."""
    return sum(x.nbytes for x in (t.order, t.band_at, t.chains, t.at,
                                  t.couplings))


class TestBandPlan:
    """The solver part of the record: the band order, scatter index and
    width `evolve` packs with, and the split `slowest_mode` takes."""

    @pytest.mark.parametrize("first, second", [
        (("b1", 50), ("b3", 50)), (("b1", 50), ("b1", 51))],
        ids=["b1-b3", "res50-res51"])
    def test_other_shapes_share_no_plan(self, first, second):
        """Meshes of other shapes get other records, and slowest_mode and
        a clamped evolve make none."""
        pde_sim._template.cache_clear()
        meshes = [_bundled_mesh(*first), _bundled_mesh(*second)]
        assert _records_made() == 2
        assert _mesh(meshes[0]) is not _mesh(meshes[1])
        for disc in meshes:
            slowest_mode(disc)
            evolve(disc, _drive("clamp"), tol=1e-6)
        assert _records_made() == 2

    def test_the_cache_keeps_its_entry_and_byte_bounds(self, b1_geom):
        """The record's solver part holds at most 20 bytes per row and
        entry, as the pattern-keyed plans did with their key; a rebuild of
        each of the 64 kept shapes reuses its record, and a larger shape
        is made afresh on every build."""
        pde_sim._template.cache_clear()
        tp = TransportParams(d=18e-4, s0=33.0)
        resolutions = range(10, 15 + pde_sim._SHAPES)
        meshes = [build(b1_geom, VortexConfig(1, 0, P_REF), tp,
                        resolution=res) for res in resolutions]
        assert pde_sim._template.cache_info().currsize == pde_sim._SHAPES
        for res, disc in zip(resolutions[-pde_sim._SHAPES:],
                             meshes[-pde_sim._SHAPES:]):
            size = disc.n_nodes + disc.generator.nnz
            assert size <= pde_sim._SHAPE_SIZE
            assert _solver_bytes(_mesh(disc)) <= 20 * size
            again = build(b1_geom, VortexConfig(0, 1, P_REF), tp,
                          resolution=res)
            assert _mesh(again) is _mesh(disc)
        info = pde_sim._template.cache_info()
        assert (info.hits, info.misses) == (pde_sim._SHAPES, len(meshes))
        big, again = (build(b1_geom, VortexConfig(1, 0, P_REF), tp,
                            resolution=300) for _ in range(2))
        assert big.n_nodes + big.generator.nnz > pde_sim._SHAPE_SIZE
        assert _mesh(again) is not _mesh(big)
        info = pde_sim._template.cache_info()
        assert (info.currsize, info.hits, info.misses) == (
            pde_sim._SHAPES, pde_sim._SHAPES, len(meshes))

    def test_meshes_of_one_shape_share_no_writable_array(self, b1_geom):
        """After one mesh's indices are changed, the record's orders are
        unchanged, another mesh of its shape still solves, and the changed
        mesh is refused."""
        tp = TransportParams(d=18e-4, s0=33.0)
        first, second = (build(b1_geom, VortexConfig(n, 1, P_REF), tp,
                               resolution=50) for n in (1, 2))
        slowest_mode(first)
        mesh = _mesh(second)
        assert mesh is _mesh(first)
        for array in (lambda d: d.generator.data,
                      lambda d: d.generator.indices,
                      lambda d: d.generator.indptr):
            assert not np.shares_memory(array(first), array(second))
        assert not any(x.flags.writeable for x in (
            mesh.order, mesh.band_at, mesh.chains, mesh.at, mesh.couplings))
        indices = second.generator.indices.copy()
        order, chains = mesh.order.copy(), mesh.chains.copy()
        first.generator.indices[:2] = first.generator.indices[1::-1]
        assert np.array_equal(second.generator.indices, indices)
        assert np.array_equal(mesh.order, order)
        assert np.array_equal(mesh.chains, chains)
        slowest_mode(second)
        evolve(second, _drive("clamp"), tol=1e-6)
        # the changed pattern is not the one the record describes
        with pytest.raises(InvalidParameterError, match="pattern"):
            slowest_mode(first)
        with pytest.raises(InvalidParameterError, match="pattern"):
            evolve(first, _drive("clamp"), tol=1e-6)

    @pytest.mark.parametrize("clamped", [False, True])
    def test_band_helper_holds_on_a_cold_and_a_warm_plan(self, clamped):
        """b2's generator, whole or with its junction's row zeroed as a
        clamp leaves it, packed by a cold record and then by the same
        record kept: one band of half width 3 either way."""
        pde_sim._template.cache_clear()
        records = []
        for warm in (False, True):
            disc = _bundled_mesh("b2", 50)
            assert pde_sim._template.cache_info().hits == warm
            mesh = _mesh(disc)
            data = disc.generator.data
            dense = disc.generator.toarray()
            if clamped:
                data = np.where(mesh.indices == disc.junction_index, 0.0,
                                data)
                dense[disc.junction_index] = 0.0
            dense = dense[mesh.order][:, mesh.order]
            packed = mesh.pack(data)
            assert packed.flags.f_contiguous
            assert np.array_equal(packed, _banded(dense, mesh.kl, mesh.kl))
            records.append(mesh)
        assert records[0] is records[1]
        assert mesh.kl == 3 and mesh.order.size == disc.n_nodes


def _coupled(disc, pairs, flux=1e-3):
    """disc's generator with an extra edge of `flux` (m^4/s, as build's
    D w / dx) between each pair of nodes: conservative, and area-weighted
    symmetric."""
    import scipy.sparse as sp

    i, j = np.array(pairs).T
    a = disc.areas
    extra = sp.coo_matrix((np.concatenate((flux / a[i], flux / a[j],
                                           -flux / a[i], -flux / a[j])),
                           (np.concatenate((i, j, i, j)),
                            np.concatenate((j, i, i, j)))),
                          shape=disc.generator.shape)
    gen = (disc.generator + extra).tocsc()
    gen.sort_indices()
    return gen


def _altered(disc, how):
    """disc with its generator changed `how`: by dataclasses.replace (no
    record), or in a copy that keeps build's record."""
    import copy

    seg, flip = disc.node_segment, np.arange(disc.n_nodes)[::-1]
    gen = {"replaced": lambda: disc.generator,
           "cycle": lambda: _coupled(disc, [
               (seg.index(a), seg.index(b)) for a, b in (
                   ("pad_left", "pad_right"),
                   ("arm_left_wide_end", "arm_right_wide_end"))]),
           "degree-4": lambda: _coupled(disc, [
               (disc.junction_index, seg.index(end)) for end in (
                   "arm_left_wide_end", "arm_right_wide_end")]),
           "relabelled": lambda: disc.generator[flip][:, flip],
           "csr": lambda: disc.generator.tocsr()}[how.removeprefix("kept-")]()
    if how.startswith("kept-"):
        disc = copy.copy(disc)
        object.__setattr__(disc, "generator", gen)
        return disc
    return replace(disc, generator=gen)


@pytest.mark.parametrize("how", [
    "replaced", "cycle", "degree-4", "kept-cycle", "kept-relabelled",
    "kept-csr"])
def test_a_generator_its_record_does_not_describe_is_refused(how):
    """slowest_mode and evolve refuse, typed, a Discretization that
    dataclasses.replace made (it has no record, even with the same
    generator) or whose generator's stored pattern is not its record's: a
    hand-made coupling (a cycle through both pads, or the junction joined
    to both arm ends), the nodes relabelled (the same nnz), or the same
    pattern compressed by rows, which would be solved transposed."""
    disc = _bundled_mesh("b1", 20)
    slowest_mode(disc)
    altered = _altered(disc, how)
    if how == "replaced":  # the record is no field
        assert altered == disc
    for solve in (slowest_mode, lambda d: evolve(d, _drive("rate"))):
        with pytest.raises(InvalidParameterError,
                           match="stored pattern of the mesh build made"):
            solve(altered)
    assert slowest_mode(disc)[0] > 0  # the original still solves


def _smallest_banded_eigenvalue(disc):
    """The smallest eigenvalue of S = W^1/2 (-G) W^-1/2 by LAPACK's banded
    symmetric eigensolver (?sbevx through eig_banded), on S's upper band
    in scipy's reverse Cuthill-McKee order, built here from the sparse
    generator: nothing is shared with slowest_mode's factor."""
    import scipy.linalg
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    root_w = np.sqrt(disc.areas)
    s_op = sp.diags(root_w) @ (-disc.generator) @ sp.diags(1 / root_w)
    order = reverse_cuthill_mckee(disc.generator.tocsr(),
                                  symmetric_mode=True)
    s_op = s_op.tocsr()[order][:, order]
    kd = 3
    band = np.zeros((kd + 1, disc.n_nodes))
    for k in range(kd + 1):  # row k holds the diagonal j - i = kd - k
        band[k, kd - k:] = s_op.diagonal(kd - k)
    assert not sp.triu(s_op, kd + 1).count_nonzero()
    return scipy.linalg.eig_banded(band, eigvals_only=True, select="i",
                                   select_range=(0, 0))[0]


@pytest.mark.parametrize("name, scale, counts, d, s0, resolution", [
    ("b1", 0.85, (1, 0), 12e-4, 33.0, 200),
    ("b2", 1.2, (3, 5), 25e-4, 80.0, 200),
    ("b3", 1.0, (6, 6), 18e-4, 0.0, 200),
    ("b2", 0.95, (2, 3), 18e-4, 50.0, 800)])
def test_fine_meshes_agree_with_a_banded_eigensolver(
        caplog, name, scale, counts, d, s0, resolution):
    """slowest_mode's rate lies within its residual bar (its residual, if
    it stalled) of the smallest eigenvalue that eig_banded finds, on
    vortex-modes-like meshes at resolution 200 and one at 800."""
    from qpdyn.geometry import scaled

    disc = build(scaled(_bundled(name), scale),
                 VortexConfig(*counts, 0.1e-4), TransportParams(d=d, s0=s0),
                 resolution=resolution)
    caplog.set_level(logging.DEBUG, logger="qpdyn.pde_sim")
    rate = slowest_mode(disc)[0]
    record = caplog.records[-1].args
    assert record["border"] == 2 and record["terms"] == 4
    assert abs(rate - _smallest_banded_eigenvalue(disc)) \
        <= max(record["bar"], record["residual"])


def _spectral_states(disc, spec):
    """The exact (n_times, n_nodes) states of evolve at r = 0, at the
    times t > 0 of spec.t_grid.

    On each drive piece dx/dt = G x + b with b constant, and
    S = W^1/2 (-G) W^-1/2 = Q Lambda Q^T (dense eigh) is symmetric, so
    y = W^1/2 x is y(t0 + tau) = Q [e^(-Lambda tau) Q^T y(t0)
    - expm1(-Lambda tau) / Lambda Q^T W^1/2 b].  A clamped junction
    leaves the unknowns, which keeps a symmetric principal submatrix of S.
    Nothing here is shared with the integrator, the banded LU or the band
    order."""
    gen, n, jj = disc.generator.toarray(), disc.n_nodes, disc.junction_index
    root_w = np.sqrt(disc.areas)
    clamp = spec.injection_density is not None
    x = np.full(n, float(spec.x_init))
    if clamp:
        x[jj] = spec.injection_density
    t_grid = np.asarray(spec.t_grid)
    states = np.empty((t_grid.size, n))
    t0 = 0.0
    for t1, driven in ((spec.t_inj, True), (np.inf, False)):
        keep, b = np.arange(n), np.full(n, spec.g)
        if driven and clamp:
            keep = keep[keep != jj]
            b += gen[:, jj] * spec.injection_density
        elif driven:
            b[jj] += spec.injection_rate
        w = root_w[keep]
        lam, q = np.linalg.eigh(-gen[np.ix_(keep, keep)] * w[:, None] / w)
        c0, cb = q.T @ (w * x[keep]), q.T @ (w * b[keep])

        def at(tau):
            """The piece's state tau after t0."""
            with np.errstate(divide="ignore", invalid="ignore"):
                forced = np.where(lam == 0.0, tau,
                                  -np.expm1(-lam * tau) / lam)
            out = x.copy()
            out[keep] = q @ (np.exp(-lam * tau) * c0 + forced * cb) / w
            return out

        piece = (t_grid > t0) & (t_grid <= t1)
        states[piece] = [at(t - t0) for t in t_grid[piece]]
        if driven:
            x, t0 = at(t1 - t0), t1
    return states


@settings(max_examples=100, deadline=None)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       n_left=st.integers(0, 6), n_right=st.integers(0, 6),
       log_p=st.floats(-7.0, -4.0), log_d=st.floats(-4.0, -2.3),
       s0=st.sampled_from([0.0]) | st.floats(0.0, 100.0),
       resolution=st.integers(10, 30), clamp=st.booleans(),
       x_init=st.sampled_from([0.0, 1e-4]), g=st.sampled_from([0.0, 1.0]),
       log_inj=st.floats(-2.0, 0.0))
def test_linear_evolve_matches_the_spectral_propagator(
        u, n_left, n_right, log_p, log_d, s0, resolution, clamp, x_init, g,
        log_inj):
    """evolve at r = 0 against the mesh's exact propagator, at every node,
    on a rate or clamp drive of 0.01 to 1 tau_D and its release out to
    11 t_inj.

    The bound: the integrator accepts a step when the RMS over the n
    unknowns of err_i / (atol + rtol max(|y_i|, |y1_i|)) is at most 1, so
    one node may take sqrt(n) of that scale.  At r = 0 the system is
    linear and dissipative (S is positive semidefinite), so later steps do
    not amplify a step's error; the error estimate is of lower order than
    the order-4 step, and its room is taken to cover the sum over steps,
    with steps aimed at err ~ 0.13.  So each node stays
    within sqrt(n) (atol + rtol |x_ref|) of the reference, with
    rtol = tol = 1e-8 and atol = 1e-3 tol times evolve's density scale."""
    geom = box_geometry(u)
    d = 10.0 ** log_d
    disc = build(geom, VortexConfig(n_left, n_right, 10.0 ** log_p),
                 TransportParams(d=d, s0=s0), resolution)
    t_inj = 10.0 ** log_inj * geom.l_wire ** 2 / d
    drive = {"injection_density": 2e-4} if clamp \
        else {"injection_rate": 1e4}
    spec = EvolveSpec(r=0.0, g=g, x_init=x_init, t_inj=t_inj, t_grid=tuple(
        t_inj * np.array([0.5, 1.0, 1.1, 1.5, 2.5, 4.0, 7.0, 11.0])),
        **drive)
    tol = 1e-8
    got = _evolve_states(disc, spec, tol)
    want = _spectral_states(disc, spec)
    scale = max(x_init, spec.injection_density or 0.0,
                spec.injection_rate * t_inj, g * spec.t_grid[-1])
    bound = np.sqrt(disc.n_nodes) * tol * (1e-3 * scale + np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


class TestFactorizedDynamics:
    def test_linear_case_is_exact(self, disc_one_vortex):
        rep = factorized_dynamics_check(disc_one_vortex, r=0.0, g=0.0,
                                        x_init_amp=1e-4)
        assert rep.max_rel_deviation < 1e-6

    def test_reference_regime_within_five_percent(self, disc_one_vortex):
        rep = factorized_dynamics_check(disc_one_vortex, r=R_B1, g=1e-4,
                                        x_init_amp=1e-4)
        assert rep.within_validity
        assert rep.max_rel_deviation < 0.05

    def test_strong_recombination_flagged(self, b1_geom):
        tp = TransportParams(d=18e-4, s0=2.0)
        disc = build(b1_geom, VortexConfig(0, 0, 0.0), tp, resolution=50)
        rep = factorized_dynamics_check(disc, r=R_B1, g=0.0,
                                        x_init_amp=3e-4, t_end=10e-3)
        assert not rep.within_validity
        assert rep.regime_ratio > 10
        assert rep.max_rel_deviation >= 0.0

    def test_zero_start_with_generation_is_compared(self, disc_one_vortex):
        rep = factorized_dynamics_check(disc_one_vortex, r=R_B1, g=1e-4,
                                        x_init_amp=0.0)
        assert rep.regime_ratio == 0.0 and rep.within_validity
        assert 0.0 < rep.max_rel_deviation < 0.05

    def test_traces_held_at_zero_are_refused(self, b1_geom, transport):
        disc = build(b1_geom, VortexConfig(1, 0, P_REF), transport,
                     resolution=20)
        with pytest.raises(InvalidParameterError,
                           match="no deviation to measure"):
            factorized_dynamics_check(disc, r=R_B1, g=0.0, x_init_amp=0.0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_points": 1}, "n_points must be an integer >= 2, got 1"),
        ({"n_points": np.nan}, "n_points must be an integer >= 2, got nan"),
        ({"n_points": 2.0}, "n_points must be an integer >= 2, got 2.0"),
        ({"t_end": 1e-4}, "t_end must be finite and above t_window_start "
                          "= 0.0002, so that the window holds a point; "
                          "got 0.0001"),
        ({"t_end": 200e-6}, "got 0.0002"),
        ({"t_end": np.inf}, "got inf"),
        ({"t_end": np.nan}, "got nan")])
    def test_a_window_without_points_is_refused(self, disc_one_vortex,
                                                kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            factorized_dynamics_check(disc_one_vortex, r=R_B1, g=1e-4,
                                      x_init_amp=1e-4, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"x_init_amp": -1e-4},
         "x_init_amp must be finite and >= 0, got -0.0001"),
        ({"x_init_amp": np.nan},
         "x_init_amp must be finite and >= 0, got nan"),
        ({"x_init_amp": np.inf},
         "x_init_amp must be finite and >= 0, got inf"),
        ({"r": -1.0}, "r must be finite and >= 0, got -1.0"),
        ({"g": np.nan}, "g must be finite and >= 0, got nan")])
    def test_rates_and_amplitude_are_refused_by_their_own_names(
            self, monkeypatch, disc_one_vortex, kwargs, message):
        """Before the slow mode is even sought."""
        def not_reached(disc):
            raise AssertionError("slowest_mode ran")

        monkeypatch.setattr(pde_sim, "slowest_mode", not_reached)
        with pytest.raises(InvalidParameterError) as refused:
            factorized_dynamics_check(
                disc_one_vortex, **{"r": R_B1, "g": 1e-4, "x_init_amp": 1e-4,
                                    **kwargs})
        assert str(refused.value) == message

    def test_pure_recombination_without_t_end_is_refused(self, b1_geom):
        """s = g = 0 has an infinite tail time, so no default t_end: the
        refusal names it, and nothing warns on the way."""
        import warnings

        disc = build(b1_geom, VortexConfig(0, 0, 0.0),
                     TransportParams(d=18e-4, s0=0.0), resolution=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidParameterError,
                               match="no tail time tau_ss .* give t_end"):
                factorized_dynamics_check(disc, r=R_B1, g=0.0,
                                          x_init_amp=1e-4)
        assert caught == []
        # with a t_end, the 0-D model is the pure-recombination hyperbola
        rep = factorized_dynamics_check(disc, r=R_B1, g=0.0, x_init_amp=1e-4,
                                        t_end=1e-3)
        assert rep.mode_rate == 0.0 and rep.max_rel_deviation < 1e-6

    @pytest.mark.parametrize("t_end", [None, 1e-3])
    def test_no_decay_channel_is_degenerate(self, b1_geom, t_end):
        disc = build(b1_geom, VortexConfig(0, 0, 0.0),
                     TransportParams(d=18e-4, s0=0.0), resolution=20)
        with pytest.raises(DegenerateSystemError, match="r = s = 0"):
            factorized_dynamics_check(disc, r=0.0, g=1e-4, x_init_amp=1e-4,
                                      t_end=t_end)

    def test_loads_no_integrator_module(self):
        """The 0-D model is dynamics' closed form, so a check on a b1 mesh
        in a fresh interpreter loads no scipy.integrate."""
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "from importlib import resources\n"
            "from qpdyn.eigenmode import TransportParams, VortexConfig\n"
            "from qpdyn.geometry import load_geometry\n"
            "from qpdyn.pde_sim import build, factorized_dynamics_check\n"
            "geom = load_geometry(resources.files('qpdyn.data')\n"
            "                     / 'geometry_b1_like.cfg')\n"
            "disc = build(geom, VortexConfig(1, 0, 0.067e-4),\n"
            "             TransportParams(d=18e-4, s0=33.0), resolution=20)\n"
            "rep = factorized_dynamics_check(disc, r=1 / 170e-9, g=1e-4,\n"
            "                                x_init_amp=1e-4)\n"
            "print(rep.max_rel_deviation < 0.05,\n"
            "      'scipy.integrate' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True,
                              env=subprocess_env())
        assert done.stdout.split() == ["True", "False"]
