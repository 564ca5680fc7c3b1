import itertools
from dataclasses import replace

import numpy as np
import pytest

from qpdyn.dynamics import RateParams, integrate_ode
from qpdyn.eigenmode import TransportParams, VortexConfig, smallest_root
from qpdyn.errors import InvalidParameterError, InvalidResolutionError
from qpdyn.pde_sim import (EvolveSpec, build, evolve,
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
        assert (mesh.pad_left_index, mesh.pad_right_index,
                mesh.junction_index) == (0, 1, 4)

    def test_nodes_per_segment_follow_the_cells_rule(self, mesh):
        geom, res = mesh.geom, mesh.resolution
        counts = {seg: mesh.node_segment.count(seg)
                  for seg in set(mesh.node_segment)}
        for seg, dx in mesh.dx_by_segment.items():
            length = _length(geom, seg)
            cells = max(2, int(round(res * length / geom.l_wire)))
            assert counts.pop(seg) == cells - 1
            assert dx == length / cells
        assert set(counts.values()) == {1}  # the lumped nodes

    def test_node_y_is_k_dx_along_each_chain(self, mesh):
        seg = np.array(mesh.node_segment)
        for name, dx in mesh.dx_by_segment.items():
            y = mesh.node_y[seg == name]
            assert np.array_equal(y, np.arange(1, y.size + 1) * dx)

    def test_pattern_is_diagonal_plus_both_edge_directions(self, mesh):
        gen, n = mesh.generator, mesh.n_nodes
        n_edges = sum(mesh.node_segment.count(seg) + 1
                      for seg in mesh.dx_by_segment)
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
        for pad, n_vortices in ((mesh.pad_left_index, vc.n_left),
                                (mesh.pad_right_index, vc.n_right)):
            sink[pad] += n_vortices * vc.trapping_power / mesh.areas[pad]
        np.fill_diagonal(gen, 0.0)
        np.testing.assert_allclose(diag, -gen.sum(axis=1) - sink,
                                   rtol=1e-14, atol=0)

    def test_trapping_changes_only_the_pad_entry(self, b1_geom, transport):
        bare, trapped = (build(b1_geom, VortexConfig(n, 0, P_REF), transport,
                               resolution=37) for n in (0, 3))
        pad = bare.pad_left_index
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
        jj, full = evolve(disc, EvolveSpec(r=0.0, g=0.0, t_grid=t_grid,
                                           x_init=1e-4), return_full=True)
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
        pad = mode[disc.pad_left_index]
        assert pad < 0.6  # density at the trapping pads well below junction

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
        jj, full = evolve(disc_free, EvolveSpec(r=0.0, g=0.0, t_grid=t_grid,
                                                x_init=x0),
                          return_full=True, tol=1e-10)
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
