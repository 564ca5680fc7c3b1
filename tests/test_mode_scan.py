"""The vectorized mode-equation scan against pinned roots and its own
scalar path."""

import math
from importlib import resources

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdyn import eigenmode
from qpdyn.eigenmode import (TransportParams, VortexConfig, eigen_residual,
                             field_sweep, small_p_rate, smallest_root,
                             step_sequence)
from qpdyn.errors import InvalidParameterError, NoRootFoundError
from qpdyn.geometry import DeviceGeometry, derive, load_geometry
from qpdyn.pde_sim import build, slowest_mode

P_REF = 0.067e-4  # m^2/s
TP = TransportParams(d=18e-4, s0=1.0 / 30e-3)

# (n_left, n_right, bracket lo, bracket hi, z) on the bundled geometries,
# recorded from the point-by-point scalar scan that the array scan
# replaced.  Both scan the same grids, so brackets must match exactly; z
# may move by a few ulp where numpy's array and scalar trig kernels round
# differently.
PARENT_ROOTS = {
    ('b1', 'reduced'): [
        (1, 0, 0.04956532970942322, 0.056646090953626535, 0.04965593484320865),
        (2, 1, 0.07788837468623648, 0.08496913593043981, 0.08486596611857018),
        (0, 5, 0.09913065841884644, 0.10621141966304976, 0.10062274995239225),
        (6, 2, 0.1274537033956597, 0.13453446463986302, 0.12854889469566122),
        (3, 4, 0.12037294215145639, 0.1274537033956597, 0.1241099344124148),
        (1, 1, 0.06372685219782985, 0.07080761344203317, 0.07043803989793325),
        (3, 3, 0.11329218090725307, 0.12037294215145639, 0.11641102356958775),
        (6, 6, 0.14869598712826965, 0.15577674837247296, 0.15400998695413093),
        (60, 60, 0.25490740579131943, 0.26198816703552275, 0.25565119878919995),
    ],
    ('b1', 'full'): [
        (1, 0, 0.042484568465219905, 0.04956532970942322, 0.04955049330155886),
        (2, 1, 0.07788837468623648, 0.08496913593043981, 0.08472064783236834),
        (0, 5, 0.09913065841884644, 0.10621141966304976, 0.10022691448627621),
        (6, 2, 0.1274537033956597, 0.13453446463986302, 0.1282624399344977),
        (3, 4, 0.12037294215145639, 0.1274537033956597, 0.12391409878840665),
        (1, 1, 0.06372685219782985, 0.07080761344203317, 0.07032818019121789),
        (3, 3, 0.11329218090725307, 0.12037294215145639, 0.11623246837736823),
        (6, 6, 0.14869598712826965, 0.15577674837247296, 0.15378081986093964),
        (60, 60, 0.25490740579131943, 0.26198816703552275, 0.2553667940955531),
    ],
    ('b2', 'reduced'): [
        (1, 0, 0.05185018116098265, 0.05925734975540874, 0.0559468657771085),
        (2, 1, 0.08888602413311311, 0.09629319272753921, 0.09590580922528505),
        (0, 5, 0.11110752991639139, 0.11851469851081749, 0.11385846907599764),
        (6, 2, 0.14073620429409578, 0.14814337288852186, 0.1460545955017819),
        (3, 4, 0.14073620429409578, 0.14814337288852186, 0.14095636202256215),
        (1, 1, 0.07407168694426093, 0.08147885553868703, 0.07949064663390996),
        (3, 3, 0.12592186710524358, 0.13332903569966967, 0.13207052141267606),
        (6, 6, 0.17036487867180014, 0.17777204726622622, 0.1757207297920019),
        (60, 60, 0.28887957618261767, 0.29628674477704375, 0.2936063811437693),
    ],
    ('b2', 'full'): [
        (1, 0, 0.05185018116098265, 0.05925734975540874, 0.05585183085797281),
        (2, 1, 0.08888602413311311, 0.09629319272753921, 0.09576890957795525),
        (0, 5, 0.11110752991639139, 0.11851469851081749, 0.11352244121755761),
        (6, 2, 0.14073620429409578, 0.14814337288852186, 0.14579275563325314),
        (3, 4, 0.14073620429409578, 0.14814337288852186, 0.1407674638465923),
        (1, 1, 0.07407168694426093, 0.08147885553868703, 0.07938555439724955),
        (3, 3, 0.12592186710524358, 0.13332903569966967, 0.13189763769512305),
        (6, 6, 0.17036487867180014, 0.17777204726622622, 0.17549637846031604),
        (60, 60, 0.28887957618261767, 0.29628674477704375, 0.29333956637592773),
    ],
    ('b3', 'reduced'): [
        (1, 0, 0.037732993325420516, 0.044021825379657264, 0.03881400012878449),
        (2, 1, 0.06288832154236752, 0.06917715359660427, 0.06605771929828326),
        (0, 5, 0.07546598565084103, 0.08175481770507778, 0.0781857254148582),
        (6, 2, 0.09433248181355129, 0.10062131386778804, 0.09934873718337345),
        (3, 4, 0.09433248181355129, 0.10062131386778804, 0.0959658052665165),
        (1, 1, 0.05031065743389402, 0.056599489488130775, 0.054932726064798154),
        (3, 3, 0.08804364975931453, 0.09433248181355129, 0.09013815615235476),
        (6, 6, 0.11319897797626155, 0.1194878100304983, 0.11840216716171975),
        (60, 60, 0.19495379468133933, 0.20124262673557608, 0.1950070322239401),
    ],
    ('b3', 'full'): [
        (1, 0, 0.037732993325420516, 0.044021825379657264, 0.03869680122816568),
        (2, 1, 0.06288832154236752, 0.06917715359660427, 0.06591252619329609),
        (0, 5, 0.07546598565084103, 0.08175481770507778, 0.07767939305745637),
        (6, 2, 0.09433248181355129, 0.10062131386778804, 0.09903381983766944),
        (3, 4, 0.09433248181355129, 0.10062131386778804, 0.0957796130720355),
        (1, 1, 0.05031065743389402, 0.056599489488130775, 0.05482825613507038),
        (3, 3, 0.08804364975931453, 0.09433248181355129, 0.08997099604297845),
        (6, 6, 0.11319897797626155, 0.1194878100304983, 0.11819032240573998),
        (60, 60, 0.18866496262710258, 0.19495379468133933, 0.19473163966801155),
    ],
}


def bundled(name):
    return load_geometry(resources.files("qpdyn.data")
                         / f"geometry_{name}_like.cfg")


@pytest.mark.parametrize("geom_name,form", sorted(PARENT_ROOTS))
def test_roots_match_pinned_scalar_scan(geom_name, form):
    geom = bundled(geom_name)
    for nl, nr, lo, hi, z in PARENT_ROOTS[geom_name, form]:
        sol = smallest_root(geom, VortexConfig(nl, nr, P_REF), TP, form=form)
        assert sol.bracket == (lo, hi), (nl, nr)
        assert sol.z == pytest.approx(z, rel=1e-13, abs=0), (nl, nr)


@pytest.mark.parametrize("form", ["reduced", "full"])
@pytest.mark.parametrize("counts", [(2, 1), (3, 3), (0, 5)])
def test_array_residual_equals_scalar(form, counts):
    vc = VortexConfig(*counts, P_REF)
    zs = np.linspace(1e-3, 1.6, 200)
    for name in ("b1", "b2", "b3"):
        geom = bundled(name)
        groups = eigenmode._groups(geom, vc, TP)
        grid = eigenmode._mode_terms(zs, groups, form)[2]
        scalar = [eigen_residual(float(z), geom, vc, TP, form) for z in zs]
        # equal up to the few-ulp rounding differences between numpy's
        # vector and scalar trig kernels
        np.testing.assert_allclose(grid, scalar, rtol=1e-13, atol=0)


@pytest.mark.parametrize("form", ["reduced", "full"])
@pytest.mark.parametrize("pads", ["equal", "alternating"])
def test_sweep_rows_equal_per_field_roots(pads, form):
    geom = bundled("b2")
    b_grid = np.linspace(0.0, 150e-7, 41)
    rows = field_sweep(geom, TP, P_REF, b_grid, b_k=11e-7,
                       vortex_density_slope=0.3 / 1e-7, pads=pads, form=form)
    assert len({(nl, nr) for _, nl, nr, _ in rows}) < len(rows)
    for (b, nl, nr, s), b_in in zip(rows, b_grid):
        assert b == b_in
        assert s == smallest_root(geom, VortexConfig(nl, nr, P_REF), TP,
                                  form=form).s


@pytest.mark.parametrize("form", ["reduced", "full"])
def test_scan_evaluates_each_grid_in_one_call(monkeypatch, form):
    """A per-point scan would show up as scalar calls outside Brent's
    polish and the Newton quality estimate."""
    calls, inside = [], []
    mode_terms = eigenmode._mode_terms

    def counted(z, *args):
        calls.append((np.ndim(z) > 0, inside[-1] if inside else None))
        return mode_terms(z, *args)

    def tagged(name, fn):
        def run(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    geom = bundled("b1")
    edges, _ = eigenmode._scan_plan(geom, form)
    n_intervals = len(edges) - 1
    monkeypatch.setattr(eigenmode, "_mode_terms", counted)
    monkeypatch.setattr(eigenmode, "_brent",
                        tagged("brent", eigenmode._brent))
    monkeypatch.setattr(eigenmode, "_newton_quality",
                        tagged("newton", eigenmode._newton_quality))
    smallest_root(geom, VortexConfig(2, 1, P_REF), TP, form=form)
    grids = [who for is_array, who in calls if is_array]
    points = [who for is_array, who in calls if not is_array]
    assert 1 <= len(grids) <= n_intervals
    assert set(grids) == {None}
    assert set(points) <= {"brent", "newton"}
    assert points.count("newton") == 3


def box_geometry(u):
    """Geometry from seven uniforms in [0, 1], inside the box that raises
    no geometry warning: w_wire/l_wire < 0.2 and
    l_half_gap < 0.5 min(h_cap, l_wire)."""
    l_wire, h_cap = 100e-6 * 4.0 ** u[0], 20e-6 * 10.0 ** u[2]
    return DeviceGeometry(
        w_wire=l_wire * (0.02 + 0.17 * u[1]), l_wire=l_wire, h_cap=h_cap,
        l_half_gap=(0.01 + 0.48 * u[3]) * min(h_cap, l_wire),
        w_cap=2e-6 * 50.0 ** u[4],
        l_cap=0.0 if u[5] < 0.2 else 20e-6 * 40.0 ** ((u[5] - 0.2) / 0.8),
        s_pad=1e-9 * 10.0 ** u[6])


geometries = st.lists(st.floats(0.0, 1.0), min_size=7,
                      max_size=7).map(box_geometry)
counts = st.integers(0, 6)
powers = st.floats(-7.0, -4.0).map(lambda x: 10.0 ** x)  # P, m^2/s


@settings(max_examples=100, deadline=None)
@given(geom=geometries, n_left=counts, n_right=counts, p=powers)
def test_full_root_matches_pde_slowest_mode(geom, n_left, n_right, p):
    """Acceptance criterion 8's 0.5% over the valid geometry box."""
    vc = VortexConfig(n_left, n_right, p)
    s_eq = smallest_root(geom, vc, TP, form="full").s
    s_pde = slowest_mode(build(geom, vc, TP, resolution=200))[0]
    assert abs(s_pde - s_eq) / s_eq < 0.005


@settings(max_examples=100, deadline=None)
@given(geom=geometries, n_left=counts, n_right=counts, p=powers,
       form=st.sampled_from(["reduced", "full"]))
def test_rate_symmetric_under_pad_exchange(geom, n_left, n_right, p, form):
    s_lr = smallest_root(geom, VortexConfig(n_left, n_right, p), TP, form)
    s_rl = smallest_root(geom, VortexConfig(n_right, n_left, p), TP, form)
    assert s_lr.s == s_rl.s


# l_cap = 45um, w_cap = 50um put a plate resonance at z = 1.55309, in the
# last partial cell of the capacitor grid below the pi/2 cap
B1_LATE_POLE = DeviceGeometry(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6,
                              l_half_gap=7.5e-6, w_cap=50e-6, l_cap=45e-6,
                              s_pad=6400e-12)


@pytest.mark.parametrize("geom", [B1_LATE_POLE] + [
    box_geometry(np.random.Generator(np.random.Philox(seed)).uniform(size=7))
    for seed in range(40)], ids=["b1-late-pole"] + [
        f"box-{seed}" for seed in range(40)])
@pytest.mark.parametrize("form", ["reduced", "full"])
def test_plan_lists_every_capacitor_pole(geom, form):
    edges = np.array(eigenmode._scan_plan(geom, form)[0])
    zs = np.linspace(0.0, eigenmode._Z_CAP, 200_001)[1:]
    den = eigenmode.capacitor_denominator(zs, geom)
    k = np.flatnonzero(np.sign(den[:-1]) != np.sign(den[1:]))
    # the first edge at or above each sign change lies within 1e-9 of it
    nearest = edges[np.searchsorted(edges, zs[k] - 1e-9)]
    assert np.all(nearest <= zs[k + 1] + 1e-9), zs[k]


@settings(max_examples=200, deadline=None)
@given(geom=geometries, n=st.integers(1, 6), split=st.floats(0.0, 1.0),
       log_eps=st.floats(-8.0, -4.0),
       form=st.sampled_from(["reduced", "full"]))
def test_weak_trapping_limit(geom, n, split, log_eps, form):
    """Criterion 4's 1% of s - s0 for P tau_D / A_W <= 1e-4, where the
    root z ~ sqrt(eps) is small and Brent's xtol dominates its error.

    The full form's limit is small_p_rate, N P / A_total.  The reduced
    form drops the central wire, so its limit has A_total - 2 l W."""
    der = derive(geom, TP.d)
    n_left = round(split * n)
    vc = VortexConfig(n_left, n - n_left, 10.0**log_eps * der.a_w / der.tau_d)
    s = smallest_root(geom, vc, TP, form).s
    if form == "full":
        s_lin = small_p_rate(geom, vc, TP)
    else:
        a_reduced = der.a_total - 2.0 * geom.l_half_gap * geom.w_wire
        s_lin = n * vc.trapping_power / a_reduced + TP.s0
    assert abs(s - s_lin) / (s_lin - TP.s0) < 0.01


def test_brent_bit_identical_to_brentq(monkeypatch):
    """_brent returns brentq's double on every bracket that the capacitor
    pole search and the root polish hand it over a seeded panel."""
    real, calls = eigenmode._brent, []

    def recorded(fn, a, b, xtol, **kwargs):
        calls.append((fn, a, b, dict(kwargs, xtol=xtol)))
        return real(fn, a, b, xtol, **kwargs)

    monkeypatch.setattr(eigenmode, "_brent", recorded)
    rng = np.random.Generator(np.random.Philox(2014))
    for _ in range(60):
        geom = box_geometry(rng.uniform(size=7))
        for form in ("reduced", "full"):
            plan = eigenmode._scan_plan(geom, form)
            for _ in range(9):
                n_left, n_right = rng.integers(0, 7, size=2)
                vc = VortexConfig(int(n_left), int(n_right),
                                  10.0 ** rng.uniform(-7.0, -4.0))
                eigenmode._root(geom, vc, TP, form, plan)
    poles = [c for c in calls if c[3]["xtol"] == 1e-14]
    assert len(calls) - len(poles) >= 1000 and len(poles) >= 30
    # brackets whose trial step divides by an underflowed zero, where C
    # arithmetic gives an inf or a NaN
    calls += [(lambda z, k=k: 1e-300 * (z - 0.3) ** k, -1.0, 1.25,
               {"xtol": 1e-15}) for k in (1, 3, 5)]
    mismatches = [(a, b, kw) for fn, a, b, kw in calls
                  if real(fn, a, b, **kw).hex()
                  != float(scipy.optimize.brentq(fn, a, b, **kw)).hex()]
    assert mismatches == []


class TestBrentFailures:
    def cubic(self, z):
        return (z - 0.3) ** 3

    def test_endpoint_zero_returned(self):
        assert eigenmode._brent(self.cubic, 0.3, 1.0, 1e-15) == 0.3
        assert eigenmode._brent(self.cubic, -1.0, 0.3, 1e-15) == 0.3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 1.25)])
    def test_non_finite_value(self, bad, bracket):
        """At an endpoint, and near the root, met after a few steps."""
        def fn(z):
            return bad if z == 1.0 or abs(z - 0.3) < 0.1 else self.cubic(z)
        with pytest.raises(NoRootFoundError, match="met f") as exc:
            eigenmode._brent(fn, *bracket, 1e-15)
        assert exc.value.diagnostics["bracket"] == bracket

    def test_same_sign_ends(self):
        with pytest.raises(NoRootFoundError, match="sign change") as exc:
            eigenmode._brent(self.cubic, 0.5, 1.0, 1e-15)
        assert exc.value.diagnostics["bracket"] == (0.5, 1.0)

    def test_maxiter_exhausted(self):
        with pytest.raises(NoRootFoundError, match="3 steps") as exc:
            eigenmode._brent(self.cubic, -1.0, 1.25, 1e-15, maxiter=3)
        assert exc.value.diagnostics["bracket"] == (-1.0, 1.25)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_sweep_rejects_non_finite(self, bad):
        geom = bundled("b1")
        ok = dict(b_k=11e-7, vortex_density_slope=0.45 / 1e-7)
        with pytest.raises(InvalidParameterError, match="slope"):
            field_sweep(geom, TP, P_REF, [20e-7], 11e-7, bad)
        with pytest.raises(InvalidParameterError, match="b_k"):
            field_sweep(geom, TP, P_REF, [20e-7], bad, 0.45 / 1e-7)
        with pytest.raises(InvalidParameterError, match="b_grid"):
            field_sweep(geom, TP, P_REF, [20e-7, bad], **ok)

    def test_sweep_rejects_overflowing_counts(self):
        with pytest.raises(InvalidParameterError, match="overflows"):
            field_sweep(bundled("b1"), TP, P_REF, [1.0], 1e-7, 1e308)

    def test_form_checked_at_entry(self):
        geom = bundled("b1")
        with pytest.raises(InvalidParameterError, match="form"):
            smallest_root(geom, VortexConfig(0, 0, P_REF), TP, form="bogus")
        with pytest.raises(InvalidParameterError, match="form"):
            step_sequence(geom, TP, P_REF, form="bogus")
        with pytest.raises(InvalidParameterError, match="form"):
            field_sweep(geom, TP, P_REF, [0.0], 11e-7, 0.45 / 1e-7,
                        form="bogus")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1.5])
    def test_vortex_counts(self, bad):
        with pytest.raises(InvalidParameterError, match="vortex counts"):
            VortexConfig(bad, 0, P_REF)
        with pytest.raises(InvalidParameterError, match="vortex counts"):
            VortexConfig(0, bad, P_REF)

    @pytest.mark.parametrize("bad", [2.5, 0, math.inf, math.nan])
    def test_step_count(self, bad):
        with pytest.raises(InvalidParameterError, match="max_steps"):
            step_sequence(bundled("b1"), TP, P_REF, max_steps=bad)

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_residual_point(self, bad):
        with pytest.raises(InvalidParameterError, match="z must"):
            eigen_residual(bad, bundled("b1"), VortexConfig(1, 0, P_REF), TP)
