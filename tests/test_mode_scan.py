"""The mode-equation root solver against pinned roots, 50-digit roots, the
PDE oracle and the dense mode count."""

import logging
import math
import sys
import warnings
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import box_geometry
from qpdyn import eigenmode, pde_sim
from qpdyn.eigenmode import (TransportParams, VortexConfig, eigen_residual,
                             field_sweep, small_p_rate, smallest_root,
                             step_sequence)
from qpdyn.errors import InvalidParameterError, NoRootFoundError
from qpdyn.geometry import DeviceGeometry, derive, edges, load_geometry
from qpdyn.pde_sim import build, slowest_mode

P_REF = 0.067e-4  # m^2/s
TP = TransportParams(d=18e-4, s0=1.0 / 30e-3)

# (n_left, n_right, z) on the bundled geometries, recorded from the
# point-by-point scalar scan of the closed-form mode equation that the
# graph's secular function replaced.  Its scan grid differs, so only z is
# pinned, to 1e-13.
PARENT_ROOTS = {
    ('b1', 'reduced'): [
        (1, 0, 0.04965593484320865),
        (2, 1, 0.08486596611857018),
        (0, 5, 0.10062274995239225),
        (6, 2, 0.12854889469566122),
        (3, 4, 0.1241099344124148),
        (1, 1, 0.07043803989793325),
        (3, 3, 0.11641102356958775),
        (6, 6, 0.15400998695413093),
        (60, 60, 0.25565119878919995),
    ],
    ('b1', 'full'): [
        (1, 0, 0.04955049330155886),
        (2, 1, 0.08472064783236834),
        (0, 5, 0.10022691448627621),
        (6, 2, 0.1282624399344977),
        (3, 4, 0.12391409878840665),
        (1, 1, 0.07032818019121789),
        (3, 3, 0.11623246837736823),
        (6, 6, 0.15378081986093964),
        (60, 60, 0.2553667940955531),
    ],
    ('b2', 'reduced'): [
        (1, 0, 0.0559468657771085),
        (2, 1, 0.09590580922528505),
        (0, 5, 0.11385846907599764),
        (6, 2, 0.1460545955017819),
        (3, 4, 0.14095636202256215),
        (1, 1, 0.07949064663390996),
        (3, 3, 0.13207052141267606),
        (6, 6, 0.1757207297920019),
        (60, 60, 0.2936063811437693),
    ],
    ('b2', 'full'): [
        (1, 0, 0.05585183085797281),
        (2, 1, 0.09576890957795525),
        (0, 5, 0.11352244121755761),
        (6, 2, 0.14579275563325314),
        (3, 4, 0.1407674638465923),
        (1, 1, 0.07938555439724955),
        (3, 3, 0.13189763769512305),
        (6, 6, 0.17549637846031604),
        (60, 60, 0.29333956637592773),
    ],
    ('b3', 'reduced'): [
        (1, 0, 0.03881400012878449),
        (2, 1, 0.06605771929828326),
        (0, 5, 0.0781857254148582),
        (6, 2, 0.09934873718337345),
        (3, 4, 0.0959658052665165),
        (1, 1, 0.054932726064798154),
        (3, 3, 0.09013815615235476),
        (6, 6, 0.11840216716171975),
        (60, 60, 0.1950070322239401),
    ],
    ('b3', 'full'): [
        (1, 0, 0.03869680122816568),
        (2, 1, 0.06591252619329609),
        (0, 5, 0.07767939305745637),
        (6, 2, 0.09903381983766944),
        (3, 4, 0.0957796130720355),
        (1, 1, 0.05482825613507038),
        (3, 3, 0.08997099604297845),
        (6, 6, 0.11819032240573998),
        (60, 60, 0.19473163966801155),
    ],
}


def bundled(name):
    return load_geometry(resources.files("qpdyn.data")
                         / f"geometry_{name}_like.cfg")


def array_trig(zs, tree):
    """The _trig of every z of the array zs, one array per edge term, for
    an array _pass."""
    trig = []
    for *_, length, w in tree:
        sin = np.sin(zs * length)
        trig.append((np.cos(zs * length), w * sin, sin / w))
    return trig


@pytest.mark.parametrize("geom_name,form", sorted(PARENT_ROOTS))
def test_roots_match_pinned_scalar_scan(geom_name, form):
    geom = bundled(geom_name)
    for nl, nr, z in PARENT_ROOTS[geom_name, form]:
        sol = smallest_root(geom, VortexConfig(nl, nr, P_REF), TP, form=form)
        assert sol.bracket[0] <= sol.z <= sol.bracket[1], (nl, nr)
        assert sol.z == pytest.approx(z, rel=1e-13, abs=0), (nl, nr)


@pytest.mark.parametrize("form", ["reduced", "full"])
@pytest.mark.parametrize("counts", [(2, 1), (3, 3), (0, 5)])
def test_array_residual_equals_scalar(form, counts):
    vc = VortexConfig(*counts, P_REF)
    zs = np.linspace(1e-3, 1.6, 200)
    for name in ("b1", "b2", "b3"):
        geom = bundled(name)
        groups = eigenmode._groups(geom, vc, TP)
        plan = eigenmode._plan(geom, form)
        grid = eigenmode._pass(zs, array_trig(zs, plan.tree), groups,
                               plan)[0][0]
        scalar = [eigen_residual(float(z), geom, vc, TP, form) for z in zs]
        # the array F of the pole checks below equals the solver's scalar
        # F up to the few-ulp differences between numpy's and math's trig
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
    """No scan: every F that a root evaluates lies inside a mode count, on
    a real z, or inside Newton's polish, on a complex z, and none is an
    array."""
    calls, inside = [], []
    graph_pass = eigenmode._pass

    def counted(z, *args):
        calls.append((type(z), inside[-1] if inside else None))
        return graph_pass(z, *args)

    def tagged(name, fn):
        def run(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(eigenmode, "_pass", counted)
    for name in ("_newton", "_count"):
        monkeypatch.setattr(eigenmode, name,
                            tagged(name, getattr(eigenmode, name)))
    smallest_root(bundled("b1"), VortexConfig(2, 1, P_REF), TP, form=form)
    assert set(calls) == {(float, "_count"), (complex, "_newton")}


def stress_geometry(u):
    """box_geometry's box widened to l_half_gap up to 0.99 L and pads up to
    3e-6 m^2, which dwarf the wires; such a geometry warns."""
    l_wire, h_cap = 100e-6 * 4.0 ** u[0], 20e-6 * 10.0 ** u[2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return DeviceGeometry(
            w_wire=l_wire * (0.02 + 0.17 * u[1]), l_wire=l_wire, h_cap=h_cap,
            l_half_gap=(0.01 + 0.98 * u[3]) * l_wire,
            w_cap=2e-6 * 50.0 ** u[4],
            l_cap=0.0 if u[5] < 0.2 else 20e-6 * 40.0 ** ((u[5] - 0.2) / 0.8),
            s_pad=1e-9 * 3000.0 ** u[6])


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
@given(geom=geometries, n_left=st.integers(1, 6), n_right=counts,
       p=st.floats(-4.0, -1.0).map(lambda x: 10.0 ** x),
       d=st.floats(5e-4, 50e-4))
def test_full_root_matches_pde_slowest_mode_strong_trapping(
        geom, n_left, n_right, p, d):
    """Criterion 8's 0.5% under strong trapping, P 1e-4 to 1e-1 m^2/s,
    where the weighted residual of slowest_mode can stall at round-off
    above its bar."""
    vc, tp = VortexConfig(n_left, n_right, p), TransportParams(d=d, s0=0.0)
    s_pde = slowest_mode(build(geom, vc, tp, resolution=200))[0]
    s_eq = smallest_root(geom, vc, tp, form="full").s
    assert abs(s_pde - s_eq) / s_eq < 0.005


def slowest_mode_record(disc):
    """slowest_mode's rate and the args of its DEBUG record, or None when
    it logs none (no trapping)."""
    log, records = logging.getLogger("qpdyn.pde_sim"), []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        rate = slowest_mode(disc)[0]
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return rate, records[0].args if records else None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geom=geometries, n_left=counts, n_right=counts,
       p=st.floats(-8.0, -1.0).map(lambda x: 10.0 ** x),
       d=st.floats(5e-4, 50e-4),
       s0=st.sampled_from([0.0]) | st.floats(0.0, 100.0),
       resolution=st.integers(10, 30))
def test_slowest_mode_is_the_smallest_dense_eigenvalue(
        geom, n_left, n_right, p, d, s0, resolution):
    """slowest_mode against dense eigvalsh of S = W^1/2 (-G) W^-1/2, the
    operator it iterates on, with a derived bound.  S is symmetric, so a
    Rayleigh quotient lies within its residual of an eigenvalue of S:
    - within the bar 1e-10 lambda + 32 eps max|diag G| if the iteration
      met it, or within its own residual if it stalled above it (the DEBUG
      record says which);
    - plus the rounding of that residual, at most (terms + 2) eps
      (|| |S| ||_2 + lambda): S u sums at most `terms` products a row
      (the DEBUG record's count);
    - plus the gap between the triangle slowest_mode stores and the one
      eigvalsh reads, at most ||S - S^T||_F (Weyl);
    - plus eigvalsh's own error: its values are exact for S + E with
      ||E||_2 <= p(n) eps ||S||_2, p(n) = n for n Householder reflections
      (LAPACK Users' Guide, section 4.7.1)."""
    import scipy.linalg

    tp = TransportParams(d=d, s0=s0)
    disc = build(geom, VortexConfig(n_left, n_right, p), tp, resolution)
    rate, record = slowest_mode_record(disc)
    root_w = np.sqrt(disc.areas)
    s_op = -disc.generator.toarray() * root_w[:, None] / root_w
    eigs = scipy.linalg.eigvalsh(s_op, lower=False)
    eps = np.finfo(float).eps
    eig_err = disc.n_nodes * eps * np.abs(eigs).max() \
        + np.linalg.norm(s_op - s_op.T)
    if record is None:  # no trapping: the uniform mode at s0
        assert rate == s0
        assert abs(eigs[0] - s0) <= eig_err
        return
    bar = 1e-10 * rate + 32 * eps * np.abs(disc.generator.diagonal()).max()
    assert (record["rate"], record["bar"]) == (rate, pytest.approx(bar))
    if record["stalled"]:
        assert record["residual"] > bar
        resid = record["residual"]
    else:
        assert record["residual"] <= bar
        resid = bar
    resid_err = (record["terms"] + 2) * eps \
        * (np.linalg.norm(np.abs(s_op), 2) + rate)
    assert abs(rate - eigs[0]) <= resid + resid_err + eig_err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       stress=st.booleans(), n_left=counts, n_right=st.integers(1, 6),
       log_p=st.floats(-7.0, -1.0), form=st.sampled_from(["reduced", "full"]))
def test_bracket_lies_under_the_weak_trapping_bound(u, stress, n_left,
                                                     n_right, log_p, form):
    """The root is at most z_w, the Rayleigh quotient of the uniform trial
    mode; the returned bracket counts no mode below its lower end and one
    below its upper end; and the halving and the bisection end within
    their bounds, log2(top / 1e-9) halvings and 54 bisections."""
    geom = (stress_geometry if stress else box_geometry)(u)
    vc = VortexConfig(n_left, n_right, 10.0**log_p)
    g, plan = eigenmode._groups(geom, vc, TP), eigenmode._plan(geom, form)
    z_w = math.sqrt(sum(g.n_eps) / plan.area)
    sol = smallest_root(geom, vc, TP, form)
    assert sol.z <= z_w
    top = min(z_w * (1.0 + 1e-9), eigenmode._Z_CAP)
    (lo, hi), note, counts = eigenmode._bracket(g, plan, top, {})
    assert (lo, hi) == sol.bracket
    assert lo < sol.z < hi <= top
    assert [eigenmode._count(z, g, plan) for z in (lo, hi)] == [0, 1]
    assert counts <= 3 + math.log2(top / 1e-9) + 54


def test_infinite_n_eps_clamps_its_pad():
    """A pad whose N eps is beyond the float64 range starts at (1, 0), the
    clamped pad, so its root is the eps -> infinity limit that P = 1e8
    m^2/s already reaches; a pad without vortices stays free."""
    geom = bundled("b1")
    g = eigenmode._groups(geom, VortexConfig(0, 1, 1e307), TP)
    assert g.n_eps == (0.0, math.inf)
    for nl, nr in ((0, 1), (1, 1), (3, 1)):
        z_inf = smallest_root(geom, VortexConfig(nl, nr, 1e307), TP).z
        z_big = smallest_root(geom, VortexConfig(nl, nr, 1e8), TP).z
        assert z_inf == pytest.approx(z_big, rel=1e-9, abs=0)


def test_overflowing_diffusion_time_gives_the_background_rate():
    """A wire so long that tau_D = L^2 / D overflows clamps both trapping
    pads (eps = inf), and z^2 / tau_D = 0: the mode solver and the PDE's
    slowest mode both return s0, where both used to raise OverflowError."""
    from dataclasses import replace
    geom = replace(bundled("b1"), l_wire=1e200)
    vc = VortexConfig(1, 1, P_REF)
    for form in ("reduced", "full"):
        sol = smallest_root(geom, vc, TP, form)
        assert (sol.z, sol.s) == (0.5 * math.pi, TP.s0)
    assert slowest_mode(build(geom, vc, TP))[0] == pytest.approx(TP.s0,
                                                                rel=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       stress=st.booleans())
def test_graph_area_is_the_geometry_area(u, stress):
    """_plan's area, summed over the graph's edges, is the geometry
    module's A_total / A_W in the full form and (A_total - 2 l W) / A_W in
    the reduced form, which has no central wire."""
    geom = (stress_geometry if stress else box_geometry)(u)
    der = derive(geom, TP.d)
    full = der.a_total / der.a_w
    reduced = (der.a_total - 2.0 * geom.l_half_gap * geom.w_wire) / der.a_w
    assert eigenmode._plan(geom, "full").area == pytest.approx(
        full, rel=1e-14, abs=0)
    assert eigenmode._plan(geom, "reduced").area == pytest.approx(
        reduced, rel=1e-14, abs=0)


def test_slowest_mode_stops_on_a_stalled_residual(monkeypatch):
    """A strong-trapping mesh whose weighted residual stalls at 1.25 times
    its bar: the iteration used to run all 10 000 solves and raise."""
    geom = DeviceGeometry(w_wire=4.1124e-6, l_wire=105.99e-6,
                          h_cap=24.898e-6, l_half_gap=4.3542e-6,
                          w_cap=6.862e-6, l_cap=467.26e-6, s_pad=9.2575e-9)
    vc, tp = VortexConfig(1, 1, 0.035938), TransportParams(d=18.287e-4,
                                                           s0=0.0)
    monkeypatch.setattr(pde_sim, "_MAX_ITER", 100)
    s_pde = slowest_mode(build(geom, vc, tp, resolution=200))[0]
    assert s_pde == pytest.approx(6809.030775, rel=1e-9)
    s_eq = smallest_root(geom, vc, tp, form="full").s
    assert abs(s_pde - s_eq) / s_eq < 1e-7


def test_slowest_mode_shifts_out_a_dominant_background(monkeypatch):
    """b2 at D = 1.18e-4 cm^2/s, where s0 = 74.1 /s dwarfs the trapping of
    one weak vortex: unshifted, both slowest eigenvalues of S are ~s0, and
    the iteration used to run all 10 000 solves and raise.  Shifted by
    sigma ~ s0 it converges, to the full-form root."""
    vc, tp = VortexConfig(1, 0, 3.34e-10), TransportParams(d=1.18e-8,
                                                           s0=74.1)
    monkeypatch.setattr(pde_sim, "_MAX_ITER", 100)
    disc = build(bundled("b2"), vc, tp, resolution=254)
    s_pde, record = slowest_mode_record(disc)
    assert not record["stalled"]
    s_eq = smallest_root(bundled("b2"), vc, tp, form="full").s
    assert abs(s_pde - s_eq) / s_eq < 1e-10


@settings(max_examples=100, deadline=None)
@given(geom=geometries, n_left=counts, n_right=counts, p=powers,
       form=st.sampled_from(["reduced", "full"]))
def test_rate_symmetric_under_pad_exchange(geom, n_left, n_right, p, form):
    s_lr = smallest_root(geom, VortexConfig(n_left, n_right, p), TP, form)
    s_rl = smallest_root(geom, VortexConfig(n_right, n_left, p), TP, form)
    assert s_lr.s == s_rl.s


# l_cap = 45um, w_cap = 50um put a plate resonance at z = 1.55309, in the
# last partial cell of the scan grid below the pi/2 cap
B1_LATE_POLE = DeviceGeometry(w_wire=12e-6, l_wire=200e-6, h_cap=75e-6,
                              l_half_gap=7.5e-6, w_cap=50e-6, l_cap=45e-6,
                              s_pad=6400e-12)


@pytest.mark.parametrize("geom", [B1_LATE_POLE] + [
    box_geometry(np.random.Generator(np.random.Philox(seed)).uniform(size=7))
    for seed in range(40)], ids=["b1-late-pole"] + [
        f"box-{seed}" for seed in range(40)])
@pytest.mark.parametrize("form", ["reduced", "full"])
def test_plan_lists_every_capacitor_pole(geom, form):
    """The plan used to list each pole of the capacitor plate's admittance
    as a grid edge; with an entire F it needs none.  Across every pole
    below the scan top, F stays finite, the mode count matches the dense
    vertex-matrix count on both sides, and F changes sign exactly where
    that count steps, so a pole inside a scan cell neither fakes nor hides
    a root.  In the reduced form both arms meet at junction, and their
    antisymmetric mode, with junction at rest, sits on the pole.

    The poles are the sign changes of the plate's admittance denominator
    cos(z h) cos(z l_cap) - (w_cap / W) sin(z h) sin(z l_cap), lengths in
    units of L: a free end seen through the wide and the thin arm."""
    plan = eigenmode._plan(geom, form)
    zs = np.linspace(0.0, eigenmode._Z_CAP, 200_001)[1:]
    h, lc = geom.h_cap / geom.l_wire, geom.l_cap / geom.l_wire
    den = (np.cos(zs * h) * np.cos(zs * lc)
           - geom.w_cap / geom.w_wire * np.sin(zs * h) * np.sin(zs * lc))
    poles = np.flatnonzero(np.sign(den[:-1]) != np.sign(den[1:]))
    for vc in (VortexConfig(2, 1, P_REF), VortexConfig(4, 1, 1e-2)):
        g = eigenmode._groups(geom, vc, TP)
        f = eigenmode._pass(zs, array_trig(zs, plan.tree), g, plan)[0][0]
        assert np.isfinite(f).all()
        for k in poles:
            below, above = (dense_count(z, geom, vc, form)
                            for z in zs[k:k + 2])
            assert eigenmode._count(zs[k], g, plan) == below, zs[k]
            assert eigenmode._count(zs[k + 1], g, plan) == above, zs[k]
            assert int(np.sign(f[k]) != np.sign(f[k + 1])) == above - below


@settings(max_examples=200, deadline=None)
@given(geom=geometries, n=st.integers(1, 6), split=st.floats(0.0, 1.0),
       log_eps=st.floats(-8.0, -4.0),
       form=st.sampled_from(["reduced", "full"]))
def test_weak_trapping_limit(geom, n, split, log_eps, form):
    """Criterion 4's 1% of s - s0 for P tau_D / A_W <= 1e-4, where the
    root z ~ sqrt(eps) is small.

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


def test_two_roots_in_one_scan_cell():
    """Roots at z = 1.2048 and 1.2233 lie 0.0185 apart, with no sign change
    of the residual across the pair: the mode count splits them."""
    with pytest.warns(UserWarning, match="l_half_gap is not small"):
        geom = DeviceGeometry(w_wire=1.7269e-6, l_wire=2e-4, h_cap=2.9438e-5,
                              l_half_gap=1.8748e-4, w_cap=1.5541e-4,
                              l_cap=0.0, s_pad=3.0553e-6)
    vc, tp = VortexConfig(6, 2, 0.1), TransportParams(d=18e-4, s0=0.0)
    sol = smallest_root(geom, vc, tp, form="reduced")
    assert sol.z == pytest.approx(1.2048106007766062, rel=1e-13, abs=0)
    assert sol.branch_note == "reduced: split by eigenvalue count"
    assert sol.bracket[0] < sol.z < sol.bracket[1]
    g, plan = eigenmode._groups(geom, vc, tp), eigenmode._plan(geom, "reduced")
    assert eigenmode._count(1.22, g, plan) == 1
    assert eigenmode._count(1.224, g, plan) == 2


# 1 mm^2 pads, otherwise inside the valid box: the slow mode z = 0.0029
# and the pad-exchange mode z = 0.024 shared the first cell of the old
# 0.0245-wide scan grid, whose first sign change was a mode ~1e5 times
# faster; the weak-trapping bound brackets the slow mode alone
BIG_PADS = DeviceGeometry(w_wire=4.6e-6, l_wire=130e-6, h_cap=24.5e-6,
                          l_half_gap=9.5e-6, w_cap=2.3e-6, l_cap=50e-6,
                          s_pad=1.04e-6)


@pytest.mark.parametrize("form", ["reduced", "full"])
def test_slow_mode_hidden_in_the_first_scan_cell(form):
    vc, tp = VortexConfig(0, 2, 8.7e-7), TransportParams(d=16e-4, s0=0.0)
    sol = smallest_root(BIG_PADS, vc, tp, form)
    assert sol.branch_note == f"{form}: counted under the weak-trapping bound"
    assert sol.bracket[1] < 0.024
    s_pde = slowest_mode(build(BIG_PADS, vc, tp, resolution=50))[0]
    assert abs(sol.s - s_pde) / s_pde < 0.005


def batch_panel():
    """A seeded panel of (geometry, form, P, D, configurations): box
    geometries with 0-6 vortices a side and P 1e-7 to 1e-1 m^2/s, and
    BIG_PADS, whose first scan cell hides a mode, at P 3e-7 to 1.6e-6."""
    rng = np.random.Generator(np.random.Philox(18))
    panel = []
    for k in range(30):
        big = k % 5 == 4
        geom = BIG_PADS if big else box_geometry(rng.uniform(size=7))
        p = 10.0 ** rng.uniform(*((-6.5, -5.8) if big else (-7.0, -1.0)))
        configs = [(0, 0)] + [tuple(int(n) for n in rng.integers(0, 7, 2))
                              for _ in range(7)]
        panel.append((geom, ("reduced", "full")[k % 2], p,
                      rng.uniform(5e-4, 50e-4), configs))
    return panel


def test_batched_roots_equal_single_roots():
    """One _roots call over many configurations returns, bit for bit, the
    ModeSolution of each configuration's own smallest_root, including the
    uniform mode and roots that the count has to split."""
    notes, rows = [], 0
    for geom, form, p, d, configs in batch_panel():
        tp = TransportParams(d=d, s0=1.0 / 30e-3)
        vcs = [VortexConfig(nl, nr, p) for nl, nr in configs]
        batch = eigenmode._roots(geom, vcs, tp, form)
        single = [smallest_root(geom, vc, tp, form) for vc in vcs]
        assert [repr(s) for s in batch] == [repr(s) for s in single]
        notes += [s.branch_note.split(": ")[1] for s in batch]
        rows += len(batch)
    assert rows >= 200
    assert {"no trapping, uniform mode",
            "counted under the weak-trapping bound"} <= set(notes)


def test_steps_and_sweep_equal_a_loop_of_single_roots():
    """step_sequence and field_sweep rows equal smallest_root of each row's
    configuration bit for bit."""
    for k, (geom, form, p, d, _) in enumerate(batch_panel()):
        tp = TransportParams(d=d, s0=1.0 / 30e-3)

        def rate(nl, nr):
            return smallest_root(geom, VortexConfig(nl, nr, p), tp, form).s

        series = ("alternating", "pairs")[k // 2 % 2]
        for nl, nr, s, _ in step_sequence(geom, tp, p, series, 6, form):
            assert s.hex() == rate(nl, nr).hex(), (k, nl, nr)
        rows = field_sweep(geom, tp, p, np.linspace(0.0, 150e-7, 31),
                           b_k=11e-7, vortex_density_slope=6.2 / 139e-7,
                           pads=("equal", "alternating")[k % 3 == 0],
                           form=form)
        assert max(nl + nr for _, nl, nr, _ in rows) == 12
        for _, nl, nr, s in rows:
            assert s.hex() == rate(nl, nr).hex(), (k, nl, nr)


def test_no_array_pass_without_trapping(monkeypatch):
    monkeypatch.setattr(eigenmode, "_pass", None)  # any call would fail
    rows = step_sequence(bundled("b1"), TP, 0.0, max_steps=3)
    assert [s for _, _, s, _ in rows] == [TP.s0] * 4


def test_first_failing_configuration_raises_first(monkeypatch):
    """A weak-trapping refusal before a configuration whose count never
    drops to 0 above the 1e-9 floor is raised first, as a loop of
    smallest_root raises it, and the other way round."""
    geom = bundled("b1")
    weak = VortexConfig(1, 0, 1e-30)
    stuck = VortexConfig(1, 1, 2 * P_REF)
    eps = eigenmode._groups(geom, stuck, TP).eps
    count = eigenmode._count
    monkeypatch.setattr(eigenmode, "_count", lambda z, g, *args: 1 if
                        g.eps == eps else count(z, g, *args))
    with pytest.raises(InvalidParameterError, match="weak-trapping"):
        eigenmode._roots(geom, [VortexConfig(2, 1, P_REF), weak, stuck],
                         TP, "reduced")
    with pytest.raises(NoRootFoundError, match="a mode lies below") as exc:
        eigenmode._roots(geom, [VortexConfig(2, 1, P_REF), stuck, weak],
                         TP, "reduced")
    assert exc.value.diagnostics["count"] == 1
    assert exc.value.diagnostics["n_eps"] == (eps, eps)


def test_strongly_trapping_pads_give_the_clamped_pad_root():
    """Two pads at P = 1e296 m^2/s, whose N eps is far past 2^64, give the
    clamped-pad root of P = 1e8 m^2/s."""
    geom = bundled("b1")
    clamped = [smallest_root(geom, VortexConfig(nl, nr, p), TP).z
               for nl, nr in ((1, 1), (2, 5)) for p in (1e296, 1e8)]
    assert clamped[0] == pytest.approx(clamped[1], rel=1e-9, abs=0)
    assert clamped[2] == pytest.approx(clamped[3], rel=1e-9, abs=0)


@pytest.mark.parametrize("form", ["reduced", "full"])
@pytest.mark.parametrize("counts", [(1, 0), (1, 1), (2, 1), (0, 2), (4, 3)])
def test_root_is_continuous_across_the_clamp(form, counts):
    """A pad's N eps below 2^64 keeps its seed (N eps - a z^2, z); from 2^64
    on, inf included, the pad is clamped at (1, 0).  With the fuller pad's
    N eps at 2^64 (1 - 2^-40), 2^64, 2^64 (1 + 2^-40) and inf, the roots
    agree to 1e-15."""
    for name in ("b1", "b2", "b3"):
        geom = bundled(name)
        plan = eigenmode._plan(geom, form)
        g = eigenmode._groups(geom, VortexConfig(*counts, P_REF), TP)
        roots = []
        for top in (2.0**64 * (1 - 2.0**-40), 2.0**64,
                    2.0**64 * (1 + 2.0**-40), math.inf):
            eps = top / max(counts)  # exact: max(counts) is a power of two
            n_eps = tuple(n * eps if n else 0.0 for n in counts)
            assert max(n_eps) == top
            sol = eigenmode._root(g._replace(eps=eps, n_eps=n_eps), TP,
                                  form, plan)[0]
            roots.append(sol.z)
        assert roots == pytest.approx([roots[-1]] * 4, rel=1e-15, abs=0), \
            (name, roots)


def test_one_debug_record_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="qpdyn.eigenmode")
    rows = step_sequence(BIG_PADS, TransportParams(d=16e-4), 8.7e-7,
                         "pairs", 2, "full")
    (record,) = [r for r in caplog.records if r.name == "qpdyn.eigenmode"]
    assert record.levelno == logging.DEBUG
    stats = record.args
    assert stats["form"] == "full"
    assert stats["configs"] == 3
    assert [(r["n_left"], r["n_right"]) for r in stats["roots"]] == \
        [(0, 0), (1, 1), (2, 2)]
    uniform, *trapped = stats["roots"]
    assert (uniform["z"], uniform["f_evals"], uniform["count_evals"]) == \
        (0.0, 0, 0)
    for root, (nl, nr, s, _) in zip(trapped, rows[1:]):
        sol = smallest_root(BIG_PADS, VortexConfig(nl, nr, 8.7e-7),
                            TransportParams(d=16e-4), "full")
        assert (root["z"], root["bracket"], root["branch_note"]) == \
            (sol.z, sol.bracket, sol.branch_note)
        assert root["f_evals"] >= 1  # the passes of Newton's polish
        assert root["count_evals"] >= 2  # the bracket's two ends
    caplog.clear()
    smallest_root(BIG_PADS, VortexConfig(0, 0, 8.7e-7),
                  TransportParams(d=16e-4))
    (record,) = caplog.records
    assert record.args["roots"][0]["count_evals"] == 0


@pytest.mark.parametrize("form", ["reduced", "full"])
def test_count_alone_finds_the_root(monkeypatch, form):
    """Without the weak-trapping bound, the count alone, from the top at
    pi/2, isolates the same root."""
    geom = bundled("b1")
    expected = {c[:2]: c[2] for c in PARENT_ROOTS["b1", form]}
    bracket = eigenmode._bracket
    monkeypatch.setattr(eigenmode, "_bracket", lambda g, plan, hi, seen:
                        bracket(g, plan, eigenmode._Z_CAP, seen))
    for (nl, nr), z in expected.items():
        sol = smallest_root(geom, VortexConfig(nl, nr, P_REF), TP, form)
        assert sol.z == pytest.approx(z, rel=1e-12, abs=0), (nl, nr)
        g = eigenmode._groups(geom, VortexConfig(nl, nr, P_REF), TP)
        assert sol.bracket[1] < eigenmode._Z_CAP
        assert [eigenmode._count(z, g, eigenmode._plan(geom, form))
                for z in sol.bracket] == [0, 1]


def test_no_mode_below_the_top_raises_with_the_count(monkeypatch):
    monkeypatch.setattr(eigenmode, "_count", lambda *args: 0)
    with pytest.raises(NoRootFoundError, match="holds one mode") as exc:
        smallest_root(bundled("b1"), VortexConfig(1, 0, P_REF), TP)
    assert exc.value.diagnostics["count_at_top"] == 0


@settings(max_examples=200, deadline=None)
@given(geom=geometries, n_left=counts, n_right=counts,
       log_p=st.floats(-7.0, -1.0), form=st.sampled_from(["reduced", "full"]))
def test_count_brackets_returned_root(geom, n_left, n_right, log_p, form):
    """No mode lies below the returned root, and one lies just above it."""
    assume(n_left + n_right > 0)
    vc = VortexConfig(n_left, n_right, 10.0**log_p)
    z = smallest_root(geom, vc, TP, form).z
    g, plan = eigenmode._groups(geom, vc, TP), eigenmode._plan(geom, form)
    assert eigenmode._count(z * (1 - 1e-9), g, plan) == 0
    assert eigenmode._count(z * (1 + 1e-9), g, plan) >= 1


def dense_count(z, geom, vc, form):
    """Modes below z from the inertia of the dense vertex matrix K(z),
    plus the clamped-segment modes, by no code of the solver."""
    g = eigenmode._groups(geom, vc, TP)
    segments = edges(geom, form)
    names = sorted({v for _, a, b, _, _ in segments for v in (a, b)})
    k = np.zeros((len(names), len(names)))
    k[names.index("pad_left"), names.index("pad_left")] = \
        vc.n_left * g.eps - g.a * z * z
    k[names.index("pad_right"), names.index("pad_right")] = \
        vc.n_right * g.eps - g.a * z * z
    clamped = 0
    for _, a, b, length, width in segments:
        kl = z * length / geom.l_wire
        clamped += math.floor(kl / math.pi)
        i, j = names.index(a), names.index(b)
        stiff = width / geom.w_wire * z / math.sin(kl)
        k[[i, j], [i, j]] += stiff * math.cos(kl)
        k[i, j] = k[j, i] = -stiff
    return clamped + int((np.linalg.eigvalsh(k) < 0).sum())


@pytest.mark.parametrize("form", ["reduced", "full"])
def test_count_is_dense_inertia(form):
    """The leaf-first pivots give the inertia of the dense vertex matrix
    K(z), plus the clamped-segment modes, on a seeded panel."""
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(40):
        geom = box_geometry(rng.uniform(size=7))
        vc = VortexConfig(*(int(n) for n in rng.integers(0, 7, size=2)),
                          10.0 ** rng.uniform(-7.0, -1.0))
        g = eigenmode._groups(geom, vc, TP)
        z = rng.uniform(1e-3, eigenmode._Z_CAP)
        assert eigenmode._count(z, g, eigenmode._plan(geom, form)) == \
            dense_count(z, geom, vc, form)


def dense_secular(z, geom, vc, tp, form):
    """det K(z) prod_e sin(k l_e) at 50 digits from the dense vertex matrix:
    the secular function up to a positive factor, by no code of the
    solver, on the same float inputs."""
    der = derive(geom, tp.d)
    eps = mpmath.mpf(vc.trapping_power * der.tau_d / der.a_w)
    segments = edges(geom, form)
    names = sorted({v for _, a, b, _, _ in segments for v in (a, b)})
    k, out = mpmath.zeros(len(names)), mpmath.mpf(1)
    for pad, n in (("pad_left", vc.n_left), ("pad_right", vc.n_right)):
        i = names.index(pad)
        k[i, i] = n * eps - mpmath.mpf(der.aspect_a) * z * z
    for _, a, b, length, width in segments:
        kl = z * mpmath.mpf(length / geom.l_wire)
        stiff = mpmath.mpf(width / geom.w_wire) * z / mpmath.sin(kl)
        i, j = names.index(a), names.index(b)
        k[i, i] += stiff * mpmath.cos(kl)
        k[j, j] += stiff * mpmath.cos(kl)
        k[i, j] = k[j, i] = -stiff
        out *= mpmath.sin(kl)
    return mpmath.det(k) * out


def test_roots_match_50_digit_roots():
    """On a seeded panel over the valid geometry box, both forms, 0-6
    vortices a side, P 1e-7 to 1e-1 m^2/s and D 5 to 50 cm^2/s, each root
    lies within 1e-13 of the secular function's 50-digit root."""
    rng = np.random.Generator(np.random.Philox(1971))
    errors = []
    with mpmath.workdps(50):
        while len(errors) < 100:
            geom = box_geometry(rng.uniform(size=7))
            vc = VortexConfig(*(int(n) for n in rng.integers(0, 7, size=2)),
                              10.0 ** rng.uniform(-7.0, -1.0))
            tp = TransportParams(d=rng.uniform(5e-4, 50e-4))
            form = ("reduced", "full")[rng.integers(2)]
            if vc.n_left + vc.n_right == 0:
                continue
            z = smallest_root(geom, vc, tp, form).z
            exact = mpmath.findroot(
                lambda x: dense_secular(x, geom, vc, tp, form),
                (z * (1 - mpmath.mpf(1e-9)), z * (1 + mpmath.mpf(1e-9))),
                solver="anderson", verify=False)
            errors.append(float(abs(z - exact) / exact))
    assert max(errors) < 1e-13


def test_weak_trapping_roots_match_50_digit_roots():
    """Under weak trapping, 1e-5 < z < 1e-3, each root lies within 1e-13 of
    the secular function's 50-digit root too: the stop rule's absolute
    1e-15 alone would allow 1e-10 of such a root."""
    rng = np.random.Generator(np.random.Philox(1998))
    errors = []
    with mpmath.workdps(50):
        while len(errors) < 45:
            geom = box_geometry(rng.uniform(size=7))
            counts = tuple(int(n) for n in rng.integers(0, 7, size=2))
            tp = TransportParams(d=rng.uniform(5e-4, 50e-4))
            form = ("reduced", "full")[rng.integers(2)]
            if sum(counts) == 0:
                continue
            # P puts the weak-trapping root z_w at z_target
            der, area = derive(geom, tp.d), eigenmode._plan(geom, form).area
            z_target = 10.0 ** rng.uniform(-4.9, -3.1)
            vc = VortexConfig(*counts, z_target**2 * area * der.a_w
                              / (sum(counts) * der.tau_d))
            z = smallest_root(geom, vc, tp, form).z
            assert 1e-5 < z < 1e-3
            exact = mpmath.findroot(
                lambda x: dense_secular(x, geom, vc, tp, form),
                (z * (1 - mpmath.mpf(1e-9)), z * (1 + mpmath.mpf(1e-9))),
                solver="anderson", verify=False)
            errors.append(float(abs(z - exact) / exact))
    assert max(errors) < 1e-13


class TestBrentFailures:
    """The typed failures of the polish, _newton, on a cubic with its
    triple root at 0.3 in cells of z > 0."""

    def cubic(self, z):
        return (z - 0.3) ** 3

    def newton(self, fn, lo, hi):
        return eigenmode._newton(fn, lo, hi, fn(lo), fn(hi))

    def test_endpoint_zero_returned(self):
        assert self.newton(self.cubic, 0.3, 1.0) == (0.3, 0.0, 0)
        assert self.newton(self.cubic, 0.1, 0.3) == (0.3, 0.0, 0)

    def test_triple_root_within_twice_the_stop_rule(self):
        """On a triple root Newton's step is a third of the error, which
        falls by 2/3 a step: the last step, within the stop rule, leaves
        the root within twice the stop rule, inside the budget."""
        root, residual, passes = self.newton(self.cubic, 0.05, 1.25)
        assert abs(root - 0.3) <= 2 * (1e-15 + 4 * sys.float_info.epsilon
                                       * 0.3)
        assert abs(residual) < 1e-14
        assert 50 < passes < eigenmode._NEWTON_STEPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bracket", [(0.1, 1.0), (0.05, 1.25)])
    def test_non_finite_value(self, bad, bracket):
        """At an endpoint, and near the root, met after a few steps."""
        def fn(z):
            return bad if z == 1.0 or abs(z - 0.3) < 0.1 else self.cubic(z)
        with pytest.raises(NoRootFoundError, match="met F") as exc:
            self.newton(fn, *bracket)
        assert exc.value.diagnostics["bracket"] == bracket

    def test_same_sign_ends(self):
        with pytest.raises(NoRootFoundError, match="sign change") as exc:
            self.newton(self.cubic, 0.5, 1.0)
        assert exc.value.diagnostics["bracket"] == (0.5, 1.0)

    def test_maxiter_exhausted(self, monkeypatch):
        monkeypatch.setattr(eigenmode, "_NEWTON_STEPS", 3)
        with pytest.raises(NoRootFoundError, match="3 steps") as exc:
            self.newton(self.cubic, 0.05, 1.25)
        assert exc.value.diagnostics["bracket"] == (0.05, 1.25)


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
        """Each public mode function refuses an unknown form, the uniform
        mode and an empty sweep included, with the message of edges."""
        geom = bundled("b1")
        for form in ("bogus", "Full"):
            for call in (
                    lambda: eigen_residual(0.1, geom, VortexConfig(1, 0, P_REF),
                                           TP, form=form),
                    lambda: smallest_root(geom, VortexConfig(0, 0, P_REF), TP,
                                          form=form),
                    lambda: step_sequence(geom, TP, P_REF, form=form),
                    lambda: field_sweep(geom, TP, P_REF, [0.0], 11e-7,
                                        0.45 / 1e-7, form=form),
                    lambda: field_sweep(geom, TP, P_REF, [], 11e-7,
                                        0.45 / 1e-7, form=form)):
                with pytest.raises(InvalidParameterError) as exc:
                    call()
                assert str(exc.value) == (
                    f"form must be 'reduced' or 'full', got {form!r}")

    def test_unknown_series_and_pads(self):
        geom = bundled("b1")
        with pytest.raises(InvalidParameterError,
                           match=r"series must be one of \['alternating', "
                                 r"'pairs'\], got 'triples'"):
            step_sequence(geom, TP, P_REF, series="triples")
        with pytest.raises(InvalidParameterError,
                           match="pads must be 'equal' or 'alternating', "
                                 "got 'left'"):
            field_sweep(geom, TP, P_REF, [0.0], 11e-7, 0.45 / 1e-7,
                        pads="left")

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
