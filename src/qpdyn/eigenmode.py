"""Slowest diffusion-trapping eigenmode of the electrode network.

With N_L, N_R vortices of trapping power P (m^2/s) in the two pads, QP
density decays as exp(-s t) in a spatial mode x ~ cos(k y) per segment,
with s = D k^2 + s0.  The admissible k (dimensionless z = k L) are the
modes of the metric graph geometry.edges, whose pads trap and store QPs;
this module evaluates its secular function, finds its smallest positive
root, and provides the closed-form weak- and strong-trapping limits, the
quantized vortex-step sequence, and field-sweep predictions.

Dimensionless groups: eps = P * tau_D / A_W measures trapping strength;
a = S_pad / A_W the pad-to-wire area ratio.

One leaf-first pass over the graph, rooted at junction, maps each
subtree's admittance through the two-port of its parent edge (Wittrick &
Williams 1971; Berkolaiko & Kuchment, Introduction to Quantum Graphs,
2013).  It gives both the secular function F(z), which is entire, and the
Wittrick-Williams count of the modes below z.  _plan fixes the
elimination order, the scan grid and its trig once per (geometry, form),
for all roots of one smallest_root, step_sequence or field_sweep call.  A
root scans F on that grid, in one array pass, to its first sign change;
the count checks that no mode lies below it, and when two roots share a
scan cell bisecting the count isolates the first.  Both pad subtrees meet
before the capacitor arms, so s is bit-for-bit symmetric under pad
exchange.  Brent's method polishes the bracket.  _brent is a step-for-step
port of scipy's brentq on Python floats: it returns the same double, and
it spares the mode solver the import of scipy.optimize, which takes longer
than a whole eigenrate, steps or sweep command computes.  field_sweep
roots each distinct (N_L, N_R) once and reuses its rate for every field
that maps to it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoRootFoundError, check_finite
from .geometry import DeviceGeometry, derive, edges

_FORMS = ("reduced", "full")
# the scan stops just past pi/2, the mode of one wire clamped at its pad,
# which bounds the slowest mode of the whole graph from above
_Z_CAP = 0.5 * math.pi * (1.0 + 1e-9)


def _check_form(form: str) -> None:
    if form not in _FORMS:
        raise InvalidParameterError(
            f"form must be 'reduced' or 'full', got {form!r}")


@dataclass(frozen=True)
class VortexConfig:
    """Vortex counts per pad and the per-vortex trapping power P (m^2/s)."""

    n_left: int
    n_right: int
    trapping_power: float

    def __post_init__(self):
        if not all(math.isfinite(n) and n >= 0 and n == int(n)
                   for n in (self.n_left, self.n_right)):
            raise InvalidParameterError(
                f"vortex counts must be non-negative integers, got "
                f"({self.n_left}, {self.n_right})")
        check_finite("trapping_power", self.trapping_power, ">=")


@dataclass(frozen=True)
class TransportParams:
    """Diffusion constant D (m^2/s) and homogeneous background trapping s0 (1/s)."""

    d: float
    s0: float = 0.0

    def __post_init__(self):
        check_finite("D", self.d, ">")
        check_finite("s0", self.s0, ">=")


@dataclass(frozen=True)
class ModeSolution:
    """Smallest root z of the mode equation and the rate s = z^2/tau_D + s0.

    residual_at_root is the Newton-normalized residual F/(F' z), i.e. the
    estimated relative error of the root location; bracket is the cell
    Brent's method polished: a cell of the scan grid, or the cell that
    bisecting the mode count isolated.
    """

    z: float
    s: float
    bracket: tuple[float, float]
    residual_at_root: float
    branch_note: str


class _Groups(NamedTuple):
    """Dimensionless groups of one mode equation, and its diffusion time."""

    a: float      # S_pad / A_W
    eps: float    # P tau_D / A_W
    nbar: float   # (N_L + N_R) / 2
    dn: int       # N_R - N_L
    lam: float    # l / L
    tau_d: float  # L^2 / D, s
    a_total: float  # A_total / A_W


def _groups(geom: DeviceGeometry, vortices: VortexConfig,
            tp: TransportParams) -> _Groups:
    der = derive(geom, tp.d)
    return _Groups(
        a=der.aspect_a, eps=vortices.trapping_power * der.tau_d / der.a_w,
        nbar=0.5 * (vortices.n_left + vortices.n_right),
        dn=vortices.n_right - vortices.n_left,
        lam=geom.l_half_gap / geom.l_wire, tau_d=der.tau_d,
        a_total=der.a_total / der.a_w)


def _tree(geom: DeviceGeometry, form: str):
    """Leaf-first elimination order of the graph edges(geom, form), rooted
    at junction (vertex 0): (child, parent, first child?, l / L, w / W) of
    each edge, and the vertices of pad_left and pad_right.

    Each vertex's edges are eliminated, depth first, before the edge to
    its parent, and siblings in table order, so both pad subtrees meet
    before the capacitor arms: F is then bit-for-bit even in N_R - N_L."""
    segments = edges(geom, form)
    names, tree = ["junction"], []

    def below(parent: int, via):
        first = True
        for name, a, b, length, width in segments:
            if name != via and names[parent] in (a, b):
                names.append(b if a == names[parent] else a)
                child = len(names) - 1
                below(child, name)
                tree.append((child, parent, first, length / geom.l_wire,
                             width / geom.w_wire))
                first = False

    below(0, None)
    return tuple(tree), (names.index("pad_left"), names.index("pad_right"))


class _Plan(NamedTuple):
    """The elimination order of one (geom, form) and its scan grid, shared
    by all roots of that graph.  The grid runs from 1e-9 to _Z_CAP in at
    least 64 cells, none wider than a quarter period of the longest edge."""

    tree: tuple
    pads: tuple
    grid: np.ndarray
    grid_trig: list  # _trig(grid, tree)


def _plan(geom: DeviceGeometry, form: str) -> _Plan:
    tree, pads = _tree(geom, form)
    step = 0.5 * math.pi / max(edge[3] for edge in tree)
    grid = np.linspace(1e-9, _Z_CAP, max(64, math.ceil(_Z_CAP / step)) + 1)
    return _Plan(tree, pads, grid, _trig(grid, tree))


def _trig(z, tree):
    """cos(z l), w sin(z l) and sin(z l) / w of each edge (l, w) of tree,
    at a float z or, one row per edge, at an array."""
    if isinstance(z, np.ndarray):
        lengths, widths = np.array([edge[3:] for edge in tree]).T[:, :, None]
        sin = np.sin(lengths * z)
        return list(zip(np.cos(lengths * z), widths * sin, sin / widths))
    trig = []
    for _, _, _, length, w in tree:
        sin = math.sin(z * length)
        trig.append((math.cos(z * length), w * sin, sin / w))
    return trig


def _pass(z, trig, g: _Groups, tree: tuple, pads: tuple):
    """The leaf-first two-port pass at z (a float or an array) with the
    _trig of z.

    Each vertex carries a pair (P, R), its admittance z P / R: a free end
    starts at (0, 1), a pad at (N eps - a z^2, z).  Each edge (l, w) maps
    its child's pair through the unimodular two-port [[c, -w s], [s / w,
    c]], c, s = cos, sin(z l), which carries flux / k and density along the
    segment, and the children of a vertex add as fractions,
    (P R' + P' R, R R').  Only arithmetic, so floats and arrays share it.

    Returns the pairs of all vertices, junction's first, and R' of each
    edge.  F(z) = P at junction is entire, with zeros at the modes and at
    z = 0.
    """
    n = len(tree) + 1
    p, r, tails = [0.0] * n, [1.0] * n, []
    mass = g.a * z * z
    left, right = pads
    p[left], r[left] = (g.nbar - 0.5 * g.dn) * g.eps - mass, z
    p[right], r[right] = (g.nbar + 0.5 * g.dn) * g.eps - mass, z
    for (child, parent, first, _, _), (c, ws, sw) in zip(tree, trig):
        pc, rc = p[child], r[child]
        pt, rt = c * pc - ws * rc, sw * pc + c * rc
        tails.append(rt)
        if first:  # (0, 1) + (pt, rt)
            p[parent], r[parent] = pt, rt
        else:
            p[parent], r[parent] = (p[parent] * rt + pt * r[parent],
                                    r[parent] * rt)
    return p, r, tails


def eigen_residual(z: float, geom: DeviceGeometry, vortices: VortexConfig,
                   tp: TransportParams, form: str = "reduced") -> float:
    """The secular function F(z) of the electrode graph: zero at its modes
    and at z = 0."""
    check_finite("z", z, ">=")
    _check_form(form)
    z, (tree, pads) = float(z), _tree(geom, form)
    return _pass(z, _trig(z, tree), _groups(geom, vortices, tp), tree,
                 pads)[0][0]


def _brent_step(xcur, fcur, xpre, fpre, xblk, fblk):
    """Brent's trial step from xcur: secant or inverse quadratic."""
    if xpre == xblk:
        return -fcur * (xcur - xpre) / (fcur - fpre)
    dpre = (fpre - fcur) / (xpre - xcur)
    dblk = (fblk - fcur) / (xblk - xcur)
    return -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))


def _brent(f, a: float, b: float, xtol: float,
           rtol: float = 4 * sys.float_info.epsilon,
           maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of scipy's brentq (scipy/optimize/Zeros/brentq.c)
    that does its arithmetic on Python floats, so it returns the same
    double for the same f and bracket.  An exact zero at an endpoint is
    returned as is.  A non-finite f, endpoints of one sign, or maxiter
    steps without convergence raise NoRootFoundError with the bracket in
    its diagnostics.
    """
    a, b = float(a), float(b)

    def value(x):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise NoRootFoundError(
                f"Brent's method met f({x!r}) = {fx} in [{a!r}, {b!r}]",
                diagnostics={"bracket": (a, b), "z": x, "value": fx})
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoRootFoundError(
            f"Brent's method needs a sign change; f = {fpre!r} and "
            f"{fcur!r} at the ends of [{a!r}, {b!r}]",
            diagnostics={"bracket": (a, b), "values": (fpre, fcur)})
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            args = (xcur, fcur, xpre, fpre, xblk, fblk)
            try:
                stry = _brent_step(*args)
            except ZeroDivisionError:  # C divides to an inf or a NaN
                with np.errstate(all="ignore"):
                    stry = float(_brent_step(*map(np.float64, args)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoRootFoundError(
        f"Brent's method did not converge in {maxiter} steps in "
        f"[{a!r}, {b!r}]",
        diagnostics={"bracket": (a, b), "z": xcur, "maxiter": maxiter})


def _first_root(g: _Groups, plan: _Plan):
    """Lowest cell of the scan grid where the sign of F changes, or None,
    from one array pass.  F beyond the float64 range raises
    NoRootFoundError."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _pass(plan.grid, plan.grid_trig, g, plan.tree,
                     plan.pads)[0][0]
    if not np.isfinite(vals).all():
        raise NoRootFoundError(
            "the secular function leaves the float64 range on the scan grid",
            diagnostics={"z": float(plan.grid[~np.isfinite(vals)][0]),
                         "eps": g.eps})
    sign = np.sign(vals)
    hit = np.flatnonzero(sign[:-1] != sign[1:])
    return (plan.grid[hit[0]], plan.grid[hit[0] + 1]) if hit.size else None


def _count(z: float, g: _Groups, plan: _Plan) -> int:
    """Modes of the electrode graph below z (Wittrick & Williams 1971):
    sum_e floor(k l / pi), the modes of the segments clamped at both ends,
    plus the negative pivots of the leaf-first elimination.  A vertex's
    pivot has the sign of R' s R across its parent edge, junction's that
    of P R."""
    trig = _trig(z, plan.tree)
    p, r, tails = _pass(z, trig, g, plan.tree, plan.pads)
    return (p[0] * r[0] < 0) + sum(
        (tail * ws * r[child] < 0) + math.floor(z * length / math.pi)
        for (child, _, _, length, _), (_, ws, _), tail
        in zip(plan.tree, trig, tails))


def _newton_quality(fn, root: float) -> float:
    """Newton-normalized residual: estimated relative error of the root."""
    if root <= 0:
        return 0.0
    h = max(1e-8 * root, 1e-12)
    slope = (fn(root + h) - fn(root - h)) / (2.0 * h)
    return fn(root) / (slope * root) if slope != 0 else 0.0


def _root(geom: DeviceGeometry, vortices: VortexConfig, tp: TransportParams,
          form: str, plan) -> ModeSolution:
    """smallest_root for a checked form and the _plan of (geom, form)."""
    g = _groups(geom, vortices, tp)
    if g.eps == 0 or vortices.n_left + vortices.n_right == 0:
        return ModeSolution(z=0.0, s=tp.s0, bracket=(0.0, 0.0),
                            residual_at_root=0.0,
                            branch_note=f"{form}: no trapping, uniform mode")
    area, a_form = ("A_total", g.a_total) if form == "full" else (
        "(A_total - 2 l W)", g.a_total - 2.0 * g.lam)  # no central wire
    z_w = math.sqrt(2.0 * g.nbar * g.eps / a_form)
    if z_w < 1e-6:  # Brent's xtol of 1e-15 is 1e-9 of such a root
        raise InvalidParameterError(
            f"weak-trapping root estimate z_w = {z_w:.3g} is below 1e-6, "
            "too small for the mode scan to resolve; use the weak-trapping "
            f"limit s = (N_L + N_R) P / {area} + s0 = "
            f"{z_w**2 / g.tau_d + tp.s0:.6g} 1/s")

    def fn(z):
        return _pass(z, _trig(z, plan.tree), g, plan.tree, plan.pads)[0][0]

    bracket, note = _first_root(g, plan), "first sign change"
    lo, hi = 1e-9, float(bracket[0]) if bracket else _Z_CAP
    n_hi = _count(hi, g, plan)
    if bracket is None or n_hi:  # bisect to a cell with one mode
        while n_hi != 1:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise NoRootFoundError(
                    f"no cell below z = {hi!r} holds one mode",
                    diagnostics=dict(eps=g.eps, dn=g.dn,
                                     count_at_top=_count(_Z_CAP, g, plan)))
            n_mid = _count(mid, g, plan)
            lo, hi, n_hi = (lo, mid, n_mid) if n_mid else (mid, hi, n_hi)
        bracket, note = (lo, hi), "split by eigenvalue count"
    za, zb = bracket
    root = _brent(fn, za, zb, xtol=1e-15, maxiter=200)
    return ModeSolution(
        z=root, s=root * root / g.tau_d + tp.s0,
        bracket=(float(za), float(zb)),
        residual_at_root=_newton_quality(fn, root),
        branch_note=f"{form}: {note}")


def smallest_root(geom: DeviceGeometry, vortices: VortexConfig,
                  tp: TransportParams, form: str = "reduced") -> ModeSolution:
    """Smallest strictly positive root of the mode equation, as a ModeSolution.

    For zero total trapping power (N = 0 or P = 0) the uniform mode z = 0
    is exact and returned without a search.  Otherwise the secular
    function is scanned, with a step no larger than a quarter period of
    the longest segment, to its first sign change; if the mode count finds
    a mode below it, bisecting the count brackets that mode alone.  The
    scan starts just above the trivial zero z = 0.  A weak-trapping root
    estimate below 1e-6, which the scan cannot resolve, raises
    InvalidParameterError.
    """
    _check_form(form)
    return _root(geom, vortices, tp, form, _plan(geom, form))


def small_p_rate(geom: DeviceGeometry, vortices: VortexConfig,
                 tp: TransportParams) -> float:
    """Weak-trapping closed form s = (N_L + N_R) P / A_total + s0, the full
    form's P -> 0 limit; the reduced form, without the central wire, tends
    to (N_L + N_R) P / (A_total - 2 l W) + s0."""
    der = derive(geom, tp.d)
    n = vortices.n_left + vortices.n_right
    return n * vortices.trapping_power / der.a_total + tp.s0


def large_p_z(geom: DeviceGeometry) -> float:
    """Strong-trapping limit z -> (pi/2) / (1 + A_c/A_W) of the root.

    Leading order for A_c << A_W; the exact saturation root is the
    slowest mode of the electrode graph with both pads clamped (x = 0),
    the eps -> infinity limit of the secular function.
    """
    der = derive(geom, 1.0)
    return 0.5 * math.pi / (1.0 + der.a_c / der.a_w)


_SERIES = {
    # one vortex at a time, alternating pads
    "alternating": lambda k: ((k + 1) // 2, k // 2),
    # vortices entering two at a time, one per pad
    "pairs": lambda k: (k, k),
}


def step_sequence(geom: DeviceGeometry, tp: TransportParams,
                  trapping_power: float, series: str = "alternating",
                  max_steps: int = 4, form: str = "reduced"):
    """Predicted quantized trapping rates for the first vortex entries.

    Returns a list of (n_left, n_right, s, s * a_total) for steps
    0..max_steps of the chosen vortex-number series.  Early steps increase
    s * a_total by nearly the single-vortex trapping power (per vortex),
    reduced a little by the finite speed of diffusion.
    """
    if not isinstance(max_steps, numbers.Integral) or max_steps < 1:
        raise InvalidParameterError(
            f"max_steps must be an integer >= 1, got {max_steps!r}")
    if series not in _SERIES:
        raise InvalidParameterError(
            f"series must be one of {sorted(_SERIES)}, got {series!r}")
    _check_form(form)
    der = derive(geom, tp.d)
    plan = _plan(geom, form)
    rows = []
    for k in range(max_steps + 1):
        nl, nr = _SERIES[series](k)
        vc = VortexConfig(n_left=nl, n_right=nr,
                          trapping_power=trapping_power)
        s = _root(geom, vc, tp, form, plan).s
        rows.append((nl, nr, s, s * der.a_total))
    return rows


def field_sweep(geom: DeviceGeometry, tp: TransportParams,
                trapping_power: float, b_grid, b_k: float,
                vortex_density_slope: float, pads: str = "equal",
                form: str = "reduced"):
    """Decay rate versus cooling field B.

    Below the critical entry field b_k no vortices are trapped.  Above it
    the count grows linearly: with pads='equal' both pads hold
    round(slope * (B - b_k)) vortices; with pads='alternating' the total
    round(2 * slope * (B - b_k)) is split as evenly as possible with the
    left pad leading.  Returns a list of (B, n_left, n_right, s).
    """
    check_finite("b_k", b_k, ">")
    check_finite("slope", vortex_density_slope, ">=")
    if pads not in ("equal", "alternating"):
        raise InvalidParameterError(
            f"pads must be 'equal' or 'alternating', got {pads!r}")
    _check_form(form)
    fields = [float(b) for b in b_grid]
    check_finite("b_grid", fields)
    counts = []
    for b in fields:
        per_pad = vortex_density_slope * (b - b_k)
        if not math.isfinite(2.0 * per_pad):
            raise InvalidParameterError(
                f"slope * (B - b_k) overflows at B = {b}")
        if b < b_k:
            counts.append((0, 0))
        elif pads == "equal":
            counts.append((round(per_pad), round(per_pad)))
        else:
            total = round(2.0 * per_pad)
            counts.append(((total + 1) // 2, total // 2))
    plan = _plan(geom, form)
    rates = {c: _root(geom, VortexConfig(*c, trapping_power), tp, form,
                      plan).s
             for c in dict.fromkeys(counts)}
    return [(b, nl, nr, rates[nl, nr]) for b, (nl, nr) in zip(fields, counts)]
