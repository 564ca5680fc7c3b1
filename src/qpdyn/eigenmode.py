"""Slowest diffusion-trapping eigenmode of the electrode network.

With N_L, N_R vortices of trapping power P (m^2/s) in the two pads, QP
density decays as exp(-s t) in a spatial mode x ~ cos(k y) per segment,
with s = D k^2 + s0.  The admissible k (dimensionless z = k L) are the
modes of the metric graph geometry.edges, whose pads trap and store QPs;
this module evaluates its secular function, finds its smallest positive
root, and provides the closed-form weak- and strong-trapping limits, the
quantized vortex-step sequence, and field-sweep predictions.

Dimensionless groups: eps = P * tau_D / A_W measures trapping strength;
a = S_pad / A_W the pad-to-wire area ratio.  A pad whose N eps reaches
2^64 is clamped (density 0 at the pad), the eps -> infinity limit, which
it already meets to below one ulp.

One leaf-first pass over the graph, rooted at junction, maps each
subtree's admittance through the two-port of its parent edge (Wittrick &
Williams 1971; Berkolaiko & Kuchment, Introduction to Quantum Graphs,
2013).  It gives both the secular function F(z), which is entire, and the
Wittrick-Williams count of the modes below z.  _plan fixes the
elimination order and the graph's area once per (geometry, form).  No
scan grid is needed: the weak-trapping root z_w, the Rayleigh quotient of
the uniform trial mode over the graph's area, bounds the slowest mode
from above, so the count is at least 1 there; halving down from it to a
count of 0, and bisecting the count when more than one mode lies below
the top, brackets the first mode alone.  Both pad subtrees meet before
the capacitor arms, so s is bit-for-bit symmetric under pad exchange.
Newton's method polishes the bracket from the F values of the counts:
_pass is arithmetic only, so one pass at a complex z gives F and its
exact derivative.  The solver needs only math and cmath; scipy's and
numpy's imports take longer than an eigenrate, steps or sweep command
computes.  field_sweep roots each distinct (N_L, N_R) once and reuses its
rate for every field that maps to it.  Each call logs one DEBUG record on
the qpdyn.eigenmode logger, its data as a dict in record.args.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (InvalidParameterError, NoRootFoundError, _log_debug,
                     check_finite)
from .geometry import DerivedGeometry, DeviceGeometry, derive, edges

# just past pi/2, the mode of one wire clamped at its pad, which bounds
# the slowest mode of the whole graph from above
_Z_CAP = 0.5 * math.pi * (1.0 + 1e-9)

# passes of Newton's polish before it gives up
_NEWTON_STEPS = 200


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

    residual_at_root is the Newton-normalized residual F/(F' z) of the
    polish's last pass, i.e. the estimated relative error of the root
    location; bracket is the counted cell Newton's method polished, with
    no mode below its lower end and one below its upper end.
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
    tau_d: float  # L^2 / D, s
    n_eps: tuple  # N_L eps, N_R eps; 0 without vortices or P


def _groups(geom: DeviceGeometry, vortices: VortexConfig,
            tp: TransportParams, der: DerivedGeometry | None = None
            ) -> _Groups:
    """The groups of one configuration; der is derive(geom, tp.d) if given.

    A pad without vortices, or any pad at P = 0, has N eps = 0, even where
    tau_D overflows and eps = 0 inf is nan.  An N eps beyond the float64
    range is kept as inf; _pass clamps that pad."""
    if der is None:
        der = derive(geom, tp.d)
    p = vortices.trapping_power
    eps = p * der.tau_d / der.a_w
    n_eps = tuple(n * eps if n and p else 0.0
                  for n in (vortices.n_left, vortices.n_right))
    return _Groups(a=der.aspect_a, eps=eps, tau_d=der.tau_d, n_eps=n_eps)


class _Plan(NamedTuple):
    """Leaf-first elimination order of the graph edges(geom, form), rooted
    at junction (vertex 0): (child, parent, first child?, l / L, w / W) of
    each edge; the vertices of pad_left and pad_right; and the graph's
    area in units of A_W, 2 S_pad / A_W + sum (l / L)(w / W), which is
    A_total / A_W in the full form and (A_total - 2 l W) / A_W in the
    reduced form.

    Each vertex's edges are eliminated, depth first, before the edge to
    its parent, and siblings in table order, so both pad subtrees meet
    before the capacitor arms: F is then bit-for-bit even in N_R - N_L."""

    tree: tuple
    pads: tuple
    area: float


@functools.lru_cache(maxsize=256)  # DeviceGeometry is frozen, so hashable
def _plan(geom: DeviceGeometry, form: str) -> _Plan:
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
    area = 2.0 * geom.s_pad / (geom.l_wire * geom.w_wire) + sum(
        length * w for *_, length, w in tree)
    return _Plan(tuple(tree),
                 (names.index("pad_left"), names.index("pad_right")), area)


def _trig(z, tree: tuple, m=math) -> list:
    """cos(z l), w sin(z l) and sin(z l) / w of each edge (l, w) of tree,
    by the functions of m: math for a float z, cmath for a complex one."""
    trig = []
    for _, _, _, length, w in tree:
        sin = m.sin(z * length)
        trig.append((m.cos(z * length), w * sin, sin / w))
    return trig


def _pass(z, trig, g: _Groups, plan: _Plan):
    """The leaf-first two-port pass of plan at z (a float, a complex or an
    array) with the _trig of z.

    Each vertex carries a pair (P, R), its admittance z P / R: a free end
    starts at (0, 1), a pad at (N eps - a z^2, z), and a pad whose N eps
    reaches 2^64 (inf included) at (1, 0), clamped: its admittance then
    dwarfs the wire's by more than one ulp, so no root moves, and two such
    pads cannot overflow F.  Each edge (l, w) maps its child's pair through
    the unimodular two-port [[c, -w s], [s / w, c]], c, s = cos, sin(z l),
    which carries flux / k and density along the segment, and the
    children of a vertex add as fractions, (P R' + P' R, R R').  Only
    arithmetic, so z and its trig may also be complex, or arrays of one
    shape.

    Returns the pairs of all vertices, junction's first, and R' of each
    edge.  F(z) = P at junction is entire, with zeros at the modes and at
    z = 0.
    """
    n = len(plan.tree) + 1
    p, r, tails = [0.0] * n, [1.0] * n, []
    mass = g.a * z * z
    for pad, n_eps in zip(plan.pads, g.n_eps):
        p[pad], r[pad] = (n_eps - mass, z) if n_eps < 2.0**64 else (1, 0)
    for (child, parent, first, _, _), (c, ws, sw) in zip(plan.tree, trig):
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
    z, plan = float(z), _plan(geom, form)
    return _pass(z, _trig(z, plan.tree), _groups(geom, vortices, tp),
                 plan)[0][0]


def _count(z: float, g: _Groups, plan: _Plan, seen: dict | None = None
           ) -> int:
    """Modes of the electrode graph below z (Wittrick & Williams 1971):
    sum_e floor(k l / pi), the modes of the segments clamped at both ends,
    plus the negative pivots of the leaf-first elimination.  A vertex's
    pivot has the sign of R' s R across its parent edge, junction's that
    of P R.  The same pass gives F(z), stored in seen if given."""
    trig = _trig(z, plan.tree)
    p, r, tails = _pass(z, trig, g, plan)
    if seen is not None:
        seen[z] = p[0]
    return (p[0] * r[0] < 0) + sum(
        (tail * ws * r[child] < 0) + math.floor(z * length / math.pi)
        for (child, _, _, length, _), (_, ws, _), tail
        in zip(plan.tree, trig, tails))


def _bracket(g: _Groups, plan: _Plan, hi: float, seen: dict):
    """A cell (lo, hi) under hi with no mode below lo and one below hi, its
    note, and the number of mode counts taken, each of which stores F in
    seen.  lo halves down from hi / 2, taking hi along while a mode lies
    below it, until the count is 0; if more than one mode lies below hi,
    bisecting the count splits them."""
    n_hi, lo = _count(hi, g, plan, seen), 0.5 * hi
    n_lo, counts = _count(lo, g, plan, seen), 2
    while n_lo:
        if lo < 1e-9:
            raise NoRootFoundError(
                f"a mode lies below z = {lo!r}",
                diagnostics=dict(eps=g.eps, n_eps=g.n_eps, count=n_lo))
        hi, n_hi, lo = lo, n_lo, 0.5 * lo
        n_lo, counts = _count(lo, g, plan, seen), counts + 1
    note = ("counted under the weak-trapping bound" if n_hi == 1
            else "split by eigenvalue count")
    while n_hi != 1:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NoRootFoundError(
                f"no cell below z = {hi!r} holds one mode",
                diagnostics=dict(eps=g.eps, n_eps=g.n_eps,
                                 count_at_top=_count(_Z_CAP, g, plan)))
        n_mid, counts = _count(mid, g, plan, seen), counts + 1
        lo, hi, n_hi = (lo, mid, n_mid) if n_mid else (mid, hi, n_hi)
    return (lo, hi), note, counts


def _newton(fn, lo: float, hi: float, f_lo: float, f_hi: float):
    """Root of F in the cell [lo, hi], 0 < lo < hi, from F's values at its
    ends, by Newton's method on the exact derivative: fn(z + i h),
    h = 1e-20 z, is F(z) + i h F'(z) to rounding, as nothing is subtracted
    (complex step; Squire & Trapp, SIAM Rev. 40, 110 (1998)).  The first
    step is the secant of the ends; each pass narrows the cell by the sign
    of F, a step that leaves the cell bisects it, and the root is the
    first step of at most 1e-15 + 4 eps z.  An exact zero at an end is
    returned as is; a non-finite F or F', a zero F', ends of one sign or
    _NEWTON_STEPS passes raise NoRootFoundError with the cell in its
    diagnostics.  Returns the root, the Newton-normalized residual
    F / (F' z) of the last pass and the number of passes."""
    cell, where = (lo, hi), f"[{lo!r}, {hi!r}]"
    for z, f in ((lo, f_lo), (hi, f_hi)):
        if not math.isfinite(f):
            raise NoRootFoundError(
                f"Newton's method met F = {f} at z = {z!r} in {where}",
                diagnostics={"bracket": cell, "z": z, "value": f})
    if f_lo == 0.0:
        return lo, 0.0, 0
    if f_hi == 0.0:
        return hi, 0.0, 0
    negative_below = f_lo < 0.0
    if negative_below == (f_hi < 0.0):
        raise NoRootFoundError(
            f"Newton's method needs a sign change; F = {f_lo!r} and "
            f"{f_hi!r} at the ends of {where}",
            diagnostics={"bracket": cell, "values": (f_lo, f_hi)})
    z = lo + (hi - lo) * (f_lo / (f_lo - f_hi))  # the secant of the ends
    for passes in range(1, _NEWTON_STEPS + 1):
        h = 1e-20 * z
        value = complex(fn(complex(z, h)))
        if not (cmath.isfinite(value) and value.imag):
            raise NoRootFoundError(
                f"Newton's method met F + i h F' = {value} at z = {z!r} in "
                f"{where}", diagnostics={"bracket": cell, "z": z,
                                         "value": value})
        f, slope = value.real, value.imag / h
        if (f < 0.0) == negative_below:
            lo = z
        else:
            hi = z
        new, tol = z - f / slope, 1e-15 + 4 * sys.float_info.epsilon * z
        if not (abs(new - z) <= tol or lo < new < hi):  # leaves the cell
            new = 0.5 * (lo + hi)
        if abs(new - z) <= tol:
            return new, f / (slope * z), passes
        z = new
    raise NoRootFoundError(
        f"Newton's method did not converge in {_NEWTON_STEPS} steps in "
        f"{where}",
        diagnostics={"bracket": cell, "z": z, "maxiter": _NEWTON_STEPS})


def _root(g: _Groups, tp: TransportParams, form: str, plan: _Plan):
    """One trapping configuration's root: the weak-trapping refusal, the
    counted bracket under the Rayleigh bound z_w and Newton's polish.
    Returns the ModeSolution and the numbers of polish passes and mode
    counts."""
    # the Rayleigh quotient of the uniform trial mode
    z_w = math.sqrt(sum(g.n_eps) / plan.area)
    if z_w < 1e-6:  # the stop rule's absolute 1e-15 is 1e-9 of such a root
        raise InvalidParameterError(
            f"weak-trapping root estimate z_w = {z_w:.3g} is below 1e-6, "
            "too small for the mode solver to resolve; use the weak-trapping "
            "limit s = (N_L + N_R) P / "
            f"{'A_total' if form == 'full' else '(A_total - 2 l W)'} + s0 = "
            f"{z_w**2 / g.tau_d + tp.s0:.6g} 1/s")
    if math.isnan(z_w):  # P tau_D / A_W = inf / inf
        raise NoRootFoundError(
            "the secular function leaves the float64 range: eps = "
            "P tau_D / A_W is nan", diagnostics={"eps": g.eps})
    seen = {}  # F at each z the counts took
    (za, zb), note, counts = _bracket(
        g, plan, min(z_w * (1.0 + 1e-9), _Z_CAP), seen)
    root, residual, passes = _newton(
        lambda z: _pass(z, _trig(z, plan.tree, cmath), g, plan)[0][0],
        za, zb, seen[za], seen[zb])
    return ModeSolution(
        z=root, s=root * root / g.tau_d + tp.s0, bracket=(za, zb),
        residual_at_root=residual,
        branch_note=f"{form}: {note}"), passes, counts


def _roots(geom: DeviceGeometry, vortex_configs: list, tp: TransportParams,
           form: str) -> list:
    """smallest_root of each configuration, in order; edges, through _plan,
    refuses an unknown form."""
    der, plan = derive(geom, tp.d), _plan(geom, form)
    sols, evals = [], []
    for vc in vortex_configs:
        g = _groups(geom, vc, tp, der)
        if not any(g.n_eps):
            sols.append(ModeSolution(
                z=0.0, s=tp.s0, bracket=(0.0, 0.0), residual_at_root=0.0,
                branch_note=f"{form}: no trapping, uniform mode"))
            evals.append((0, 0))
        else:
            sol, f_n, c_n = _root(g, tp, form, plan)
            sols.append(sol)
            evals.append((f_n, c_n))
    _log_debug(
        __name__, "%(form)s roots of %(configs)d configurations",
        lambda: {"form": form, "configs": len(sols),
                 "roots": [{"n_left": vc.n_left, "n_right": vc.n_right,
                            "z": sol.z, "bracket": sol.bracket,
                            "branch_note": sol.branch_note, "f_evals": f_n,
                            "count_evals": c_n}
                           for vc, sol, (f_n, c_n)
                           in zip(vortex_configs, sols, evals)]})
    return sols


def smallest_root(geom: DeviceGeometry, vortices: VortexConfig,
                  tp: TransportParams, form: str = "reduced") -> ModeSolution:
    """Smallest strictly positive root of the mode equation, as a ModeSolution.

    For zero total trapping power (N = 0 or P = 0) the uniform mode z = 0
    is exact and returned without a search.  Otherwise the weak-trapping
    root z_w = sqrt((N_L + N_R) eps / area), the Rayleigh quotient of the
    uniform trial mode, with area the graph's metal in units of A_W,
    bounds the root from above (as does pi/2, a wire clamped at its pad).
    The mode count brackets the first mode under that bound: the cell's
    lower end halves down from the bound until no mode lies below it, and
    bisecting the count splits the cell if more than one mode lies below
    its top.  Newton's method on the exact complex-step derivative
    polishes the cell, until a step moves by at most 1e-15 + 4 eps z.  A
    weak-trapping root estimate below 1e-6, of which that rule's absolute
    1e-15 is 1e-9 already, raises InvalidParameterError.
    """
    return _roots(geom, [vortices], tp, form)[0]


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
    counts = [_SERIES[series](k) for k in range(max_steps + 1)]
    sols = _roots(geom, [VortexConfig(*c, trapping_power) for c in counts],
                  tp, form)
    a_total = derive(geom, tp.d).a_total
    return [(nl, nr, sol.s, sol.s * a_total)
            for (nl, nr), sol in zip(counts, sols)]


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
    configs = list(dict.fromkeys(counts))
    sols = _roots(geom, [VortexConfig(*c, trapping_power) for c in configs],
                  tp, form)
    rates = {c: sol.s for c, sol in zip(configs, sols)}
    return [(b, nl, nr, rates[nl, nr]) for b, (nl, nr) in zip(fields, counts)]
