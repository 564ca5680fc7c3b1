"""Slowest diffusion-trapping eigenmode of the electrode network.

With N_L, N_R vortices of trapping power P (m^2/s) in the two pads, QP
density decays as exp(-s t) in a spatial mode x ~ cos(k y) per segment,
with s = D k^2 + s0.  The admissible k (dimensionless z = k L) solves a
transcendental compatibility equation of the wire network; this module
evaluates that equation, finds its smallest positive root by a scan
between its poles, and provides the closed-form weak- and
strong-trapping limits, the quantized vortex-step sequence, and
field-sweep predictions.

Dimensionless groups: eps = P * tau_D / A_W measures trapping strength;
a = S_pad / A_W the pad-to-wire area ratio; nbar = (N_L + N_R)/2 and
dN = N_R - N_L enter the equation only as nbar and dN^2, so s is exactly
symmetric under pad exchange.

The equation is written once, in _mode_terms, as a numpy function of z
(a float or an array); the groups are computed once per configuration.
The residual poles depend on the geometry and the form alone:
_scan_plan lists all of them below the pi/2 cap, with the scan step,
once per call of smallest_root, step_sequence or field_sweep, and every
root of that call scans between them.  With the list complete, each
sign change of the residual is a root, polished with Brent's method.
_brent is a step-for-step port of scipy's brentq on Python floats: it
returns the same double, and it spares the mode solver the import of
scipy.optimize, which takes longer than a whole eigenrate, steps or
sweep command computes.  The root scan evaluates each inter-pole grid
and each dip rescan in one array call; only Brent's polish and the
Newton quality estimate evaluate single points.  field_sweep roots each
distinct (N_L, N_R) once and reuses its rate for every field that maps
to it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoRootFoundError, check_finite
from .geometry import DeviceGeometry, derive

_FORMS = ("reduced", "full")
# the scan stops just past the first tan(z) pole at pi/2
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

    residual_at_root is the Newton-normalized residual R/(R' z), i.e. the
    estimated relative error of the root location; bracket is the scan
    interval the root was isolated in.
    """

    z: float
    s: float
    bracket: tuple[float, float]
    residual_at_root: float
    branch_note: str


def _plate(geom: DeviceGeometry):
    """Capacitor-plate ratios beta = L_c/L, eta = h/L and w = W_c/W."""
    return (geom.l_cap / geom.l_wire, geom.h_cap / geom.l_wire,
            geom.w_cap / geom.w_wire)


def _capacitor(z, beta: float, eta: float, w: float):
    """Numerator and denominator of capacitor_substitution at z."""
    cb, sb = np.cos(z * beta), np.sin(z * beta)
    ce, se = np.cos(z * eta), np.sin(z * eta)
    return cb * se + w * sb * ce, cb * ce - w * sb * se


def capacitor_substitution(z, geom: DeviceGeometry):
    """Effective tan of the composite capacitor plate (thin arm + wide arm).

    Replaces tan(z h/L) of a plain thin arm by

        [cos(z Lc/L) sin(z h/L) + (Wc/W) sin(z Lc/L) cos(z h/L)]
        / [cos(z Lc/L) cos(z h/L) - (Wc/W) sin(z Lc/L) sin(z h/L)]

    which reduces to tan(z h/L) at Lc = 0 and to tan(z (h+Lc)/L) at
    Wc = W.  The denominator crosses zero at the plate resonances; the
    value there is an IEEE infinity, not an error -- root finding must
    bracket around those poles (see capacitor_denominator).
    """
    check_finite("z", z)
    num, den = _capacitor(np.asarray(z, dtype=float), *_plate(geom))
    with np.errstate(divide="ignore"):
        out = num / den
    return float(out) if np.isscalar(z) else out


def capacitor_denominator(z, geom: DeviceGeometry):
    """Denominator of capacitor_substitution; its zeros are pole locations."""
    check_finite("z", z)
    out = _capacitor(np.asarray(z, dtype=float), *_plate(geom))[1]
    return float(out) if np.isscalar(z) else out


class _Groups(NamedTuple):
    """Dimensionless groups of one mode equation, and its diffusion time."""

    a: float      # S_pad / A_W
    eps: float    # P tau_D / A_W
    nbar: float   # (N_L + N_R) / 2
    dn: int       # N_R - N_L
    beta: float   # L_c / L
    eta: float    # h / L
    w: float      # W_c / W
    lam: float    # l / L
    tau_d: float  # L^2 / D, s
    z_w: float    # weak-trapping root sqrt((N_L + N_R) P tau_D / A_total)


def _groups(geom: DeviceGeometry, vortices: VortexConfig,
            tp: TransportParams) -> _Groups:
    der = derive(geom, tp.d)
    beta, eta, w = _plate(geom)
    return _Groups(
        a=der.aspect_a, eps=vortices.trapping_power * der.tau_d / der.a_w,
        nbar=0.5 * (vortices.n_left + vortices.n_right),
        dn=vortices.n_right - vortices.n_left, beta=beta, eta=eta, w=w,
        lam=geom.l_half_gap / geom.l_wire, tau_d=der.tau_d,
        z_w=math.sqrt((vortices.n_left + vortices.n_right)
                      * vortices.trapping_power * der.tau_d / der.a_total))


def _mode_terms(z, g: _Groups, form: str):
    """The mode equation at z (a float or an array) as (u, v, residual).

    The residual vanishes at admissible modes.  form 'reduced' is the
    central-wire-length -> 0 equation; 'full' retains the finite half-gap
    l.  The dN^2 cross term vanishes with equal pads, and the residual is
    then exactly u * v (for the full form a difference of squares): u and
    v are the symmetric- and antisymmetric-branch factors, which can be
    rooted independently -- robust where the two branches nearly cross.
    Poles give IEEE infinities or NaNs here, not errors; the scan skips
    non-finite samples.
    """
    with np.errstate(all="ignore"):
        tz = np.tan(z)
        num, den = _capacitor(z, g.beta, g.eta, g.w)
        t_cap = num / den
        q = g.a * z * z - g.nbar * g.eps
        half_dn = 0.5 * g.dn * g.eps
        f1 = z - tz * q
        if form == "reduced":
            f2 = z * (tz + 2.0 * t_cap) + q * (1.0 - 2.0 * t_cap * tz)
            cross = half_dn**2 * tz * (1.0 - 2.0 * t_cap * tz)
            return f1, f2, f1 * f2 + cross
        tl = np.tan(z * g.lam)
        cl = 1.0 / tl
        f = 0.5 * tl - 0.5 * cl + 2.0 * t_cap
        g1 = z * (tz + f) + q * (1.0 - tz * f)
        half = 0.5 * (tl + cl)
        cross = half_dn**2 * (1.0 - tz * f) ** 2
        inner = f1**2 - half_dn**2 * tz * tz
        resid = g1 * g1 - cross - 0.25 * (tl + cl) ** 2 * inner
        return g1 - half * f1, g1 + half * f1, resid


def eigen_residual(z: float, geom: DeviceGeometry, vortices: VortexConfig,
                   tp: TransportParams, form: str = "reduced") -> float:
    """Evaluate the mode equation residual at z (zero at admissible modes)."""
    check_finite("z", z, ">=")
    _check_form(form)
    return float(_mode_terms(z, _groups(geom, vortices, tp), form)[2])


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


def _scan_plan(geom: DeviceGeometry, form: str):
    """Scan edges [0, every residual pole below _Z_CAP, _Z_CAP] and step.

    The residual poles depend on the geometry and the form alone: tan z
    at pi/2, the capacitor-plate resonances and, in the full form, the
    central-wire tan/cot poles k pi / (2 lam).  The capacitor denominator
    is sampled once on a grid closed at _Z_CAP, an eighth of its quarter
    period apart, and each sign change is polished with Brent's method.
    step is a quarter period of the fastest tan factor of the residual.
    """
    def den(z):
        return _capacitor(z, *_plate(geom))[1]

    lam = geom.l_half_gap / geom.l_wire
    plate = (geom.h_cap + geom.l_cap) / geom.l_wire
    cell = 0.5 * math.pi / (plate + 1.0) / 8.0
    zs = np.concatenate(([1e-12], np.arange(cell, _Z_CAP, cell), [_Z_CAP]))
    d = den(zs)
    poles = [0.5 * math.pi]
    for k in np.flatnonzero((d[:-1] == 0) | (d[:-1] * d[1:] < 0)):
        poles.append(_brent(den, zs[k], zs[k + 1], xtol=1e-14))
    if form == "full":
        half = 0.5 * math.pi / lam
        poles.extend(k * half for k in range(1, math.ceil(_Z_CAP / half)))
    step = 0.25 * math.pi / max(1.0, plate, lam if form == "full" else 0.0)
    return [0.0, *sorted(poles), _Z_CAP], step


def _first_root(fn, edges, step: float):
    """Smallest positive root of fn between edges[0] and edges[-1], or None.

    fn maps an array of z to an array of residuals and is continuous
    between consecutive edges, which hold every pole.  Each inter-pole
    interval is scanned on a grid no coarser than step, and the first
    sign change is polished by _brent to xtol 1e-15, rtol 4 eps, in at
    most 200 steps.  Deep local minima of |fn| (two roots closer than the
    scan step) get a local rescan before moving on.  Candidate samples are visited in grid order, so the
    bracket returned is the lowest one.
    """
    def polish(zs, vals, j):
        """Root and bracket in [zs[j], zs[j + 1]], where fn is 0 at zs[j]
        or changes sign."""
        za, zb = zs[j], zs[j + 1]
        if vals[j] == 0.0:
            return za, (za, za)
        return _brent(fn, za, zb, xtol=1e-15, maxiter=200), (za, zb)

    for lo, hi in zip(edges[:-1], edges[1:]):
        guard = max(1e-12, (hi - lo) * 1e-10)
        z_lo = max(lo + guard, 1e-9)
        z_hi = hi - guard
        if z_hi <= z_lo:
            continue
        n_sub = max(64, int(math.ceil((z_hi - z_lo) / step)))
        zs = np.linspace(z_lo, z_hi, n_sub + 1)
        vals = fn(zs)
        va, vb = vals[:-1], vals[1:]
        prev = np.concatenate(([np.nan], vals[:-2]))
        finite = np.isfinite(va) & np.isfinite(vb)
        # dip: a root pair may hide between samples
        dip = finite & np.isfinite(prev) & (va != 0.0) & (prev * va > 0) \
            & (va * vb > 0) \
            & (np.abs(va) < 0.3 * np.minimum(np.abs(prev), np.abs(vb)))
        hit = finite & ((va == 0.0) | (va * vb < 0))
        for j in np.flatnonzero(dip | hit):
            if not dip[j]:
                return polish(zs, vals, j)
            sub = np.linspace(zs[j - 1], zs[j + 1], 129)
            svals = fn(sub)
            k = np.flatnonzero((svals[:-1] == 0.0)
                               | (svals[:-1] * svals[1:] < 0))
            if k.size:
                return polish(sub, svals, k[0])
    return None


def _newton_quality(fn, root: float) -> float:
    """Newton-normalized residual: estimated relative error of the root."""
    if root <= 0:
        return 0.0
    h = max(1e-8 * root, 1e-12)
    slope = (fn(root + h) - fn(root - h)) / (2.0 * h)
    return fn(root) / (slope * root) if slope != 0 else 0.0


def _root(geom: DeviceGeometry, vortices: VortexConfig, tp: TransportParams,
          form: str, plan) -> ModeSolution:
    """smallest_root for a checked form and the _scan_plan of (geom, form)."""
    g = _groups(geom, vortices, tp)
    if g.eps == 0 or vortices.n_left + vortices.n_right == 0:
        return ModeSolution(z=0.0, s=tp.s0, bracket=(0.0, 0.0),
                            residual_at_root=0.0,
                            branch_note=f"{form}: no trapping, uniform mode")
    if g.z_w < 1e-6:  # the scan from z = 1e-9 errs by ~1.6e-16 / z^2
        raise InvalidParameterError(
            f"weak-trapping root estimate z_w = {g.z_w:.3g} is below 1e-6, "
            "too small for the mode scan to resolve; use the weak-trapping "
            f"limit s = (N_L + N_R) P / A_total + s0 = "
            f"{g.z_w**2 / g.tau_d + tp.s0:.6g} 1/s")
    edges, step = plan
    # equal pads: root each branch factor of u * v; otherwise the residual
    factors = ([(0, "symmetric-pads factor 0"), (1, "symmetric-pads factor 1")]
               if g.dn == 0 else [(2, "general scan")])
    hits = []
    for idx, note in factors:
        def fn(z, idx=idx):
            return _mode_terms(z, g, form)[idx]
        hit = _first_root(fn, edges, step)
        if hit is not None:
            hits.append((*hit, fn, note))
    if not hits:
        raise NoRootFoundError(
            "no sign change below the first pole cluster; geometry or "
            "parameters are pathological",
            diagnostics={"poles": edges[1:-1], "scan_step": step,
                         "eps": g.eps, "nbar": g.nbar, "dn": g.dn})
    root, bracket, fn, note = min(hits, key=lambda h: h[0])
    return ModeSolution(
        z=root, s=root * root / g.tau_d + tp.s0,
        bracket=(float(bracket[0]), float(bracket[1])),
        residual_at_root=float(_newton_quality(fn, root)),
        branch_note=f"{form}: {note}")


def smallest_root(geom: DeviceGeometry, vortices: VortexConfig,
                  tp: TransportParams, form: str = "reduced") -> ModeSolution:
    """Smallest strictly positive root of the mode equation, as a ModeSolution.

    For zero total trapping power (N = 0 or P = 0) the uniform mode z = 0
    is exact and returned without a search.  With equal vortex counts the
    equation factorizes and each branch is rooted separately; otherwise
    the residual itself is scanned between consecutive poles with a step
    no larger than a quarter period of its fastest tan factor.  z = 0 is
    always a trivial zero of the residual and is excluded by starting the
    scan just above it.  A weak-trapping root estimate below 1e-6, which
    the scan cannot resolve, raises InvalidParameterError.
    """
    _check_form(form)
    return _root(geom, vortices, tp, form, _scan_plan(geom, form))


def small_p_rate(geom: DeviceGeometry, vortices: VortexConfig,
                 tp: TransportParams) -> float:
    """Weak-trapping closed form s = (N_L + N_R) P / A_total + s0."""
    der = derive(geom, tp.d)
    n = vortices.n_left + vortices.n_right
    return n * vortices.trapping_power / der.a_total + tp.s0


def large_p_z(geom: DeviceGeometry) -> float:
    """Strong-trapping limit z -> (pi/2) / (1 + A_c/A_W) of the root.

    Leading order for A_c << A_W; the exact saturation root solves
    2 tan(z) T_cap(z) = 1.
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
    plan = _scan_plan(geom, form)
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
    plan = _scan_plan(geom, form)
    rates = {c: _root(geom, VortexConfig(*c, trapping_power), tp, form,
                      plan).s
             for c in dict.fromkeys(counts)}
    return [(b, nl, nr, rates[nl, nr]) for b, (nl, nr) in zip(fields, counts)]
