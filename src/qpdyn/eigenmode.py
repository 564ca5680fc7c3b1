"""Slowest diffusion-trapping eigenmode of the electrode network.

With N_L, N_R vortices of trapping power P (m^2/s) in the two pads, QP
density decays as exp(-s t) in a spatial mode x ~ cos(k y) per segment,
with s = D k^2 + s0.  The admissible k (dimensionless z = k L) solves a
transcendental compatibility equation of the wire network; this module
evaluates that equation, finds its smallest positive root with a
pole-aware bracket scan, and provides the closed-form weak- and
strong-trapping limits, the quantized vortex-step sequence, and
field-sweep predictions.

Dimensionless groups: eps = P * tau_D / A_W measures trapping strength;
a = S_pad / A_W the pad-to-wire area ratio; nbar = (N_L + N_R)/2 and
dN = N_R - N_L enter the equation only as nbar and dN^2, so s is exactly
symmetric under pad exchange.

The equation is written once, in _mode_terms, as a numpy function of z
(a float or an array); the groups are computed once per configuration.
The root scan evaluates each inter-pole grid, each dip rescan and each
fine polish grid in one array call; only Brent's polish and the Newton
quality estimate evaluate single points.  The residual poles depend on
the geometry and the form alone, so step_sequence and field_sweep locate
them once per call, and field_sweep roots each distinct (N_L, N_R) once
and reuses its rate for every field that maps to it.
"""

from __future__ import annotations

import math
import numbers
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


def _groups(geom: DeviceGeometry, vortices: VortexConfig,
            tp: TransportParams) -> _Groups:
    der = derive(geom, tp.d)
    beta, eta, w = _plate(geom)
    return _Groups(
        a=der.aspect_a, eps=vortices.trapping_power * der.tau_d / der.a_w,
        nbar=0.5 * (vortices.n_left + vortices.n_right),
        dn=vortices.n_right - vortices.n_left, beta=beta, eta=eta, w=w,
        lam=geom.l_half_gap / geom.l_wire, tau_d=der.tau_d)


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


def _pole_positions(geom: DeviceGeometry, z_max: float, form: str):
    """All residual poles in (0, z_max): tan z, capacitor, central-wire tans."""
    from scipy.optimize import brentq

    poles = []
    # tan(z)
    p = 0.5 * math.pi
    while p < z_max:
        poles.append(p)
        p += math.pi
    # capacitor denominator zeros, located by scan + bisection
    scales = (geom.h_cap + geom.l_cap) / geom.l_wire + 1.0
    step = 0.5 * math.pi / scales / 8.0
    zs = np.arange(step, z_max, step)
    if zs.size:
        dvals = capacitor_denominator(zs, geom)
        prev_z, prev_d = 1e-12, capacitor_denominator(1e-12, geom)
        for zv, dv in zip(zs, dvals):
            if prev_d == 0 or prev_d * dv < 0:
                poles.append(brentq(capacitor_denominator, prev_z, zv,
                                    args=(geom,), xtol=1e-14))
            prev_z, prev_d = zv, dv
    if form == "full":
        lam = geom.l_half_gap / geom.l_wire
        p = 0.5 * math.pi / lam
        while p < z_max:
            poles.append(p)
            p += math.pi / lam
        p = math.pi / lam  # cot poles
        while p < z_max:
            poles.append(p)
            p += math.pi / lam
    return sorted(poles)


def _pole_indicators(z: float, geom: DeviceGeometry, form: str):
    """Signs of every denominator whose zero is a residual pole."""
    out = [math.cos(z), capacitor_denominator(z, geom)]
    if form == "full":
        lam = geom.l_half_gap / geom.l_wire
        out.extend([math.cos(z * lam), math.sin(z * lam)])
    return out


def _same_branch(za: float, zb: float, geom: DeviceGeometry,
                 form: str) -> bool:
    ia = _pole_indicators(za, geom, form)
    ib = _pole_indicators(zb, geom, form)
    return all(a * b > 0 for a, b in zip(ia, ib))


def _first_root(fn, geom: DeviceGeometry, form: str, poles, step: float,
                z_cap: float):
    """Smallest positive root of fn in (0, z_cap), or None.

    fn maps an array of z to an array of residuals.  Scans each
    inter-pole interval; a sign change whose bracket stays on one branch
    of every tan factor is polished with Brent's method.  Deep local
    minima of |fn| (two roots closer than the scan step) get a local
    rescan before moving on.  Candidate samples are visited in grid
    order, so the bracket returned is the lowest one.
    """
    from scipy.optimize import brentq

    edges = [0.0] + [p for p in poles if p < z_cap] + [z_cap]

    def brent(za, zb):
        return brentq(fn, za, zb, xtol=1e-15,
                      rtol=4 * np.finfo(float).eps, maxiter=200)

    def polish(za, zb):
        if _same_branch(za, zb, geom, form):
            return brent(za, zb)
        # an unlisted pole sneaked inside: resolve it locally
        fine = np.linspace(za, zb, 33)
        fvals = fn(fine)
        for k in np.flatnonzero(fvals[:-1] * fvals[1:] < 0):
            if _same_branch(fine[k], fine[k + 1], geom, form):
                return brent(fine[k], fine[k + 1])
        return None

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
            if dip[j]:
                sub = np.linspace(zs[j - 1], zs[j + 1], 129)
                svals = fn(sub)
                for k in np.flatnonzero((svals[:-1] == 0.0)
                                        | (svals[:-1] * svals[1:] < 0)):
                    if svals[k] == 0.0:
                        return sub[k], (sub[k], sub[k])
                    root = polish(sub[k], sub[k + 1])
                    if root is not None:
                        return root, (sub[k], sub[k + 1])
            elif va[j] == 0.0:
                return zs[j], (zs[j], zs[j])
            else:
                root = polish(zs[j], zs[j + 1])
                if root is not None:
                    return root, (zs[j], zs[j + 1])
    return None


def _newton_quality(fn, root: float) -> float:
    """Newton-normalized residual: estimated relative error of the root."""
    if root <= 0:
        return 0.0
    h = max(1e-8 * root, 1e-12)
    slope = (fn(root + h) - fn(root - h)) / (2.0 * h)
    return fn(root) / (slope * root) if slope != 0 else 0.0


def _root(geom: DeviceGeometry, vortices: VortexConfig, tp: TransportParams,
          form: str, poles=None) -> ModeSolution:
    """smallest_root for a checked form; poles, when given, are the
    residual poles of (geom, form) below _Z_CAP, located by the caller."""
    g = _groups(geom, vortices, tp)
    if g.eps == 0 or vortices.n_left + vortices.n_right == 0:
        return ModeSolution(z=0.0, s=tp.s0, bracket=(0.0, 0.0),
                            residual_at_root=0.0,
                            branch_note=f"{form}: no trapping, uniform mode")
    if poles is None:
        poles = _pole_positions(geom, _Z_CAP, form)
    scales = [1.0, geom.h_cap / geom.l_wire, geom.l_cap / geom.l_wire,
              (geom.h_cap + geom.l_cap) / geom.l_wire]
    if form == "full":
        scales.append(geom.l_half_gap / geom.l_wire)
    step = 0.25 * math.pi / max(scales)

    if g.dn == 0:
        candidates = []
        for idx in (0, 1):
            def factor(z, idx=idx):
                return _mode_terms(z, g, form)[idx]
            hit = _first_root(factor, geom, form, poles, step, _Z_CAP)
            if hit is not None:
                candidates.append((hit[0], hit[1], factor, idx))
        if candidates:
            root, bracket, fn, idx = min(candidates, key=lambda c: c[0])
            return ModeSolution(
                z=root, s=root * root / g.tau_d + tp.s0,
                bracket=(float(bracket[0]), float(bracket[1])),
                residual_at_root=float(_newton_quality(fn, root)),
                branch_note=f"{form}: symmetric-pads factor {idx}")
    else:
        def resid(z):
            return _mode_terms(z, g, form)[2]
        hit = _first_root(resid, geom, form, poles, step, _Z_CAP)
        if hit is not None:
            root, bracket = hit
            return ModeSolution(
                z=root, s=root * root / g.tau_d + tp.s0,
                bracket=(float(bracket[0]), float(bracket[1])),
                residual_at_root=float(_newton_quality(resid, root)),
                branch_note=f"{form}: general scan")
    raise NoRootFoundError(
        "no sign change below the first pole cluster; geometry or "
        "parameters are pathological",
        diagnostics={"poles": poles, "scan_step": step, "eps": g.eps,
                     "nbar": g.nbar, "dn": g.dn})


def smallest_root(geom: DeviceGeometry, vortices: VortexConfig,
                  tp: TransportParams, form: str = "reduced") -> ModeSolution:
    """Smallest strictly positive root of the mode equation, as a ModeSolution.

    For zero total trapping power (N = 0 or P = 0) the uniform mode z = 0
    is exact and returned without a search.  With equal vortex counts the
    equation factorizes and each branch is rooted separately; otherwise
    the residual itself is scanned between consecutive poles with a step
    no larger than a quarter of the smallest pole spacing.  z = 0 is
    always a trivial zero of the residual and is excluded by starting the
    scan just above it.
    """
    _check_form(form)
    return _root(geom, vortices, tp, form)


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
    poles = _pole_positions(geom, _Z_CAP, form)
    rows = []
    for k in range(max_steps + 1):
        nl, nr = _SERIES[series](k)
        vc = VortexConfig(n_left=nl, n_right=nr,
                          trapping_power=trapping_power)
        s = _root(geom, vc, tp, form, poles).s
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
    poles = _pole_positions(geom, _Z_CAP, form)
    rates = {c: _root(geom, VortexConfig(*c, trapping_power), tp, form,
                      poles).s
             for c in dict.fromkeys(counts)}
    return [(b, nl, nr, rates[nl, nr]) for b, (nl, nr) in zip(fields, counts)]
