"""Simplified electrode model of the narrow-capacitor (Type B) transmon.

The device is a network of 1-D wires plus two lumped square pads:

    pad --- horizontal wire (L x W) --- cross point --- central junction
    wire (2l x W, junction at its center) --- cross point --- horizontal
    wire --- pad

and at each cross point a gap-capacitor plate modeled as a thin vertical
arm of length h and width W extending both up and down, optionally
continued by a wider arm of length L_c and width W_c.

Derived areas (a_c is the area of ONE capacitor plate, i.e. both halves
of one side):

    a_w     = L * W
    a_c     = 2 (L_c W_c + h W)
    a_total = 2 s_pad + 2 a_w + 2 a_c + 2 l W
    a       = s_pad / a_w
    tau_d   = L^2 / D

a_total counts every piece of metal once; the weak-trapping decay rate is
s = N P / a_total + s0, or N P / (a_total - 2 l W) + s0 in the reduced form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .errors import (InvalidGeometryError, InvalidParameterError,
                     TraceParseError, finite_violation)
from .units import parse_quantity

_LENGTH_KEYS = ("w_wire", "l_wire", "h_cap", "l_half_gap", "w_cap", "l_cap")


@dataclass(frozen=True)
class DeviceGeometry:
    """Electrode dimensions, SI meters (areas m^2).

    w_wire     : wire width W (horizontal wires, central wire, thin arms)
    l_wire     : horizontal wire length L (cross point to pad)
    h_cap      : thin capacitor arm length h (one half, cross point to
                 wide section or free end)
    l_half_gap : half-length l of the central junction wire
    w_cap      : wide capacitor arm width W_c
    l_cap      : wide capacitor arm length L_c (0 disables the wide section)
    s_pad      : area of one pad, m^2
    """

    w_wire: float
    l_wire: float
    h_cap: float
    l_half_gap: float
    w_cap: float
    l_cap: float
    s_pad: float
    label: str = ""
    example_only: bool = False

    def __post_init__(self):
        violations = [finite_violation(name, getattr(self, name),
                                       ">=" if name == "l_cap" else ">")
                      for name in (*_LENGTH_KEYS, "s_pad")]
        violations = [v for v in violations if v]
        if violations:
            raise InvalidGeometryError(violations)
        if self.w_wire / self.l_wire >= 0.2:
            warnings.warn(
                f"w_wire/l_wire = {self.w_wire / self.l_wire:.3g} >= 0.2; "
                "the 1-D wire model assumes W << L", stacklevel=2)
        if self.l_half_gap >= 0.5 * min(self.h_cap, self.l_wire):
            warnings.warn(
                "l_half_gap is not small compared to h_cap and l_wire; "
                "the short-central-wire approximation degrades", stacklevel=2)


@dataclass(frozen=True)
class DerivedGeometry:
    """Areas and the diffusion time derived from a DeviceGeometry."""

    a_w: float       # one horizontal wire, m^2
    a_c: float       # one capacitor plate (both halves), m^2
    a_total: float   # all metal, m^2
    aspect_a: float  # s_pad / a_w
    tau_d: float     # diffusion time L^2/D, s


def derive(geom: DeviceGeometry, diffusivity: float) -> DerivedGeometry:
    """Compute derived areas and the diffusion time for diffusivity D (m^2/s)."""
    message = finite_violation("D", diffusivity, ">")
    if message:
        raise InvalidGeometryError([message])
    a_w = geom.l_wire * geom.w_wire
    a_c = 2.0 * (geom.l_cap * geom.w_cap + geom.h_cap * geom.w_wire)
    a_total = (2.0 * geom.s_pad + 2.0 * a_w + 2.0 * a_c
               + 2.0 * geom.l_half_gap * geom.w_wire)
    return DerivedGeometry(a_w=a_w, a_c=a_c, a_total=a_total,
                           aspect_a=geom.s_pad / a_w,
                           tau_d=geom.l_wire * geom.l_wire / diffusivity)


def edges(geom: DeviceGeometry, form: str = "full"):
    """The 1-D segments of the electrode graph, (name, a, b, length, width)
    from vertex a to vertex b; each capacitor arm joins its up and down
    halves (twice the width).  form 'reduced' drops the central wire and
    merges both cross points into 'junction'.  Any other form raises
    InvalidParameterError."""
    if form not in ("reduced", "full"):
        raise InvalidParameterError(
            f"form must be 'reduced' or 'full', got {form!r}")
    w, h, lc, wc = geom.w_wire, geom.h_cap, geom.l_cap, 2.0 * geom.w_cap
    gap, merged = (geom.l_half_gap, {}) if form == "full" else (
        0.0, {"cross_left": "junction", "cross_right": "junction"})
    table = [
        ("wire_left", "pad_left", "cross_left", geom.l_wire, w),
        ("wire_right", "cross_right", "pad_right", geom.l_wire, w),
        ("center_left", "cross_left", "junction", gap, w),
        ("center_right", "junction", "cross_right", gap, w),
        ("arm_left_thin", "cross_left", "arm_left_thin_end", h, 2.0 * w),
        ("arm_left_wide", "arm_left_thin_end", "arm_left_wide_end", lc, wc),
        ("arm_right_thin", "cross_right", "arm_right_thin_end", h, 2.0 * w),
        ("arm_right_wide", "arm_right_thin_end", "arm_right_wide_end", lc, wc)]
    return [(name, merged.get(a, a), merged.get(b, b), length, width)
            for name, a, b, length, width in table if length > 0]


def parse_geometry(text: str) -> DeviceGeometry:
    """Parse the flat key = value geometry format.

    One assignment per line, ``#`` starts a comment, blank lines ignored.
    Lengths take a length unit suffix (``80um``), s_pad an area suffix
    (``6.4e-5cm2``).  ``label`` is free text and ``example_only`` a boolean.
    """
    values: dict = {}
    label = ""
    example_only = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TraceParseError(f"expected 'key = value', got {raw!r}",
                                  line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _LENGTH_KEYS:
                values[key] = parse_quantity(val, "length")
            elif key == "s_pad":
                values[key] = parse_quantity(val, "area")
            elif key == "label":
                label = val
            elif key == "example_only":
                example_only = val.lower() in ("true", "1", "yes")
            else:
                raise TraceParseError(f"unknown geometry key {key!r}",
                                      line=lineno)
        except TraceParseError:
            raise
        except Exception as exc:
            raise TraceParseError(str(exc), line=lineno) from exc
    missing = [k for k in (*_LENGTH_KEYS, "s_pad") if k not in values]
    if missing:
        raise TraceParseError(f"missing geometry keys: {missing}")
    return DeviceGeometry(label=label, example_only=example_only, **values)


def format_geometry(geom: DeviceGeometry) -> str:
    """Serialize geometry to its config format (SI values, exact round trip)."""
    lines = [f"label = {geom.label}"] if geom.label else []
    for key in _LENGTH_KEYS:
        lines.append(f"{key} = {getattr(geom, key)!r}m")
    lines.append(f"s_pad = {geom.s_pad!r}m2")
    if geom.example_only:
        lines.append("example_only = true")
    return "\n".join(lines) + "\n"


def load_geometry(path) -> DeviceGeometry:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_geometry(fh.read())


def scaled(geom: DeviceGeometry, factor: float) -> DeviceGeometry:
    """Geometry with every length scaled by factor (areas by factor^2)."""
    return replace(geom,
                   w_wire=geom.w_wire * factor, l_wire=geom.l_wire * factor,
                   h_cap=geom.h_cap * factor,
                   l_half_gap=geom.l_half_gap * factor,
                   w_cap=geom.w_cap * factor, l_cap=geom.l_cap * factor,
                   s_pad=geom.s_pad * factor**2)
