"""Conversion between lab units and the SI units used internally.

Everything inside the library is SI (seconds, meters, joules, tesla).
Quantities cross the boundary as strings with an explicit unit suffix,
e.g. ``200us``, ``0.067cm2/s``, ``180ueV``, ``11mG``, ``8kohm``.  Every
quantity must carry a suffix so that no unit ambiguity survives parsing;
dimensionless values are plain floats and do not pass through here.
"""

from __future__ import annotations

import math
import re

from .constants import EV
from .errors import UnitParseError


# unit token -> multiplicative factor to SI, per kind of quantity
_UNIT_TABLES: dict[str, dict[str, float]] = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "μs": 1e-6, "ns": 1e-9},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "μm": 1e-6,
               "nm": 1e-9},
    "area": {"m2": 1.0, "cm2": 1e-4, "mm2": 1e-6, "um2": 1e-12,
             "μm2": 1e-12},
    "diffusivity": {"m2/s": 1.0, "cm2/s": 1e-4, "mm2/s": 1e-6, "um2/s": 1e-12},
    "rate": {"1/s": 1.0, "/s": 1.0, "1/ms": 1e3, "/ms": 1e3, "1/us": 1e6,
             "/us": 1e6, "1/μs": 1e6, "1/ns": 1e9, "/ns": 1e9},
    "energy": {"J": 1.0, "eV": EV, "meV": 1e-3 * EV, "ueV": 1e-6 * EV,
               "μeV": 1e-6 * EV},
    "field": {"T": 1.0, "G": 1e-4, "mG": 1e-7, "uT": 1e-6, "μT": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "resistance": {"ohm": 1.0, "Ohm": 1.0, "kohm": 1e3, "kOhm": 1e3,
                   "Mohm": 1e6, "MOhm": 1e6},
}

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise UnitParseError(f"{text!r} is not a finite quantity")
    return value


def parse_quantity(text: str, kind: str) -> float:
    """Parse ``text`` as a quantity of the given kind, returning its SI value.

    Raises UnitParseError if the suffix is missing, unknown for the kind,
    the number itself does not parse, or the value is not finite (e.g.
    ``1e400um`` overflows).
    """
    try:
        table = _UNIT_TABLES[kind]
    except KeyError:
        raise UnitParseError(f"unknown quantity kind {kind!r}") from None
    m = _NUMBER_RE.match(text)
    if not m:
        raise UnitParseError(f"cannot parse {text!r} as a {kind} quantity")
    value_str, unit = m.group(1), m.group(2)
    if not unit:
        raise UnitParseError(
            f"{text!r}: bare numbers are rejected for {kind} quantities; "
            f"append one of {sorted(table)}")
    if unit not in table:
        raise UnitParseError(
            f"{text!r}: unknown {kind} unit {unit!r}; accepted: {sorted(table)}")
    return _finite(float(value_str) * table[unit], text)


def unit_factor(unit: str, kind: str) -> float:
    """SI multiplier of a bare unit token, e.g. ('us', 'time') -> 1e-6."""
    table = _UNIT_TABLES.get(kind)
    if table is None:
        raise UnitParseError(f"unknown quantity kind {kind!r}")
    if unit not in table:
        raise UnitParseError(
            f"unknown {kind} unit {unit!r}; accepted: {sorted(table)}")
    return table[unit]


def parse_angular_frequency(text: str) -> float:
    """Parse a qubit frequency as rad/s.

    Accepts either an explicit angular value (``3.77e10rad/s``) or a plain
    frequency (``6GHz``), which is multiplied by 2*pi.
    """
    m = _NUMBER_RE.match(text)
    if m and m.group(2) in ("rad/s", "rads"):
        return _finite(float(m.group(1)), text)
    return 2.0 * math.pi * parse_quantity(text, "frequency")
