"""File ingestion and result serialization.

Trace files are CSV with header ``t,gamma`` or ``t,gamma,sigma``; values
are SI (seconds, 1/s) unless optional comment lines ``# units: t=us
gamma=1/ms`` declare otherwise.  Units lines come before the first data
row; their factors merge, and a column takes a unit once.  Every value
must be finite, and all but t also > 0; a refusal names the line.  ``#``
lines are comments, encoding is UTF-8 with LF endings.  Numbers are
written with repr, so a parse-serialize round trip is lossless.

Every CLI output is accompanied by a run manifest, a plain dict of the
command, all resolved parameters in SI, input file hashes, the seed and
the library version: identical manifests imply bit-identical outputs.
No output, JSON or CSV, holds an infinity or NaN; one is refused by name.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from .errors import NonConvergenceError, TraceParseError, finite_violation
from .units import unit_factor

if TYPE_CHECKING:
    from .trace_fit import DecayTrace, SteadyStatePoint

# Each CSV format once: column -> (unit kind, the errors.finite_violation
# bound of its SI values).  The third column is optional.
_TRACE_FORMAT = {"t": ("time", ""), "gamma": ("rate", ">"),
                 "sigma": ("rate", ">")}
_POINTS_FORMAT = {"tau_ss": ("time", ">"), "inv_t1": ("rate", ">"),
                  "sigma_inv_t1": ("rate", ">")}


def _parse_units_comment(line: str, columns: dict, lineno: int,
                         factors: dict) -> None:
    """Add the factors of one ``# units:`` line to ``factors``; a column
    may be given a unit once."""
    for tok in line.split(":", 1)[1].split():
        name, _, unit = tok.partition("=")
        if name not in columns:
            raise TraceParseError(f"units given for unknown column {name!r}",
                                  line=lineno)
        if name in factors:
            raise TraceParseError(f"units given twice for column {name!r}",
                                  line=lineno)
        try:
            factors[name] = unit_factor(unit, columns[name][0])
        except Exception as exc:
            raise TraceParseError(str(exc), line=lineno) from exc


def _read_table(text: str, columns: dict):
    """Parse a comment-aware CSV into per-column SI float arrays and the
    rows' line numbers; a value that breaks its column's bound is refused."""
    import numpy as np
    names = tuple(columns)
    header = None
    factors = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].lstrip().lower().startswith("units:"):
                if rows:
                    raise TraceParseError(
                        "units line after the first data row", line=lineno)
                _parse_units_comment(line, columns, lineno, factors)
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if tuple(header) not in (names[:2], names):
                raise TraceParseError(
                    f"header must be {','.join(names[:2])} or "
                    f"{','.join(names)}, got {line!r}", line=lineno)
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise TraceParseError(
                f"expected {len(header)} fields, got {len(parts)}",
                line=lineno)
        try:
            rows.append((lineno, [float(p) for p in parts]))
        except ValueError:
            raise TraceParseError(f"non-numeric value in {line!r}",
                                  line=lineno) from None
    if header is None:
        raise TraceParseError("file has no header row")
    if not rows:
        raise TraceParseError("file has no data rows")
    for lineno, vals in rows:
        for k, name in enumerate(header):
            vals[k] *= factors.get(name, 1.0)
            message = finite_violation(name, vals[k], columns[name][1])
            if message:
                raise TraceParseError(message, line=lineno)
    data = {name: np.array([vals[k] for _, vals in rows])
            for k, name in enumerate(header)}
    return data, [lineno for lineno, _ in rows]


def read_trace(path) -> DecayTrace:
    """Read a decay trace file, validating the DecayTrace invariants."""
    import numpy as np

    from .trace_fit import DecayTrace
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data, linenos = _read_table(text, _TRACE_FORMAT)
    bad = np.nonzero(np.diff(data["t"]) <= 0)[0]
    if bad.size:
        raise TraceParseError("t values must be strictly increasing",
                              line=linenos[bad[0] + 1])
    return DecayTrace(t=data["t"], gamma=data["gamma"],
                      sigma=data.get("sigma"))


def trace_table(trace: DecayTrace):
    """A trace's CSV header, t, gamma and sigma if it has one, and rows."""
    columns = {"t": trace.t, "gamma": trace.gamma, "sigma": trace.sigma}
    header = tuple(k for k, v in columns.items() if v is not None)
    return header, zip(*(columns[k] for k in header))


def format_trace(trace: DecayTrace) -> str:
    """Serialize a trace in SI units; round trips losslessly."""
    return _csv_table(*trace_table(trace))


def write_trace(trace: DecayTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trace(trace))


def read_points(path) -> list[SteadyStatePoint]:
    """Read (tau_ss, 1/T1[, sigma]) points for the steady-state line fit."""
    from .trace_fit import SteadyStatePoint
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data, _ = _read_table(text, _POINTS_FORMAT)
    sig = data.get("sigma_inv_t1")
    return [SteadyStatePoint(
                tau_ss=float(data["tau_ss"][k]),
                inv_t1=float(data["inv_t1"][k]),
                sigma_inv_t1=None if sig is None else float(sig[k]))
            for k in range(data["tau_ss"].size)]


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, parameters: dict, input_paths=(),
                   seed: int | None = None,
                   no_timestamp: bool = False) -> dict:
    """The run manifest as a dict, keys in output order; UTC timestamp last."""
    from . import __version__
    manifest = {"command": command, "parameters": parameters,
                "input_hashes": {str(p): file_sha256(p) for p in input_paths},
                "seed": seed, "version": __version__}
    if not no_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _non_finite_paths(obj, path: str):
    """Dotted paths of the inf/nan floats inside nested dicts and lists."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _non_finite_paths(val,
                                         f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple)):
        for k, val in enumerate(obj):
            yield from _non_finite_paths(val, f"{path}[{k}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield f"{path} = {obj}"


def _refuse_non_finite(doc) -> None:
    """The finite-value rule of every output: JSON has no infinity or NaN,
    and a CSV reader would take one for data, so a non-finite value raises
    NonConvergenceError naming where it sits."""
    bad = ", ".join(_non_finite_paths(doc, ""))
    if bad:
        raise NonConvergenceError(f"non-finite value in the output ({bad})")


def _csv_table(header, rows) -> str:
    """A header line, then one line per row: floats by repr, anything else
    by str.  A non-finite value is refused, named by its quantity in a
    quantity,value table and as column[row] in any other."""
    rows = list(rows)
    _refuse_non_finite(dict(rows) if tuple(header) == ("quantity", "value")
                       else {name: [row[k] for row in rows]
                             for k, name in enumerate(header)})
    return "".join(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                            for v in row) + "\n"
                   for row in [header, *rows])


def format_json_result(result: dict, manifest: dict) -> str:
    """JSON result document with stable field order."""
    doc = {"result": result, "manifest": manifest}
    _refuse_non_finite(doc)
    return json.dumps(doc, indent=2) + "\n"


def format_csv_result(header, rows, manifest: dict) -> str:
    """CSV result with the manifest on a leading comment line."""
    return ("# manifest: " + json.dumps(manifest, separators=(",", ":"))
            + "\n" + _csv_table(header, rows))


def write_text(text: str, path=None) -> None:
    """Write to a path, or stdout when path is None."""
    if path is None:
        import sys
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
