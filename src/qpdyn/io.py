"""File ingestion and result serialization.

Trace files are CSV with header ``t,gamma`` or ``t,gamma,sigma``; values
are SI (seconds, 1/s) unless an optional comment line ``# units: t=us
gamma=1/ms`` declares otherwise.  ``#`` lines are comments, encoding is
UTF-8 with LF endings.  Numbers are written with repr, so a
parse-serialize round trip is lossless.

Every CLI output is accompanied by a RunManifest recording the command,
all resolved parameters in SI, input file hashes, the seed, and the
library version: identical manifests imply bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import NonConvergenceError, TraceParseError
from .trace_fit import DecayTrace, SteadyStatePoint
from .units import unit_factor

_TRACE_COLUMNS = ("t", "gamma", "sigma")
_TRACE_KINDS = {"t": "time", "gamma": "rate", "sigma": "rate"}
_POINT_COLUMNS = ("tau_ss", "inv_t1", "sigma_inv_t1")
_POINT_KINDS = {"tau_ss": "time", "inv_t1": "rate", "sigma_inv_t1": "rate"}


def _parse_units_comment(line: str, kinds: dict, lineno: int) -> dict:
    factors = {}
    for tok in line.split(":", 1)[1].split():
        name, _, unit = tok.partition("=")
        if name not in kinds:
            raise TraceParseError(f"units given for unknown column {name!r}",
                                  line=lineno)
        try:
            factors[name] = unit_factor(unit, kinds[name])
        except Exception as exc:
            raise TraceParseError(str(exc), line=lineno) from exc
    return factors


def _read_table(text: str, columns, kinds, min_cols: int):
    """Parse a comment-aware CSV into per-column float arrays."""
    header = None
    factors = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].lstrip().lower().startswith("units:"):
                factors = _parse_units_comment(line, kinds, lineno)
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if tuple(header) not in (columns[:min_cols], columns):
                raise TraceParseError(
                    f"header must be {','.join(columns[:min_cols])} or "
                    f"{','.join(columns)}, got {line!r}", line=lineno)
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise TraceParseError(
                f"expected {len(header)} fields, got {len(parts)}",
                line=lineno)
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise TraceParseError(f"non-numeric value in {line!r}",
                                  line=lineno) from None
        if not np.all(np.isfinite(vals)):
            raise TraceParseError(f"non-finite value in {line!r}",
                                  line=lineno)
        rows.append((lineno, vals))
    if header is None:
        raise TraceParseError("file has no header row")
    if not rows:
        raise TraceParseError("file has no data rows")
    data = {}
    for k, name in enumerate(header):
        factor = factors.get(name, 1.0)
        data[name] = np.array([vals[k] for _, vals in rows]) * factor
    return data, [lineno for lineno, _ in rows]


def read_trace(path) -> DecayTrace:
    """Read a decay trace file, validating the DecayTrace invariants."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data, linenos = _read_table(text, _TRACE_COLUMNS, _TRACE_KINDS, 2)
    t = data["t"]
    bad = np.nonzero(np.diff(t) <= 0)[0]
    if bad.size:
        raise TraceParseError("t values must be strictly increasing",
                              line=linenos[bad[0] + 1])
    bad = np.nonzero(data["gamma"] <= 0)[0]
    if bad.size:
        raise TraceParseError("gamma values must be positive",
                              line=linenos[bad[0]])
    sigma = data.get("sigma")
    if sigma is not None:
        bad = np.nonzero(sigma <= 0)[0]
        if bad.size:
            raise TraceParseError("sigma values must be positive",
                                  line=linenos[bad[0]])
    return DecayTrace(t=t, gamma=data["gamma"], sigma=sigma, label=str(path))


def format_trace(trace: DecayTrace) -> str:
    """Serialize a trace in SI units; round trips losslessly."""
    buf = _io.StringIO()
    cols = "t,gamma,sigma" if trace.sigma is not None else "t,gamma"
    buf.write(cols + "\n")
    for k in range(trace.n):
        row = [repr(float(trace.t[k])), repr(float(trace.gamma[k]))]
        if trace.sigma is not None:
            row.append(repr(float(trace.sigma[k])))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def write_trace(trace: DecayTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trace(trace))


def read_points(path) -> list[SteadyStatePoint]:
    """Read (tau_ss, 1/T1[, sigma]) points for the steady-state line fit."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data, _ = _read_table(text, _POINT_COLUMNS, _POINT_KINDS, 2)
    sig = data.get("sigma_inv_t1")
    return [SteadyStatePoint(
                tau_ss=float(data["tau_ss"][k]),
                inv_t1=float(data["inv_t1"][k]),
                sigma_inv_t1=None if sig is None else float(sig[k]))
            for k in range(data["tau_ss"].size)]


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted with every CLI output."""

    command: str
    parameters: dict
    input_hashes: dict
    seed: int | None
    version: str
    timestamp: str | None

    def to_dict(self) -> dict:
        d = {"command": self.command, "parameters": self.parameters,
             "input_hashes": self.input_hashes, "seed": self.seed,
             "version": self.version}
        if self.timestamp is not None:
            d["timestamp"] = self.timestamp
        return d


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, parameters: dict, input_paths=(),
                   seed: int | None = None,
                   no_timestamp: bool = False) -> RunManifest:
    from . import __version__
    return RunManifest(
        command=command,
        parameters=parameters,
        input_hashes={str(p): file_sha256(p) for p in input_paths},
        seed=seed,
        version=__version__,
        timestamp=None if no_timestamp
        else datetime.now(timezone.utc).isoformat())


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


def format_json_result(result: dict, manifest: RunManifest) -> str:
    """JSON result document with stable field order.

    JSON has no infinity or NaN, so a non-finite value raises
    NonConvergenceError naming where it sits.
    """
    doc = {"result": result, "manifest": manifest.to_dict()}
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        bad = ", ".join(_non_finite_paths(doc, "")) or "unknown field"
        raise NonConvergenceError(
            f"non-finite value in the output ({bad})") from None


def format_csv_result(header, rows, manifest: RunManifest) -> str:
    """CSV result with the manifest on a leading comment line."""
    buf = _io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest.to_dict(),
                                          separators=(",", ":")) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(float(v)) if isinstance(v, float)
                           else str(v) for v in row) + "\n")
    return buf.getvalue()


def write_text(text: str, path=None) -> None:
    """Write to a path, or stdout when path is None."""
    if path is None:
        import sys
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
