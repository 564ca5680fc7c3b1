"""In-memory spans around the benchmark's calls into qpdyn's layers.

A span records one call: its name, start and end (``time.perf_counter``,
which on Linux is CLOCK_MONOTONIC and so comparable across the processes
of one machine), its parent span and the op it belongs to.  Self time is
a span's duration minus the time its direct children cover.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; an untraced run has no Tracer at all."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, "failed": False}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def adopt(self, child_spans: list[dict]):
        """Append spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for rec in child_spans:
            rec = dict(rec)
            rec["parent"] = parent if rec["parent"] is None \
                else rec["parent"] + base
            rec["op"] = self.op_id
            self.spans.append(rec)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the union of its direct children's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(
                (rec["start"], rec["end"]))
    out = []
    for idx, rec in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, rec["start"]), min(hi, rec["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(rec["end"] - rec["start"] - covered)
    return out


def layer_table(spans: list[dict], names) -> dict[str, dict]:
    """calls, self_s, p50_ms (of the span duration) and failed per name."""
    selfs = self_times(spans)
    acc = {n: {"calls": 0, "self_s": 0.0, "durations": [], "failed": 0}
           for n in names}
    for rec, st in zip(spans, selfs):
        row = acc.get(rec["name"])
        if row is None:
            continue
        row["calls"] += 1
        row["self_s"] += st
        row["durations"].append(rec["end"] - rec["start"])
        row["failed"] += rec["failed"]
    return {n: {"calls": r["calls"], "self_s": r["self_s"],
                "p50_ms": 1e3 * statistics.median(r["durations"])
                if r["durations"] else 0.0,
                "failed": r["failed"]}
            for n, r in acc.items()}
